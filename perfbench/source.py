"""Locates the ctmoments source tree of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import ctmoments from ROOT/src, never from an installed copy."""
    if not (SRC / "ctmoments" / "__init__.py").is_file():
        sys.exit(f"error: no ctmoments sources under {SRC}")
    sys.path.insert(0, str(SRC))
