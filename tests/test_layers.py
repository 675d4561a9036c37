import ast
from pathlib import Path
from types import ModuleType

import ctmoments

# each module imports only modules before it
LAYER_ORDER = [
    "errors", "linalg", "basis", "_kernels", "bloch",
    "moments", "criteria", "states", "io", "cli",
]


def _relative_imports(path: Path) -> set[str]:
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                targets.add(node.module.split(".")[0])
            else:  # from . import x
                targets.update(alias.name for alias in node.names)
    return targets


def test_modules_import_only_earlier_layers():
    package = Path(ctmoments.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER_ORDER)
    for name in LAYER_ORDER:
        for target in _relative_imports(package / f"{name}.py"):
            assert LAYER_ORDER.index(target) < LAYER_ORDER.index(name), (name, target)


def test_all_is_the_public_surface():
    # __all__ names exactly the public non-module attributes, so a removal
    # that leaves an import behind, or an import missing from __all__, fails
    assert all(hasattr(ctmoments, name) for name in ctmoments.__all__)
    public = {name for name, value in vars(ctmoments).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(ctmoments.__all__)
