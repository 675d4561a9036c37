"""Print one md5 over what the package outputs, to compare two trees byte for byte.

    python3 tools/same_outputs.py

Runs in-process, on the package under this tree's src/, in a temporary
directory: `generate` for every family, with and without --noise;
`analyze` of each generated file at the default tol and at --tol 0;
`threshold` for every family and each of CRITERIA; and the repr of
seeded evaluate_all and find_threshold results. Each command's argv,
exit code, stdout, stderr and written file enter the digest. A command
that exits non-zero is recorded, not fatal; an exception stops the
script with a non-zero exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ctmoments import cli, evaluate_all, states  # noqa: E402

# the flags of each family's settings; a family missing here is a KeyError
SETTINGS = {
    "werner": [["--d", "2"], ["--d", "3"], ["--d", "4"]],
    "tiles-ppt": [[]],
    "ghz": [["--n", "3"]],
    "w": [["--n", "3"], ["--n", "4"]],
    "pure-product": [["--dims", "2,3"]],
    "maximally-mixed": [["--dims", "2,2"]],
    "bell": [[]],
}
CRITERIA = ("ppt", "ccnr", "dv", "li", "thm1-plain", "thm2-canonical")
SWEEP = CRITERIA + ("thm1-canonical", "thm2-plain")
NOISE = "0.37"
SEED = 83


def run_cli(argv: list[str], written: str | None = None) -> str:
    """repr of (argv, exit code, stdout, stderr, the written file's text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    text = Path(written).read_text() if written and os.path.exists(written) else None
    return repr((argv, code, out.getvalue(), err.getvalue(), text))


def cli_records() -> list[str]:
    records = []
    for family in states.FAMILIES:
        for k, flags in enumerate(SETTINGS[family]):
            base = ["--family", family, *flags]
            for noise in ([], ["--noise", NOISE]):
                name = f"{family}-{k}{'-noisy' if noise else ''}.json"
                extra = ["--x", "0.3"] if family == "werner" else []
                records.append(run_cli(["generate", *base, *extra, *noise, "-o", name], name))
                for tol in ([], ["--tol", "0"]):
                    records.append(run_cli(["analyze", name, *tol]))
            for criterion in CRITERIA:
                records.append(run_cli(["threshold", *base, "--criterion", criterion]))
    return records


def seeded_records() -> list[str]:
    rng = np.random.default_rng(SEED)
    records = []
    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        for make in (states.random_density, states.random_separable):
            for _ in range(3):
                records.append(repr(evaluate_all(make(dims, rng))))
    sweeps = [((lambda x, d=d: states.werner(d, x)), -1.0, 1.0) for d in (2, 3, 4)]
    for dims in ((2, 2), (3, 3)):
        base = states.random_density(dims, rng)
        sweeps.append(((lambda x, base=base: states.mix_white_noise(base, x)), 0.0, 1.0))
    for state_at, lo, hi in sweeps:
        for criterion in SWEEP:
            records.append(repr(cli.find_threshold(state_at, criterion, lo, hi)))
    return records


def main() -> int:
    os.environ["CTM_SEED"] = "0"  # pure-product's seed
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # analyze reports the path it was given: keep it relative
        try:
            records = cli_records() + seeded_records()
        finally:
            os.chdir(home)
    digest = hashlib.md5("\n".join(records).encode()).hexdigest()
    print(f"{digest}  {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
