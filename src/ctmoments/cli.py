"""Command-line interface: state generation, batch analysis, threshold search.

Exit codes: 0 success, 2 input/parameter error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import criteria, io, states
from .errors import CtmError, NonScalarFamily


def _seed() -> int:
    return int(os.environ.get("CTM_SEED", "0"))


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CtmError(f"cannot parse dims {text!r}; expected e.g. '2,2'") from None
    if not dims or any(d < 2 for d in dims):
        raise CtmError(f"dims must all be >= 2, got {dims}")
    return dims


def _build_family(args) -> tuple["states.DensityMatrix", dict]:
    family = args.family
    params: dict = {}
    if family == "werner":
        if args.d is None or args.x is None:
            raise CtmError("werner requires --d and --x")
        rho = states.werner(args.d, args.x)
        params = {"d": args.d, "x": args.x}
    elif family in ("tiles-ppt", "tiles"):
        rho = states.tiles_ppt()
    elif family == "ghz":
        if args.n is None:
            raise CtmError("ghz requires --n")
        rho = states.ghz(args.n)
        params = {"n": args.n}
    elif family == "w":
        if args.n is None:
            raise CtmError("w requires --n")
        rho = states.w_state(args.n)
        params = {"n": args.n}
    elif family == "bell":
        rho = states.bell()
    elif family == "maximally-mixed":
        if args.dims is None:
            raise CtmError("maximally-mixed requires --dims")
        dims = _parse_dims(args.dims)
        rho = states.maximally_mixed(dims)
        params = {"dims": list(dims)}
    elif family == "pure-product":
        if args.dims is None:
            raise CtmError("pure-product requires --dims")
        dims = _parse_dims(args.dims)
        rng = np.random.default_rng(_seed())
        rho = states.random_pure_product(dims, rng)
        params = {"dims": list(dims), "seed": _seed()}
    else:
        raise CtmError(f"unknown family {family!r}")
    if args.noise is not None:
        rho = states.mix_white_noise(rho, args.noise)
        params["noise"] = args.noise
    return rho, {"family": family, "params": params}


def cmd_generate(args) -> int:
    rho, meta = _build_family(args)
    io.save_state(args.output, rho, meta=meta)
    return 0


def cmd_analyze(args) -> int:
    try:
        rho, meta = io.load_state(args.input)
    except (OSError, io.StateFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = None
    if args.criteria != "all":
        names = [p.strip() for p in args.criteria.split(",") if p.strip()]
    reports = criteria.evaluate_all(rho, tol=args.tol, names=names)
    descriptor = {"path": args.input, "dims": list(rho.dims)}
    if meta is not None:
        descriptor["meta"] = meta
    payload = io.report_to_dict(descriptor, args.tol, reports)
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def criterion_margin(rho, name, tol) -> float:
    """Detection margin: positive means the named criterion flags rho."""
    (report,) = criteria.evaluate_all(rho, tol, names=[name])
    return report.margin - tol


def find_threshold(
    state_at, criterion, lo, hi, tol=criteria.DEFAULT_TOL,
    precision=1e-5, coarse_step=1e-2,
):
    """Bracket sign changes of the margin on a coarse grid, then bisect.

    Returns (crossings, brackets): refined crossing points and the coarse
    brackets they came from. state_at maps the scalar parameter to a state.
    """
    n_steps = int(round((hi - lo) / coarse_step))
    xs = np.linspace(lo, hi, n_steps + 1)
    gs = [criterion_margin(state_at(x), criterion, tol) for x in xs]
    crossings, brackets = [], []
    for i in range(n_steps):
        if (gs[i] > 0) == (gs[i + 1] > 0):
            continue
        a, b, ga = float(xs[i]), float(xs[i + 1]), gs[i]
        brackets.append((a, b))
        while b - a > precision:
            mid = 0.5 * (a + b)
            gm = criterion_margin(state_at(mid), criterion, tol)
            if (gm > 0) == (ga > 0):
                a, ga = mid, gm
            else:
                b = mid
        crossings.append(0.5 * (a + b))
    return crossings, brackets


def cmd_threshold(args) -> int:
    family = args.family
    if family in ("tiles-noise", "tiles"):
        lo, hi = 0.0, 1.0
        tiles = states.tiles_ppt()
        state_at = lambda x: states.mix_white_noise(tiles, x)
        params = {}
    elif family == "werner":
        if args.d is None:
            raise CtmError("werner requires --d")
        lo, hi = -1.0, 1.0
        d = args.d
        state_at = lambda x: states.werner(d, x)
        params = {"d": d}
    else:
        raise NonScalarFamily(
            f"family {family!r} has no scalar sweep parameter; "
            "use 'tiles-noise' or 'werner'"
        )
    if args.precision < 1e-8:
        raise CtmError(f"precision must be >= 1e-8, got {args.precision}")
    crossings, brackets = find_threshold(
        state_at, args.criterion, lo, hi, tol=args.tol, precision=args.precision
    )
    threshold = crossings[0] if len(crossings) == 1 else None
    if len(crossings) > 1:
        print(
            f"warning: margin crosses zero in {len(brackets)} brackets: "
            f"{brackets}; no single threshold reported",
            file=sys.stderr,
        )
    payload = {
        "family": family,
        "params": params,
        "criterion": args.criterion,
        "precision": args.precision,
        "threshold": threshold,
        "crossings": crossings,
        "brackets": [list(b) for b in brackets],
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmoments",
        description="Entanglement detection via correlation-tensor moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a state file for a named family")
    gen.add_argument("--family", required=True, choices=states.FAMILY_NAMES)
    gen.add_argument("--d", type=int, help="subsystem dimension (werner)")
    gen.add_argument("--x", type=float, help="werner mixing parameter")
    gen.add_argument("--n", type=int, help="number of parties (ghz, w)")
    gen.add_argument("--dims", help="comma-separated dims (mixed/product families)")
    gen.add_argument("--noise", type=float, help="white-noise level x in [0, 1]")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(fn=cmd_generate)

    ana = sub.add_parser("analyze", help="evaluate criteria on a state file")
    ana.add_argument("input")
    ana.add_argument("--criteria", default="all",
                     help="'all' or a comma-separated list of criterion names")
    ana.add_argument("--tol", type=float, default=criteria.DEFAULT_TOL)
    ana.add_argument("--output", help="write the JSON report here instead of stdout")
    ana.set_defaults(fn=cmd_analyze)

    thr = sub.add_parser("threshold",
                         help="locate the detection threshold of a noise family")
    thr.add_argument("--family", required=True,
                     help="'tiles-noise' or 'werner'")
    thr.add_argument("--criterion", required=True)
    thr.add_argument("--d", type=int, help="subsystem dimension (werner)")
    thr.add_argument("--precision", type=float, default=1e-5)
    thr.add_argument("--tol", type=float, default=criteria.DEFAULT_TOL)
    thr.set_defaults(fn=cmd_threshold)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CtmError, io.StateFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
