"""Command-line interface: state generation, batch analysis, threshold search.

Exit codes: 0 success, 2 input/parameter error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from itertools import chain
from math import isfinite

import numpy as np

from . import criteria, io, states
from .errors import CtmError, ParamOutOfRange

COARSE_STEP = 1e-2  # find_threshold's grid step before refinement
SECANT_ROUNDS = 4  # secant pairs per bracket before find_threshold bisects
_MIN_PRECISION = 1e-8


def _seed() -> int:
    text = os.environ.get("CTM_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise CtmError(f"CTM_SEED must be an integer >= 0, got {text!r}")
    return seed


def _family_params(args, names) -> dict:
    """Values of the named family parameters: their flags, CTM_SEED for seed."""
    params = {p: _seed() if p == "seed" else getattr(args, p) for p in names}
    missing = [f"--{p}" for p, value in params.items() if value is None]
    if missing:
        raise CtmError(f"{args.family} requires {' and '.join(missing)}")
    if "dims" in params:
        try:
            params["dims"] = tuple(int(p) for p in params["dims"].split(","))
        except ValueError:
            raise CtmError(f"cannot parse dims {params['dims']!r}; expected e.g. '2,2'") from None
    return params


def cmd_generate(args) -> int:
    build = states.FAMILIES[args.family]
    params = _family_params(args, inspect.signature(build).parameters)
    rho = build(**params)
    if args.noise is not None:
        rho = states.mix_white_noise(rho, args.noise)
        params["noise"] = args.noise
    io.save_state(args.output, rho, meta={"family": args.family, "params": params})
    return 0


def cmd_analyze(args) -> int:
    rho, meta = io.load_state(args.input)
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
    (margin,) = criteria._margins([rho], tol, name, rho.dims)
    return margin


def find_threshold(
    state_at, criterion, lo, hi, tol=criteria.DEFAULT_TOL, precision=1e-5
):
    """Bracket sign changes of the margin on a coarse grid, then refine each.

    Returns (crossings, brackets): refined crossing points and the coarse
    brackets they came from. state_at maps the scalar parameter to a state;
    every state scored, grid or refinement, must have the dims of the grid's
    first state (else InvalidDimension). Each bracket is refined by secant
    estimates, each checked with one stacked pair of states, and after
    SECANT_ROUNDS rounds by bisection one state at a time; every crossing
    lies within precision / 2 of a sign change of the margin.
    """
    if not (isfinite(lo) and isfinite(hi) and lo < hi):
        raise ParamOutOfRange(f"need finite lo < hi, got lo = {lo}, hi = {hi}")
    if not (isfinite(precision) and precision >= _MIN_PRECISION):
        raise ParamOutOfRange(
            f"precision must be finite and >= {_MIN_PRECISION}, got {precision}")
    n_steps = max(1, int(round((hi - lo) / COARSE_STEP)))
    xs = np.linspace(lo, hi, n_steps + 1).tolist()
    first = state_at(xs[0])  # fixes the dims of every state scored

    def score(points, *rhos):
        return criteria._margins(chain(rhos, map(state_at, points)), tol, criterion, first.dims)

    gs = score(xs[1:], first)
    crossings, brackets = [], []
    for i in range(n_steps):
        if (gs[i] > 0) != (gs[i + 1] > 0):
            brackets.append((xs[i], xs[i + 1]))
            crossings.append(_refine(score, precision, xs[i], xs[i + 1], gs[i], gs[i + 1]))
    return crossings, brackets


def _refine(score, precision, a, b, ga, gb) -> float:
    """A point within precision / 2 of a sign change of the margin in [a, b],
    whose ends have the margins ga and gb of opposite signs; score maps a
    list of points to their margins, scored as one stacked analysis.

    The first SECANT_ROUNDS rounds score x - h and x + h, h = precision / 2,
    around the secant estimate x through the ends, clamped to [a + h, b - h];
    later rounds score the midpoint x alone. x is returned if the first and
    last margins differ in sign, else the end on their side moves to the
    nearer point. The ends' signs differ, so the secant is always defined.
    """
    h, rounds = 0.5 * precision, 0
    while b - a > precision:
        rounds += 1
        if rounds <= SECANT_ROUNDS:
            x = min(max(a - ga * (b - a) / (gb - ga), a + h), b - h)
            # (a + h) - h may round below a, which may be the range's end
            points = [max(x - h, a), min(x + h, b)]
        else:
            x = 0.5 * (a + b)
            points = [x]
        gs = score(points)
        if (gs[0] > 0) != (gs[-1] > 0):
            return x
        if (gs[0] > 0) == (ga > 0):
            a, ga = points[-1], gs[-1]
        else:
            b, gb = points[0], gs[0]
    return 0.5 * (a + b)


def cmd_threshold(args) -> int:
    build = states.FAMILIES[args.family]
    names = inspect.signature(build).parameters
    if "x" in names:  # werner: its own parameter x, over [-1, 1], where
        # werner(d, x) = s werner(d, -1) + (1 - s) I/D with s = (1 - d x)/(1 + d)
        params = _family_params(args, [p for p in names if p != "x"])
        lo, hi, d = -1.0, 1.0, params["d"]
        at = lambda x: build(**params, x=x)
        extreme, to_x = at(lo), lambda s: (1 - (d + 1) * s) / d
    else:  # any other family: its white-noise level, from the one base state
        params = _family_params(args, names)
        extreme, lo, hi = build(**params), 0.0, 1.0
        at = lambda x: states.mix_white_noise(extreme, x)
        to_x = lambda s: s
    scored = []

    def state_at(x):
        scored.append(x)
        return at(x)

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
    s_star = criteria._noise_crossing(extreme, args.criterion, args.tol)
    payload = {
        "family": args.family,
        "params": params,
        "criterion": args.criterion,
        "precision": args.precision,
        "threshold": threshold,
        "crossings": crossings,
        "brackets": [list(b) for b in brackets],
        "evaluations": len(scored),
        "closed_form": None if s_star is None else to_x(s_star),
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmoments",
        description="Entanglement detection via correlation-tensor moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_flags(p):
        p.add_argument("--family", required=True, choices=states.FAMILIES)
        p.add_argument("--d", type=int, help="subsystem dimension (werner)")
        p.add_argument("--n", type=int, help="number of parties (ghz, w)")
        p.add_argument("--dims", help="comma-separated dims (mixed/product families)")

    gen = sub.add_parser("generate", help="write a state file for a named family")
    family_flags(gen)
    gen.add_argument("--x", type=float, help="werner mixing parameter")
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

    thr = sub.add_parser(
        "threshold",
        help="locate a detection threshold: werner along x, any other family "
        "under white noise",
    )
    family_flags(thr)
    thr.add_argument("--criterion", required=True)
    thr.add_argument("--precision", type=float, default=1e-5)
    thr.add_argument("--tol", type=float, default=criteria.DEFAULT_TOL)
    thr.set_defaults(fn=cmd_threshold)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CtmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
