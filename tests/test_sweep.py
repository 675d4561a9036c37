"""The threshold search scores its coarse grid as stacked analyses: it must
find exactly what a one-state-at-a-time search finds, and stay cheap."""

from math import ceil, log2

import numpy as np
import pytest

from ctmoments import DensityMatrix, criteria, evaluate_all, states
from ctmoments.cli import COARSE_STEP, criterion_margin, find_threshold
from ctmoments.criteria import DEFAULT_TOL
from ctmoments.errors import InvalidDimension

SWEEP_CRITERIA = ("ppt", "ccnr", "dv", "li", "thm1-plain", "thm1-canonical",
                  "thm2-plain", "thm2-canonical")


def reference_grid(state_at, names, lo, hi):
    """find_threshold's coarse grid, each state scored once for every name by
    its own evaluate_all: {name: margin - tol per grid point}."""
    n_steps = max(1, int(round((hi - lo) / COARSE_STEP)))
    xs = np.linspace(lo, hi, n_steps + 1)
    rows = [evaluate_all(state_at(x), DEFAULT_TOL, list(names)) for x in xs]
    return xs, {name: [row[k].margin - DEFAULT_TOL for row in rows]
                for k, name in enumerate(names)}


def reference_search(state_at, criterion, xs, gs, precision=1e-5):
    """find_threshold's brackets and bisection on a reference grid, one
    criterion_margin per bisection state."""
    crossings, brackets = [], []
    for i in range(len(xs) - 1):
        if (gs[i] > 0) == (gs[i + 1] > 0):
            continue
        a, b, ga = float(xs[i]), float(xs[i + 1]), gs[i]
        brackets.append((a, b))
        while b - a > precision:
            mid = 0.5 * (a + b)
            gm = criterion_margin(state_at(mid), criterion, DEFAULT_TOL)
            if (gm > 0) == (ga > 0):
                a, ga = mid, gm
            else:
                b = mid
        crossings.append(0.5 * (a + b))
    return crossings, brackets


def pure(dims, seed):
    v = states.random_pure_state(int(np.prod(dims)), np.random.default_rng(seed))
    return DensityMatrix(dims, np.outer(v, v.conj()))


def noise_family(rho):
    return (lambda x: states.mix_white_noise(rho, x)), 0.0, 1.0


def werner_family(d):
    return (lambda x: states.werner(d, x)), -1.0, 1.0


FAMILIES = {
    "tiles-ppt": (lambda: noise_family(states.tiles_ppt()), SWEEP_CRITERIA),
    **{f"werner-{d}": (lambda d=d: werner_family(d), SWEEP_CRITERIA) for d in (2, 3, 4)},
    **{f"pure-{dims}": (lambda dims=dims: noise_family(pure(dims, 100 + sum(dims))),
                        SWEEP_CRITERIA)
       for dims in ((2, 2), (2, 3), (3, 3), (4, 4))},
    "ghz-3": (lambda: noise_family(states.ghz(3)),
              ("dv", "li", "thm3-plain", "thm3-canonical")),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_grid_search_matches_one_state_at_a_time(family):
    make, names = FAMILIES[family]
    state_at, lo, hi = make()
    xs, margins = reference_grid(state_at, names, lo, hi)
    for name in names:
        assert find_threshold(state_at, name, lo, hi) == \
            reference_search(state_at, name, xs, margins[name]), name


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5),
                                  (2, 2, 2), (3, 3, 3)])
def test_stacked_rows_match_evaluate_all(dims):
    rng = np.random.default_rng(sum(dims))
    rhos = [states.random_density(dims, rng), states.random_separable(dims, rng),
            states.random_pure_product(dims, rng), pure(dims, 7),
            states.mix_white_noise(pure(dims, 8), 0.6)]
    rows = criteria._evaluate(rhos, DEFAULT_TOL, None)
    assert len(rows) == len(rhos)
    for rho, row in zip(rhos, rows):
        assert [r.to_dict() for r in row] == [r.to_dict() for r in evaluate_all(rho)]


def test_grid_block_of_mixed_dims_raises():
    # one stacked analysis of a (2, 3) and a (3, 2) state would score the
    # second as (2, 3), a different state with a different ppt margin
    rng = np.random.default_rng(5)
    low, high = states.random_density((2, 3), rng), states.random_density((3, 2), rng)

    def state_at(x):
        return states.mix_white_noise(low if x < 0.5 else high, x)

    with pytest.raises(InvalidDimension, match="share dims"):
        find_threshold(state_at, "ppt", 0.0, 1.0)


def test_swept_states_need_no_eigensolver(monkeypatch):
    bases = [states.tiles_ppt(), pure((2, 3), 1), states.ghz(3)]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for x in np.linspace(0.0, 1.0, 11):
        for base in bases:
            states.mix_white_noise(base, x)
        states.mix_white_noise(states.mix_white_noise(bases[0], 0.5), x)
    for d in (2, 3, 4):
        for x in np.linspace(-1.0, 1.0, 11):
            states.werner(d, x)
    assert calls == []


def test_tiles_search_builds_one_analysis_per_block_and_bisection(monkeypatch):
    built = []

    class Counted(criteria._Analysis):
        def __init__(self, dims, mat):
            built.append(len(mat))
            super().__init__(dims, mat)

    monkeypatch.setattr(criteria, "_Analysis", Counted)
    tiles = states.tiles_ppt()
    crossings, brackets = find_threshold(
        lambda x: states.mix_white_noise(tiles, x), "li", 0.0, 1.0)
    assert len(brackets) == 1 and abs(crossings[0] - 0.89252) < 1e-5
    bisections = ceil(log2(COARSE_STEP / 1e-5))
    assert built == [64, 37] + [1] * bisections


def test_thm2_search_runs_one_recurrence_per_block_and_bisection(monkeypatch):
    # one tensor named: its rows (8 values at (3, 3)) are zero-padded to the
    # canonical width 9, as when both are named
    calls = []
    required_a1 = criteria._required_a1

    def counted(s, steps):
        calls.append(s.shape)
        return required_a1(s, steps)

    monkeypatch.setattr(criteria, "_required_a1", counted)
    tiles = states.tiles_ppt()
    crossings, brackets = find_threshold(
        lambda x: states.mix_white_noise(tiles, x), "thm2-plain", 0.0, 1.0)
    assert len(brackets) == 1 and abs(crossings[0] - 0.94929) < 1e-5
    bisections = ceil(log2(COARSE_STEP / 1e-5))
    assert calls == [(64, 9), (37, 9)] + [(1, 9)] * bisections
