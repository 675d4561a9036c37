"""The threshold search scores its coarse grid as stacked analyses and
refines each bracket with stacked secant pairs: it must find the brackets a
one-state-at-a-time search finds, crossings within its precision, and stay
cheap."""

from math import ceil, log2

import numpy as np
import pytest

from ctmoments import DensityMatrix, cli, criteria, evaluate_all, linalg, states
from ctmoments.cli import COARSE_STEP, SECANT_ROUNDS, criterion_margin, find_threshold
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
    """The brackets of a reference grid, each bisected to precision with one
    criterion_margin per state: the search before its secant pairs."""
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
    # the grid and its brackets are the reference's; the refinement may land
    # elsewhere in the bracket, but within precision of the reference's
    # crossing and with a sign change of the margin within precision / 2
    make, names = FAMILIES[family]
    state_at, lo, hi = make()
    xs, margins = reference_grid(state_at, names, lo, hi)
    precision = 1e-5
    for name in names:
        crossings, brackets = find_threshold(state_at, name, lo, hi, precision=precision)
        want, want_brackets = reference_search(state_at, name, xs, margins[name], precision)
        assert brackets == want_brackets, name
        assert len(crossings) == len(want), name
        for c, w in zip(crossings, want):
            assert abs(c - w) <= precision, (name, c, w)
            g_left, g_right = (
                criterion_margin(state_at(min(max(c + dx, lo), hi)), name, DEFAULT_TOL)
                for dx in (-0.51 * precision, 0.51 * precision))
            assert (g_left > 0) != (g_right > 0), (name, c)


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


def test_later_stack_of_other_dims_raises():
    # the grid's first stack holds the 64 states below 0.64, all (2, 2): the
    # second stack, all (3, 3), must be refused too
    low, high = states.maximally_mixed((2, 2)), states.maximally_mixed((3, 3))
    with pytest.raises(InvalidDimension, match="share dims"):
        find_threshold(lambda x: low if x < 0.64 else high, "dv", 0.0, 1.0)
    # the 201 grid states are werner(2), the refinement's werner(3): a
    # bracket's states must have the grid's dims as well
    scored = []

    def state_at(x):
        scored.append(x)
        return states.werner(2 if len(scored) <= 201 else 3, x)

    with pytest.raises(InvalidDimension, match="share dims"):
        find_threshold(state_at, "dv", -1.0, 1.0)
    assert len(scored) > 201


@pytest.mark.parametrize("name", ["ppt", "thm2-canonical"])
def test_stacks_stay_within_the_byte_limit(monkeypatch, name):
    # a (2, 2) matrix takes 16 * 4^2 = 256 bytes, so a limit of 64 * 256 * 5
    # bytes leaves 5 states a stack; the crossings never depend on the stack
    werner2 = lambda x: states.werner(2, x)
    expected = find_threshold(werner2, name, -1.0, 1.0)
    sizes = []
    columns = criteria._columns

    def counted(rhos, *args):
        sizes.append(len(rhos))
        return columns(rhos, *args)

    monkeypatch.setattr(criteria, "_columns", counted)
    monkeypatch.setattr(linalg, "_MAX_BYTES", 64 * 256 * 5)
    assert find_threshold(werner2, name, -1.0, 1.0) == expected
    assert max(sizes) == 5 and sizes[:41] == [5] * 40 + [1]


def test_swept_states_need_no_eigensolver(monkeypatch):
    # nor do they measure their Hermiticity or scale: only each werner end,
    # built once per d, is measured
    bases = [states.tiles_ppt(), pure((2, 3), 1), states.ghz(3)]
    calls, checks = [], []
    eigvalsh, check_hermitian = np.linalg.eigvalsh, linalg._check_hermitian

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    def checked(m, *args):
        checks.append(np.shape(m))
        return check_hermitian(m, *args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(linalg, "_check_hermitian", checked)
    states._werner_end.cache_clear()
    for x in np.linspace(0.0, 1.0, 11):
        for base in bases:
            states.mix_white_noise(base, x)
        states.mix_white_noise(states.mix_white_noise(bases[0], 0.5), x)
    for d in (2, 3, 4):
        for x in np.linspace(-1.0, 1.0, 11):
            states.werner(d, x)
    assert calls == []
    assert checks == [(4, 4), (9, 9), (16, 16)]


@pytest.mark.parametrize("family", ["werner-3", "tiles-noise"])
def test_a_segment_search_builds_no_swept_matrix(family):
    tiles = states.tiles_ppt()
    make, lo, hi = ((lambda x: states.werner(3, x)), -1.0, 1.0)
    if family == "tiles-noise":
        make, lo, hi = noise_family(tiles)
    for name in SWEEP_CRITERIA:
        returned = []

        def state_at(x):
            returned.append(make(x))
            return returned[-1]

        find_threshold(state_at, name, lo, hi)
        assert len(returned) > 100  # the grid and any refinement
        assert [rho for rho in returned if "mat" in vars(rho)] == []


def test_plain_weights_on_a_segment_interpolate_no_tensor():
    end, s = states.tiles_ppt(), np.linspace(-0.5, 1.0, 5)
    a = criteria._Analysis(end.dims, end.mat[None], (criteria._PLAIN,), s)
    for name in ("dv", "thm1-plain", "thm2-plain", "thm3-plain"):
        _, test, weight = criteria._REGISTRY[name]
        test(weight, a)
    assert a._extended is None  # T of the states is |s| times end's
    a.spectrum(criteria._CANONICAL, 1)
    assert a._extended.entries.shape == (5, 9, 9)


def test_tiles_search_builds_one_analysis_per_block_and_secant_pair(monkeypatch):
    built = []

    class Counted(criteria._Analysis):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.n)

    monkeypatch.setattr(criteria, "_Analysis", Counted)
    tiles = states.tiles_ppt()
    crossings, brackets = find_threshold(
        lambda x: states.mix_white_noise(tiles, x), "li", 0.0, 1.0)
    assert len(brackets) == 1 and abs(crossings[0] - 0.89252) < 1e-5
    # li's margin is nearly affine across the bracket: the first secant
    # pair straddles the crossing
    assert built == [64, 37, 2]


# every CLI family's sweep, plus nested mixtures: white noise on a noisy
# state and on a werner state, whose segments compose
SEGMENT_FAMILIES = {
    "tiles-ppt": lambda: noise_family(states.tiles_ppt()),
    "bell": lambda: noise_family(states.bell()),
    "ghz-3": lambda: noise_family(states.ghz(3)),
    "w-4": lambda: noise_family(states.w_state(4)),
    "pure-product": lambda: noise_family(states.FAMILIES["pure-product"]((2, 3), 0)),
    **{f"werner-{d}": (lambda d=d: werner_family(d)) for d in (2, 3, 4, 5)},
    "nested-tiles": lambda: noise_family(states.mix_white_noise(states.tiles_ppt(), 0.9)),
    "noisy-werner-3": lambda: noise_family(states.werner(3, 0.8)),
}
# a segment stack's margins equal the matrix path's to SEGMENT_ULPS * D * eps;
# the worst case measured over SEGMENT_FAMILIES was 0.75 D eps
SEGMENT_ULPS = 2


@pytest.mark.parametrize("family", SEGMENT_FAMILIES)
def test_segment_margins_match_the_matrix_path(family):
    state_at, lo, hi = SEGMENT_FAMILIES[family]()
    xs = np.linspace(lo, hi, int(round((hi - lo) / COARSE_STEP)) + 1).tolist()
    rhos = [state_at(x) for x in xs]
    dims, bound = rhos[0].dims, SEGMENT_ULPS * rhos[0].dim * np.finfo(float).eps
    end, s = criteria._common_segment(rhos)
    assert end._segment is None and np.all(np.abs(s) <= 1)
    if family.startswith("werner"):  # beyond x = 1/d, s < 0: ppt reads lambda_max
        assert s.min() < 0 < s.max()
    for name, (bipartite_only, _, _) in criteria._REGISTRY.items():
        if bipartite_only and len(dims) != 2:
            continue
        got = criteria._margins(rhos, DEFAULT_TOL, name, dims)
        want = [r.margin - DEFAULT_TOL for (r,) in criteria._evaluate(rhos, DEFAULT_TOL, [name])]
        for x, g, w in zip(xs, got, want):
            assert abs(g - w) <= bound and (g > 0) == (w > 0), (name, x, g, w)


def test_nested_mixtures_compose_their_segment():
    tiles = states.tiles_ppt()
    for a, b in [(0.5, 0.3), (0.9, 0.7), (1.0, 0.0)]:
        inner = states.mix_white_noise(tiles, a)
        outer = states.mix_white_noise(inner, b)
        assert inner._segment[0] is tiles and inner._segment[1] == a
        assert outer._segment[0] is tiles and outer._segment[1] == a * b
    end, s = states.werner(3, 0.5)._segment
    assert end is states._werner_end(3) and s == (1 - 3 * 0.5) / 4
    noisy = states.mix_white_noise(states.werner(3, 0.5), 0.4)
    assert noisy._segment[0] is end and noisy._segment[1] == 0.4 * s


def test_stack_of_two_ends_takes_the_matrix_path(monkeypatch):
    # equal ends that are not one object: the stack is scored from its
    # matrices, bit-identical to evaluate_all
    ends = states.tiles_ppt(), states.tiles_ppt()
    xs = np.linspace(0.0, 1.0, 101).tolist()
    rhos = [states.mix_white_noise(ends[k % 2], x) for k, x in enumerate(xs)]
    assert criteria._common_segment(rhos) is None
    assert criteria._common_segment([rhos[0], DensityMatrix((3, 3), rhos[0].mat)]) is None
    built = []

    class Counted(criteria._Analysis):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.s)

    monkeypatch.setattr(criteria, "_Analysis", Counted)
    for name in SWEEP_CRITERIA:
        got = criteria._margins(rhos, DEFAULT_TOL, name, (3, 3))
        want = [r.margin - DEFAULT_TOL for (r,) in criteria._evaluate(rhos, DEFAULT_TOL, [name])]
        assert got == want, name
    assert built and all(s is None for s in built)


def test_thm2_search_runs_one_recurrence_per_block_and_secant_pair(monkeypatch):
    # one tensor named: its rows (8 values at (3, 3)) are zero-padded to the
    # canonical width 9, as when both are named
    calls = []
    required_a1 = criteria._required_a1

    def counted(s, a1, steps):
        calls.append(s.shape)
        return required_a1(s, a1, steps)

    monkeypatch.setattr(criteria, "_required_a1", counted)
    tiles = states.tiles_ppt()
    crossings, brackets = find_threshold(
        lambda x: states.mix_white_noise(tiles, x), "thm2-plain", 0.0, 1.0)
    assert len(brackets) == 1 and abs(crossings[0] - 0.94929) < 1e-5
    assert calls == [(64, 9), (37, 9), (2, 9)]


def test_margin_step_falls_back_to_bisection(monkeypatch):
    # ppt's margin jumps from +0.25 to -0.25 inside the grid cell [0.42,
    # 0.43]: no secant pair straddles the jump, so the search bisects what
    # its SECANT_ROUNDS pairs leave, one state per step through the same
    # criteria._margins call, and still lands within precision / 2
    step, precision = 0.4237, 1e-5
    entangled, separable = states.werner(2, -0.5), states.werner(2, 0.5)
    scored, sizes = [], []
    columns = criteria._columns

    def counted(rhos, *args):
        sizes.append(len(rhos))
        return columns(rhos, *args)

    def state_at(x):
        scored.append(x)
        return entangled if x < step else separable

    monkeypatch.setattr(criteria, "_columns", counted)
    crossings, brackets = find_threshold(state_at, "ppt", 0.0, 1.0, precision=precision)
    assert brackets == [(0.42, 0.43)] and len(crossings) == 1
    assert abs(crossings[0] - step) <= precision / 2
    grid = int(round(1 / COARSE_STEP)) + 1
    bisections = sizes.count(1)
    assert bisections and len(scored) == grid + 2 * SECANT_ROUNDS + bisections
    assert len(scored) <= grid + 2 * SECANT_ROUNDS + ceil(log2(COARSE_STEP / precision))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)])
def test_noise_crossing_follows_the_registry_row(dims):
    # white noise scales T, T(s) = s T(1), and keeps lambda_min(rho^Gamma)
    # affine in s: every row on T and ppt have the closed-form crossing of a
    # tol = 0 search, and every other row has none, flagged or not
    rng = np.random.default_rng(len(dims) * 10 + dims[-1])
    precision = 1e-8
    for _ in range(4):
        psi = states.random_pure_state(int(np.prod(dims)), rng)
        base = DensityMatrix(dims, np.outer(psi, psi.conj()))
        for name, (bipartite_only, test, weight) in criteria._REGISTRY.items():
            if bipartite_only and len(dims) != 2:
                continue
            closed_form = criteria._noise_crossing(base, name, 0.0)
            if weight is not criteria._PLAIN and test is not criteria._ppt:
                assert closed_form is None, name
                continue
            crossings, _ = find_threshold(lambda x: states.mix_white_noise(base, x), name,
                                          0.0, 1.0, tol=0.0, precision=precision)
            assert closed_form is not None and len(crossings) == 1, name
            assert abs(crossings[0] - closed_form) <= precision / 2, (name, crossings)
