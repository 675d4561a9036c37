"""Theorem 2 as a least-squares bound on a_1.

B_l(beta) = [a_{m+n+1}] with a_1 replaced by beta is PSD exactly when
beta >= v^T G^+ v, where G = [a_{i+j+1}] and v = [a_{j+1}] for
i, j = 1..l (Schur complement of the corner entry). criteria._required_a1
computes that value by a Lanczos recurrence; these tests hold it to exact
rational arithmetic, to the eigenvalues of the Hankel matrices it
replaces, and to the chain a2^2 / a3 <= required_a1 <= a_1.
"""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctmoments import (
    DensityMatrix,
    criteria,
    dv_bound,
    evaluate_all,
    li_bound,
    mix_white_noise,
    moments_of_state,
    theorem2,
    tiles_ppt,
)
from ctmoments.cli import find_threshold
from ctmoments.criteria import (
    _CANONICAL, _PLAIN, DEFAULT_TOL, _Analysis, _evaluate, _required_a1,
)
from ctmoments.moments import hankel_matrices
from ctmoments.states import random_density, random_pure_product, random_pure_state, werner

RATIONAL_SETS = {
    "distinct": [Fraction(3, 7), Fraction(2, 9), Fraction(1, 5), Fraction(1, 11)],
    "all-equal": [Fraction(1, 3)] * 4,
    "with-zeros": [Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(0), Fraction(1, 8)],
    "spread": [Fraction(9, 10), Fraction(8, 10), Fraction(1, 100), Fraction(1, 1000)],
    # two light nodes leave a small Lanczos residual one step before the end
    "two-light": [Fraction(1), Fraction(1, 2), Fraction(1, 1000), Fraction(1, 2000)],
    "harmonic": [Fraction(1, k) for k in range(2, 14)],
}


def _exact_required(sigmas, l):
    """v^T G^+ v in rational arithmetic.

    v lies in the range of the PSD matrix G, so v^T y is the same for every
    solution y of G y = v; Gauss-Jordan elimination with the free variables
    set to 0 yields one.
    """
    a = [sum(s**k for s in sigmas) for k in range(2 * l + 2)]
    rows = [[a[i + j + 1] for j in range(1, l + 1)] + [a[i + 1]] for i in range(1, l + 1)]
    pivots = []
    r = 0
    for c in range(l):
        p = next((i for i in range(r, l) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i in range(l):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * q for e, q in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    y = [Fraction(0)] * l
    for i, c in enumerate(pivots):
        y[c] = rows[i][l]
    return sum(a[j + 2] * y[j] for j in range(l))


@pytest.mark.parametrize("name", sorted(RATIONAL_SETS))
def test_required_a1_matches_exact_schur_complement(name):
    sigmas = RATIONAL_SETS[name]
    steps = len(sigmas)
    s = np.array([[float(x) for x in sigmas]])
    (got,) = _required_a1(s, s.sum(axis=-1), steps).tolist()
    for l in range(1, steps + 1):
        want = float(_exact_required(sigmas, l))
        assert abs(got[l - 1] - want) <= 1e-12 * want, (name, l, got[l - 1], want)


def test_rational_sets_in_one_zero_padded_stack():
    # zeros carry no weight in mu, so padding a row leaves its answers alone
    width = max(len(sigmas) for sigmas in RATIONAL_SETS.values())
    stack = np.zeros((len(RATIONAL_SETS), width))
    for row, sigmas in zip(stack, RATIONAL_SETS.values()):
        row[:len(sigmas)] = [float(s) for s in sigmas]
    got = _required_a1(stack, stack.sum(axis=-1), width)
    assert got.shape == (len(RATIONAL_SETS), width)
    for (name, sigmas), row in zip(RATIONAL_SETS.items(), got.tolist()):
        for l in range(1, width + 1):
            want = float(_exact_required(sigmas, l))
            assert abs(row[l - 1] - want) <= 1e-12 * want, (name, l, row[l - 1], want)


def _sigma_rows(n, seed):
    """n rows of singular values of the extended tensors of (4, 4) states:
    Ginibre, pure and pure-product (rank 1); then a zero row, an all-equal
    row and a rank-1 row in place of rows 0, n // 2 and n - 1."""
    rng = np.random.default_rng(seed)
    rhos = []
    for k in range(n):
        if k % 3 == 0:
            rhos.append(random_density((4, 4), rng))
        elif k % 3 == 1:
            v = random_pure_state(16, rng)
            rhos.append(DensityMatrix((4, 4), np.outer(v, v.conj())))
        else:
            rhos.append(random_pure_product((4, 4), rng))
    rows = _Analysis((4, 4), np.stack([rho.mat for rho in rhos])).spectrum(_CANONICAL, 1)[0].copy()
    specials = (np.zeros(16), np.full(16, 0.25), np.eye(16)[0] * 0.7)
    for k, row in zip((0, n // 2, n - 1), specials):
        rows[k] = row
    return rows


@pytest.mark.parametrize("n", [1, 64, 130])
def test_stacked_rows_equal_rows_scored_alone(n):
    rows = _sigma_rows(n, n)
    steps = 7
    got = _required_a1(rows, rows.sum(axis=-1), steps)
    assert got.shape == (n, steps)
    for row, want in zip(rows, got):
        assert np.array_equal(_required_a1(row[None], row[None].sum(axis=-1), steps)[0], want)


def test_entries_past_breakdown_read_a1():
    # a row with k distinct nonzero values spans its Krylov space in k steps;
    # from step k on it reads its a_1 exactly, rounding notwithstanding
    rng = np.random.default_rng(5)
    width, steps, per_k = 8, 7, 40
    ks = np.repeat(np.arange(1, 6), per_k)
    rows = np.zeros((len(ks) + 1, width))  # the last row stays 0: k = 0
    for row, k in zip(rows, ks):
        values = rng.random(k)
        row[:] = -np.sort(-values[np.r_[np.arange(k), rng.integers(0, k, width - k)]])
    got = _required_a1(rows, rows.sum(axis=-1), steps).tolist()
    a1 = rows.sum(axis=-1).tolist()
    for row, k, total in zip(got, [*ks.tolist(), 0], a1):
        assert row[k:] == [total] * (steps - k), (k, row)


THM2 = ["thm2-plain", "thm2-canonical"]


@pytest.mark.parametrize("n", [1, 5])
def test_both_thm2_tensors_share_one_recurrence(monkeypatch, n):
    # the plain rows (8 values at (3, 4)) are zero-padded to the canonical 9
    calls = []

    def counted(s, a1, steps):
        calls.append(s.shape)
        return _required_a1(s, a1, steps)

    monkeypatch.setattr(criteria, "_required_a1", counted)
    rng = np.random.default_rng(n)
    rhos = [random_density((3, 4), rng) for _ in range(n)]
    if n == 1:
        evaluate_all(rhos[0])
    else:
        _evaluate(rhos, DEFAULT_TOL, None)
    assert calls == [(2 * n, 9)]


def test_a_thm2_row_added_joins_the_one_recurrence(monkeypatch):
    # thm2's rows are found by their test, not by their names: a third
    # weight (the realigned one) shares the recurrence and leaves the plain
    # report as it is alone
    rho = random_density((3, 3), np.random.default_rng(3))
    (alone,) = evaluate_all(rho, names=["thm2-plain"])
    calls = []

    def counted(s, a1, steps):
        calls.append(s.shape)
        return _required_a1(s, a1, steps)

    monkeypatch.setattr(criteria, "_required_a1", counted)
    monkeypatch.setitem(criteria._REGISTRY, "thm2-realigned",
                        (True, criteria._thm2, criteria._REALIGNED))
    plain, realigned = evaluate_all(rho, names=["thm2-plain", "thm2-realigned"])
    assert calls == [(2, 9)]
    assert plain == alone and realigned.name == "thm2-realigned"


def _thm2_states(dims, n, rng):
    """n states of dims cycling through Ginibre, pure (rank 1), pure product
    and, for two parties of one dimension, werner: the last two break down
    after a few steps."""
    def pure():
        v = random_pure_state(prod(dims), rng)
        return DensityMatrix(dims, np.outer(v, v.conj()))

    makers = [lambda: random_density(dims, rng), pure, lambda: random_pure_product(dims, rng)]
    if len(dims) == 2 and dims[0] == dims[1]:
        makers.append(lambda: werner(dims[0], float(rng.uniform(-1.0, 1.0))))
    return [makers[k % len(makers)]() for k in range(n)]


THM2_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (4, 5), (5, 5)]


@pytest.mark.parametrize("dims", THM2_DIMS)
@pytest.mark.parametrize("n", [1, 64])
def test_naming_both_thm2_tests_matches_naming_each_alone(dims, n):
    rhos = _thm2_states(dims, n, np.random.default_rng(n * 100 + prod(dims)))
    both = _evaluate(rhos, DEFAULT_TOL, THM2)
    alone = [_evaluate(rhos, DEFAULT_TOL, [name]) for name in THM2]
    for k in range(n):
        assert both[k] == [alone[j][k][0] for j in range(2)]


@pytest.mark.parametrize("dims", [*THM2_DIMS, (2, 2, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("n", [1, 16])
def test_names_only_select_reports(dims, n):
    # a report depends only on its state, tol and its own name: row k of a
    # name scored alone equals, bit for bit, its report among the defaults
    # and the report of state k scored by itself; tol = 0 lets any rounding
    # difference flip a verdict
    rhos = _thm2_states(dims, n, np.random.default_rng(n * 1000 + prod(dims)))
    default = _evaluate(rhos, 0.0, None)
    for j, report in enumerate(default[0]):
        alone = _evaluate(rhos, 0.0, [report.name])
        for k, rho in enumerate(rhos):
            assert alone[k] == [default[k][j]] == _evaluate([rho], 0.0, [report.name])[0]


def test_thm2_implies_trace_norm_test_at_zero_tol():
    # thm2 caps required_a1 at the a1 that dv and li compare, so thm2-plain
    # => dv and thm2-canonical => li hold bit for bit, with no tolerance;
    # pure products attain the bounds, so rounding would show here
    rng = np.random.default_rng(3)
    for dims in [(4, 4), (4, 5), (2, 2), (3, 3), (5, 5)]:
        rhos = [random_pure_product(dims, rng) for _ in range(100)]
        for reports in _evaluate(rhos, 0.0, ["thm2-plain", "dv", "thm2-canonical", "li"]):
            for mid, loose in zip(reports[::2], reports[1::2]):
                assert not mid.violated or loose.violated, (dims, mid, loose)
                assert max(mid.detail["required_a1"]) <= loose.quantity, (dims, mid, loose)


@pytest.mark.parametrize("seed,canonical", [(151, False), (152, True)])
def test_5x5_required_a1_matches_exact_arithmetic(seed, canonical):
    # evaluate_all's joint recurrence against exact rationals of the same
    # float sigmas, at the last of 12 steps
    rho = random_density((5, 5), np.random.default_rng(seed))
    (report,) = [r for r in evaluate_all(rho) if r.name == THM2[canonical]]
    a = _Analysis(rho.dims, rho.mat[None])
    (s,) = a.spectrum(_CANONICAL if canonical else _PLAIN, 1)[0].tolist()
    required = report.detail["required_a1"]
    want = float(_exact_required([Fraction(x) for x in s], len(required)))
    assert abs(required[-1] - want) <= 1e-14 * want, (required[-1], want)


def test_required_a1_agrees_with_hankel_eigenvalues():
    # B_l(bound) has a negative eigenvalue exactly when bound < required_a1[l]
    rng = np.random.default_rng(71)
    checked = 0
    for dims in [(2, 2), (2, 3)] * 20:
        rho = random_density(dims, rng)
        for canonical, report in zip((False, True), theorem2(rho)):
            m = moments_of_state(rho, canonical=canonical)
            _, b_hat = hankel_matrices(m, report.bound)
            required = report.detail["required_a1"]
            assert len(required) == len(b_hat)
            for b, req in zip(b_hat, required):
                if abs(req - report.bound) <= 1e-8:
                    continue
                checked += 1
                assert (np.linalg.eigvalsh(b)[0] < 0) == (req > report.bound)
    assert checked > 50


def test_tiles_thresholds_per_order():
    # white noise scales the plain tensor by x, so required_a1 scales by x
    # and B_l(dv_bound) turns indefinite at x = dv_bound / required_a1[l]
    plain, canon = theorem2(tiles_ppt())
    assert plain.bound == plain.detail["substituted_a1"] == dv_bound(3, 3)
    assert canon.bound == canon.detail["substituted_a1"] == li_bound(3, 3)
    thresholds = [dv_bound(3, 3) / r for r in plain.detail["required_a1"]]
    np.testing.assert_allclose(thresholds, [0.98733, 0.96558, 0.95412, 0.94929], atol=1e-5)


def test_tiles_noise_thm2_threshold_is_exact():
    # the l = 4 test reaches the dv threshold, although the least eigenvalue
    # of B_4 there is far below tol * max|B_4|
    base = tiles_ppt()
    crossings, _ = find_threshold(
        lambda x: mix_white_noise(base, x), "thm2-plain", 0.0, 1.0
    )
    assert len(crossings) == 1
    assert abs(crossings[0] - 0.94929) <= 1e-5


@pytest.mark.parametrize(
    "dims,seed,expected",
    [((2, 2), 5, 0.89336), ((2, 3), 3, 0.43428), ((3, 3), 4, 0.30953), ((4, 4), 6, 0.30461)],
)
def test_noise_thm2_threshold_matches_closed_form(dims, seed, expected):
    # white noise scales the plain tensor by x, so every required_a1[l]
    # scales by x and thm2-plain turns on at dv_bound / max_l required_a1
    # of the unmixed state; the bisection must land there, not just
    # anywhere between the dv and thm1 thresholds
    v = random_pure_state(dims[0] * dims[1], np.random.default_rng(seed))
    base = DensityMatrix(dims, np.outer(v, v.conj()))
    plain, _ = theorem2(base)
    closed_form = dv_bound(*dims) / max(plain.detail["required_a1"])
    crossings, _ = find_threshold(
        lambda x: mix_white_noise(base, x), "thm2-plain", 0.0, 1.0
    )
    assert len(crossings) == 1
    assert abs(crossings[0] - closed_form) <= 1e-5
    assert abs(closed_form - expected) <= 1e-5


BIPARTITE = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 4)]


@settings(max_examples=60, deadline=None)
@example(dims=(2, 2), seed=0, rank=2, noise=4.585227385126577e-79)
@example(dims=(2, 2), seed=0, rank=1, noise=8.830717462059581e-107)
@given(
    dims=st.sampled_from(BIPARTITE),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    noise=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_required_a1_chain_and_detection_chain(dims, seed, rank, noise):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    rho = DensityMatrix(dims, mat / np.trace(mat).real)
    if noise is not None:
        rho = mix_white_noise(rho, noise)
    a = _Analysis(rho.dims, rho.mat[None])
    steps = (d - 1) // 2
    for canonical in (False, True):
        (s,) = a.spectrum(_CANONICAL if canonical else _PLAIN, 1)[0]
        (required,) = _required_a1(s[None], s[None].sum(axis=-1), steps).tolist()
        # a2^2 / a3 = top * b2^2 / b3 with b_k = sum (s / top)^k: on the raw
        # sums a2 * a2 turns subnormal near noise 1e-78 and a3 near 1e-107,
        # and either loses the digits the 1e-12 factor allows
        chain = required + [float(np.sum(s))]
        top = float(s.max())
        if top > 0:
            b2, b3 = (float(np.sum((s / top) ** k)) for k in (2, 3))
            chain.insert(0, top * (b2 * (b2 / b3)))
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi * (1 + 1e-12), (canonical, chain)
    flagged = {r.name for r in evaluate_all(rho) if r.violated}
    for strict, mid, loose in (("thm1-plain", "thm2-plain", "dv"),
                               ("thm1-canonical", "thm2-canonical", "li")):
        assert strict not in flagged or mid in flagged, flagged
        assert mid not in flagged or loose in flagged, flagged
