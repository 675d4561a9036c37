import json
from itertools import product
from math import prod, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmoments import _kernels, criteria
from ctmoments import (
    DensityMatrix,
    bell,
    ccnr_criterion,
    dv_bound,
    dv_criterion,
    evaluate_all,
    ghz,
    li_bound,
    li_criterion,
    maximally_mixed,
    mix_white_noise,
    moments_of_state,
    multi_canonical_bound,
    multi_plain_bound,
    ppt_criterion,
    pure_product,
    realign,
    theorem1,
    theorem2,
    theorem3,
    tiles_ppt,
    trace_norm,
    werner,
)
from ctmoments.cli import criterion_margin
from ctmoments.criteria import DEFAULT_TOL
from ctmoments.errors import NotBipartite, ParamOutOfRange, UnknownCriterion
from ctmoments.states import random_density, random_separable


def test_bound_values():
    assert abs(dv_bound(2, 2) - 0.25) < 1e-15
    assert abs(dv_bound(3, 3) - 1 / 3) < 1e-15
    assert abs(li_bound(2, 2) - 0.5) < 1e-15
    assert abs(li_bound(3, 3) - 4 / 9) < 1e-15
    # multipartite bounds reduce to the bipartite ones at n = 2
    assert abs(multi_plain_bound((2, 2)) - dv_bound(2, 2)) < 1e-15
    assert abs(multi_canonical_bound((3, 3)) - li_bound(3, 3)) < 1e-15
    assert abs(multi_plain_bound((2, 2, 2)) - 0.125) < 1e-15
    assert abs(multi_canonical_bound((2, 2, 2)) - 2 ** (-1.5)) < 1e-15


def test_bell_baselines():
    rho = bell()
    ppt = ppt_criterion(rho)
    assert ppt.violated and abs(ppt.quantity - 0.5) < 1e-12
    ccnr = ccnr_criterion(rho)
    assert ccnr.violated and abs(ccnr.quantity - 2.0) < 1e-12
    dv = dv_criterion(rho)
    assert dv.violated and abs(dv.quantity - 0.75) < 1e-12
    assert abs(dv.bound - 0.25) < 1e-15
    li = li_criterion(rho)
    assert li.violated and abs(li.quantity - 1.0) < 1e-12


def test_bell_theorem1():
    plain, canon = theorem1(bell())
    # three singular values 1/4: a2 = 3/16, a3 = 3/64
    assert abs(plain.quantity - (3 / 16) ** 2) < 1e-14
    assert abs(plain.bound - 0.25 * 3 / 64) < 1e-14
    assert plain.violated and canon.violated


def test_bell_theorem2():
    plain, canon = theorem2(bell())
    assert plain.violated and canon.violated
    assert plain.detail["b_min_eigenvalues"][0] < 0
    assert abs(plain.detail["substituted_a1"] - 0.25) < 1e-15


def test_werner_entangled_d3():
    rho = werner(3, -0.5)
    plain, canon = theorem1(rho)
    # eight singular values 2.5/48 > 1/24, so a2^2 > a3 / 3
    assert plain.violated
    assert dv_criterion(rho).violated
    assert ppt_criterion(rho).violated


@pytest.mark.parametrize("d", [2, 3])
def test_werner_separable_clean(d):
    for x in (0.0, 0.5, 1.0):
        reports = evaluate_all(werner(d, x))
        assert not any(r.violated for r in reports), (d, x)


def test_maximally_mixed_clean():
    reports = evaluate_all(maximally_mixed((2, 2)))
    assert not any(r.violated for r in reports)
    reports = evaluate_all(maximally_mixed((2, 2, 2)))
    assert not any(r.violated for r in reports)


def test_tiles_ppt_blind_ccnr_sees():
    rho = tiles_ppt()
    assert not ppt_criterion(rho).violated
    assert ccnr_criterion(rho).violated


def test_pure_product_saturates_without_flagging():
    rho = pure_product([[1, 0], [1, 0]])
    plain, canon = theorem1(rho)
    # single sigma = 1/4 sits exactly on the bound: margin 0, not violated
    assert abs(plain.margin) < 1e-12 and not plain.violated
    assert abs(canon.margin) < 1e-12 and not canon.violated
    assert not dv_criterion(rho).violated
    assert not li_criterion(rho).violated


def test_ghz3_theorem3():
    plain, canon = theorem3(ghz(3))
    assert canon.violated
    assert abs(canon.quantity - 1 / 64) < 1e-12
    assert abs(canon.bound - 1 / 128) < 1e-12
    assert len(canon.detail["modes"]) == 3
    for m in canon.detail["modes"]:
        assert m["margin"] > 0
    assert plain.violated  # sigma = sqrt(2)/8 twice per mode exceeds 1/8 bound


def test_bipartite_bounds_are_the_product_bounds():
    for d1 in range(2, 8):
        for d2 in range(2, 8):
            assert dv_bound(d1, d2) == multi_plain_bound((d1, d2)), (d1, d2)
            assert li_bound(d1, d2) == multi_canonical_bound((d1, d2)), (d1, d2)


def test_one_bound_formula_is_the_closed_forms():
    # the weighted bound equals each tensor's own closed form bit for bit,
    # and is exactly 1 under ccnr's weight
    for n in (2, 3, 4):
        for dims in product(range(2, 8), repeat=n):
            plain = sqrt(prod(d - 1 for d in dims) / prod(2 * d for d in dims))
            canonical = sqrt(prod(d * d - d + 2 for d in dims) / prod(2 * d * d for d in dims))
            assert multi_plain_bound(dims) == plain, dims
            assert multi_canonical_bound(dims) == canonical, dims
            assert criteria._separable_bound(criteria._REALIGNED, dims) == 1.0, dims


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
def test_ccnr_weight_gives_the_realigned_trace_norm(dims):
    # T~ in the orthonormal operator basis has the realigned state's trace
    # norm, whether a state is scored alone or in a stack
    rng = np.random.default_rng(prod(dims))
    rhos = [random_density(dims, rng) for _ in range(6)]
    stacked = criteria._evaluate(rhos, DEFAULT_TOL, ["ccnr"])
    for rho, (report,) in zip(rhos, stacked):
        want = float(trace_norm(realign(rho)))
        for got in (report.quantity, ccnr_criterion(rho).quantity):
            assert abs(got - want) <= 2e-15 * max(1.0, want), (dims, got, want)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 3)])
def test_plain_and_canonical_weights_are_views_of_t_tilde(dims):
    # dv's and li's tensors slice T~ without copying; only ccnr's multiplies
    rho = random_density(dims, np.random.default_rng(71))
    a = criteria._Analysis(dims, rho.mat[None])
    canonical, plain = (a.tensor(w).entries for w in (criteria._CANONICAL, criteria._PLAIN))
    t_tilde = a._extended.entries
    assert np.shares_memory(canonical, t_tilde) and np.array_equal(canonical, t_tilde)
    assert np.shares_memory(plain, t_tilde)
    assert np.array_equal(plain, t_tilde[(Ellipsis,) + (slice(1, None),) * len(dims)])
    if len(dims) == 2:
        assert not np.shares_memory(a.tensor(criteria._REALIGNED).entries, t_tilde)


def test_theorem3_matches_theorem1_at_n2():
    # at n = 2 Theorem 3 is Theorem 1: the same bound and the same sums
    rng = np.random.default_rng(41)
    for dims in [(2, 2), (2, 3), (3, 3), (4, 4), (5, 5)]:
        for rho in [random_density(dims, rng) for _ in range(4)]:
            for t1, t3 in zip(theorem1(rho), theorem3(rho)):
                assert (t1.quantity, t1.bound, t1.margin, t1.violated) == (
                    t3.quantity, t3.bound, t3.margin, t3.violated
                ), dims


def test_theorem1_reads_the_moment_vector():
    # one power-sum rule: thm1 is m2^2 <= bound * m3 on moments_of_state, exactly
    rng = np.random.default_rng(67)
    for dims in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5)]:
        for _ in range(10):
            rho = random_density(dims, rng)
            for canonical, report in enumerate(theorem1(rho)):
                m = moments_of_state(rho, canonical=bool(canonical), K=3)
                bound = (li_bound if canonical else dv_bound)(*dims)
                assert report.quantity == m[2] ** 2, dims
                assert report.bound == bound * m[3], dims


def test_bipartite_criteria_reject_multipartite():
    rho = ghz(3)
    for fn in (ppt_criterion, ccnr_criterion, theorem1, theorem2):
        with pytest.raises(NotBipartite):
            fn(rho)
    with pytest.raises(NotBipartite):
        evaluate_all(rho, names=["ppt"])
    with pytest.raises(UnknownCriterion):
        evaluate_all(rho, names=["nope"])


def test_evaluate_all_report_order():
    names = [r.name for r in evaluate_all(bell())]
    assert names == [
        "ppt", "ccnr", "dv", "li", "thm1-plain", "thm1-canonical",
        "thm2-plain", "thm2-canonical", "thm3-plain", "thm3-canonical",
    ]
    names = [r.name for r in evaluate_all(ghz(3))]
    assert names == ["dv", "li", "thm3-plain", "thm3-canonical"]


def test_report_margin_consistency():
    # one margin rule for every report: margin = quantity - bound and
    # violated = margin > tol; the CLI's margin is positive iff violated
    rng = np.random.default_rng(53)
    states = [werner(3, -1.0), tiles_ppt(), bell(), ghz(3)]
    for dims in [(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2), (2, 2, 2, 2), (3, 3, 3)]:
        states += [random_density(dims, rng) for _ in range(3)]
        states.append(random_separable(dims, rng))
    for rho in states:
        for r in evaluate_all(rho):
            assert r.margin == r.quantity - r.bound, r.name
            assert r.violated == (r.margin > DEFAULT_TOL), r.name
            assert (criterion_margin(rho, r.name, DEFAULT_TOL) > 0) == r.violated


def test_one_tensor_build_per_evaluate_all(monkeypatch):
    calls = []
    build = _kernels.expectation_tensor

    def counted(*args, **kwargs):
        calls.append(args[2])  # dims
        return build(*args, **kwargs)

    monkeypatch.setattr(_kernels, "expectation_tensor", counted)
    rng = np.random.default_rng(59)
    for dims in [(3, 3), (2, 2, 2)]:
        calls.clear()
        evaluate_all(random_density(dims, rng))
        assert len(calls) == 1, dims


def test_one_svd_per_distinct_unfolding(monkeypatch):
    # at n = 2 mode 2 is the transpose of mode 1: one SVD each for T, T~
    # and T~ in the orthonormal basis (ccnr)
    shapes = []
    svd = criteria.singular_values

    def counted(m):
        assert m.shape[0] == 1  # evaluate_all analyses a stack of one
        shapes.append(m.shape[1:])
        return svd(m)

    monkeypatch.setattr(criteria, "singular_values", counted)
    rng = np.random.default_rng(61)
    for dims, want in [((3, 3), [(8, 8), (9, 9), (9, 9)]), ((2, 3), [(3, 8), (4, 9), (4, 9)]),
                       ((2, 2, 2), [(3, 9)] * 3 + [(4, 16)] * 3)]:
        shapes.clear()
        evaluate_all(random_density(dims, rng))
        assert sorted(shapes) == sorted(want), dims


def test_one_power_sum_set_per_distinct_unfolding(monkeypatch):
    # dv/li read a1 from the spectrum that thm1..thm3 read a2 and a3 from;
    # ccnr's weighted T~ is the third spectrum at n = 2
    calls = []
    power_sums = criteria._power_sums

    def counted(s, K):
        calls.append(s.shape)
        return power_sums(s, K)

    monkeypatch.setattr(criteria, "_power_sums", counted)
    rng = np.random.default_rng(67)
    for dims, want in [((3, 3), 3), ((2, 2, 2), 6)]:
        calls.clear()
        evaluate_all(random_density(dims, rng))
        assert len(calls) == want, dims


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_invalid_tol_raises(tol):
    rho = maximally_mixed((2, 2))
    with pytest.raises(ParamOutOfRange):
        evaluate_all(rho, tol=tol)
    for fn in (theorem1, theorem2, theorem3, dv_criterion, li_criterion,
               ppt_criterion, ccnr_criterion):
        with pytest.raises(ParamOutOfRange):
            fn(rho, tol=tol)


def test_local_unitary_invariance():
    rng = np.random.default_rng(43)
    rho = bell()
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    w = np.kron(u, v)
    from ctmoments import DensityMatrix

    rotated = DensityMatrix((2, 2), w @ rho.mat @ w.conj().T)
    for fn in (dv_criterion, li_criterion, ccnr_criterion):
        assert abs(fn(rho).quantity - fn(rotated).quantity) < 1e-10
    p0, c0 = theorem1(rho)
    p1, c1 = theorem1(rotated)
    assert abs(p0.margin - p1.margin) < 1e-10
    assert abs(c0.margin - c1.margin) < 1e-10


def _random_unitary(d, rng):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def _permute_parties(rho, perm):
    """rho with party perm[k] moved to place k."""
    n = rho.n_parties
    t = rho.mat.reshape(rho.dims * 2)
    order = list(perm) + [n + p for p in perm]
    dims = tuple(rho.dims[p] for p in perm)
    return DensityMatrix(dims, t.transpose(order).reshape(rho.mat.shape))


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from([(2, 3), (3, 3), (2, 2, 2), (2, 3, 2)]).flatmap(
        lambda dims: st.tuples(st.just(dims), st.permutations(range(len(dims))))
    ),
    seed=st.integers(0, 2**32 - 1),
    separable=st.booleans(),
)
def test_quantities_invariant_under_local_unitaries_and_party_reversal(
    shape, seed, separable
):
    dims, perm = shape
    rng = np.random.default_rng(seed)
    rho = (random_separable if separable else random_density)(dims, rng)
    w = np.array([[1.0]])
    for d in dims:
        w = np.kron(w, _random_unitary(d, rng))
    want = evaluate_all(rho)
    rotated = DensityMatrix(dims, w @ rho.mat @ w.conj().T)
    for other in (rotated, _permute_parties(rho, perm)):
        got = evaluate_all(other)
        assert [r.name for r in got] == [r.name for r in want]
        for r, g in zip(want, got):
            assert abs(g.quantity - r.quantity) <= 1e-12 * (1 + abs(r.quantity)), r.name


PROPERTY_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]


@settings(max_examples=25, deadline=None)
@given(
    dims=st.sampled_from(PROPERTY_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    x=st.floats(0.0, 1.0),
)
def test_separable_states_never_flagged(dims, seed, x):
    # white noise keeps a separable state separable
    rho = mix_white_noise(random_separable(dims, np.random.default_rng(seed)), x)
    assert [r.name for r in evaluate_all(rho) if r.violated] == []


def _builtin_only(value) -> bool:
    if isinstance(value, dict):
        return all(type(k) is str and _builtin_only(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_builtin_only(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


@settings(max_examples=25, deadline=None)
@given(
    dims=st.sampled_from(PROPERTY_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    separable=st.booleans(),
    x=st.floats(0.0, 1.0),
)
def test_reports_round_trip_through_json(dims, seed, separable, x):
    rng = np.random.default_rng(seed)
    rho = mix_white_noise((random_separable if separable else random_density)(dims, rng), x)
    for r in evaluate_all(rho):
        d = r.to_dict()
        assert json.loads(json.dumps(d)) == d, r.name
        assert _builtin_only(d), r.name  # no numpy scalar, array or tuple


def test_tolerance_blocks_tiny_margins():
    rho = werner(2, 0.0)
    plain, _ = theorem1(rho, tol=1.0)
    assert not plain.violated
    plainb, _ = theorem1(werner(2, -1.0), tol=1.0)
    assert not plainb.violated  # huge tol suppresses even a real violation


def test_to_dict_round_trip_fields():
    d = ppt_criterion(bell()).to_dict()
    assert set(d) == {"name", "quantity", "bound", "violated", "margin", "detail"}
    assert d["violated"] is True


def test_bell_ppt_min_eigenvalue_is_exact():
    # bell's partial transpose holds the block [[0, 1/2], [1/2, 0]]
    assert ppt_criterion(bell()).detail == {"min_eigenvalue": -0.5}
