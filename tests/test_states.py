import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmoments import (
    DensityMatrix,
    bell,
    ghz,
    hermitian_eigenvalues,
    is_psd,
    maximally_mixed,
    mix_white_noise,
    partial_transpose,
    pure_product,
    tiles_ppt,
    w_state,
    werner,
)
from ctmoments.errors import InvalidDimension, NotHermitian, NotNormalized, NotPositive
from ctmoments.errors import ParamOutOfRange
from ctmoments import states
from ctmoments.linalg import _derived_state
from ctmoments.states import (
    FAMILIES,
    random_density,
    random_pure_product,
    random_separable,
)


def test_family_names():
    assert set(FAMILIES) == {
        "werner", "tiles-ppt", "ghz", "w", "pure-product",
        "maximally-mixed", "bell",
    }


def test_werner_swap_symmetric():
    for d, x in [(2, 0.4), (3, -0.8)]:
        rho = werner(d, x)
        flip = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                flip[i * d + j, j * d + i] = 1.0
        np.testing.assert_allclose(flip @ rho.mat @ flip, rho.mat, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_werner_matches_loop_built_flip_exactly(d):
    flip = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            flip[i * d + j, j * d + i] = 1.0
    eye = np.eye(d * d, dtype=np.complex128)
    for x in (-1.0, -0.3, 0.0, 0.7):
        want = ((d - x) * eye + (d * x - 1) * flip) / (d**3 - d)
        assert werner(d, x).mat.tobytes() == want.tobytes()


def test_werner_flip_expectation():
    # Tr(rho F) = x is the defining property of the parametrization
    for d, x in [(2, 0.25), (3, -0.6), (4, 1.0)]:
        rho = werner(d, x)
        flip = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                flip[i * d + j, j * d + i] = 1.0
        assert abs(np.trace(rho.mat @ flip).real - x) < 1e-12


def test_werner_param_validation():
    with pytest.raises(ParamOutOfRange):
        werner(1, 0.0)
    with pytest.raises(ParamOutOfRange):
        werner(2, 1.5)


def test_tiles_ppt_structure():
    rho = tiles_ppt()
    ev = hermitian_eigenvalues(rho.mat)
    np.testing.assert_allclose(ev, [0.25] * 4 + [0.0] * 5, atol=1e-12)
    assert is_psd(partial_transpose(rho))


def test_mix_white_noise_endpoints():
    rho = bell()
    np.testing.assert_allclose(mix_white_noise(rho, 1.0).mat, rho.mat)
    np.testing.assert_allclose(
        mix_white_noise(rho, 0.0).mat, maximally_mixed((2, 2)).mat
    )
    with pytest.raises(ParamOutOfRange):
        mix_white_noise(rho, -0.1)
    with pytest.raises(ParamOutOfRange):
        mix_white_noise(rho, 1.1)


def test_pure_product_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        pure_product([[1, 1], [1, 0]])


def test_pure_product_needs_only_a_unit_norm_product():
    # the trace rule decides: |2| * |0.5| = 1 is a valid unit-trace projector
    rho = pure_product([[2, 0], [0.5, 0]])
    np.testing.assert_array_equal(rho.mat, pure_product([[1, 0], [1, 0]]).mat)


def test_pure_product_is_rank_one():
    rho = pure_product([[0, 1], [1, 0], [1, 0]])
    assert rho.dims == (2, 2, 2)
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12


def test_ghz_matrix_entries():
    rho = ghz(3)
    expected = np.zeros((8, 8))
    for i in (0, 7):
        for j in (0, 7):
            expected[i, j] = 0.5
    np.testing.assert_allclose(rho.mat, expected, atol=1e-14)
    with pytest.raises(ParamOutOfRange):
        ghz(1)


def test_ghz_reduced_states_maximally_mixed():
    rho = ghz(3)
    # trace out parties 2 and 3
    reduced = np.trace(rho.mat.reshape(2, 4, 2, 4), axis1=1, axis2=3)
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-14)


def test_w_state_support():
    rho = w_state(3)
    diag = np.diag(rho.mat).real
    idx = [1, 2, 4]
    np.testing.assert_allclose(diag[idx], [1 / 3] * 3, atol=1e-14)
    assert abs(diag.sum() - 1.0) < 1e-14


def test_bell_is_two_party_ghz():
    np.testing.assert_allclose(bell().mat, ghz(2).mat)
    assert bell().dims == (2, 2)


def _uniform_on(n, support):
    want = np.zeros((2**n, 2**n))
    want[np.ix_(support, support)] = 1 / len(support)
    return want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ghz_entries_are_exactly_one_half(n):
    assert np.array_equal(ghz(n).mat, _uniform_on(n, [0, 2**n - 1]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_w_state_entries_are_exactly_one_over_n(n):
    assert np.array_equal(w_state(n).mat, _uniform_on(n, [1 << k for k in range(n)]))


def test_random_generators_are_seeded():
    a = random_density((2, 3), np.random.default_rng(5)).mat
    b = random_density((2, 3), np.random.default_rng(5)).mat
    np.testing.assert_allclose(a, b)
    c = random_density((2, 3), np.random.default_rng(6)).mat
    assert np.max(np.abs(a - c)) > 1e-3


def test_random_pure_product_is_product():
    rng = np.random.default_rng(8)
    rho = random_pure_product((2, 3), rng)
    # rank-one and PPT
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12
    assert is_psd(partial_transpose(rho))


def test_random_separable_is_ppt():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = random_separable((2, 2), rng)
        assert is_psd(partial_transpose(rho))


def measured(rho):
    """(lambda_min, Hermiticity defect) of a fresh, fully validated copy."""
    full = DensityMatrix(rho.dims, rho.mat)
    m = rho.mat
    defect = float(np.abs(m - m.conj().T).max())
    assert full._defect == defect
    assert full._lam_min == float(np.linalg.eigvalsh(m)[0])
    return full._lam_min, defect


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (5, 5)]),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 3),
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
)
def test_mixture_residuals_match_measured(dims, seed, rank, x, y):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    base = DensityMatrix(dims, g @ g.conj().T / np.linalg.norm(g) ** 2)
    for rho in (mix_white_noise(base, x), mix_white_noise(mix_white_noise(base, y), x)):
        lam_min, defect = measured(rho)
        assert abs(rho._lam_min - lam_min) <= 1e-13
        assert abs(rho._defect - defect) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), x=st.floats(-1.0, 1.0))
def test_werner_residuals_match_measured(d, x):
    rho = werner(d, x)
    lam_min, defect = measured(rho)
    assert abs(rho._lam_min - lam_min) <= 1e-13
    assert rho._defect == defect == 0.0


def test_derived_states_keep_every_rule():
    mat = np.eye(4, dtype=complex) / 4
    assert _derived_state((2, 2), mat, 0.25, 0.0)._lam_min == 0.25
    with pytest.raises(NotHermitian):
        _derived_state((2, 2), mat, 0.25, 1e-6)
    with pytest.raises(NotHermitian):
        _derived_state((2, 2), mat * np.nan, 0.25, 0.0)
    with pytest.raises(NotNormalized):
        _derived_state((2, 2), 2 * mat, 0.5, 0.0)
    with pytest.raises(NotPositive):
        _derived_state((2, 2), mat, -1e-6, 0.0)
    for x in (-0.1, 1.1, float("nan")):
        with pytest.raises(ParamOutOfRange):
            mix_white_noise(bell(), x)
    for x in (-1.1, 1.1, float("nan")):
        with pytest.raises(ParamOutOfRange):
            werner(3, x)


def test_mix_white_noise_bytes_match_a_fresh_build():
    rng = np.random.default_rng(21)
    for rho in (tiles_ppt(), random_density((2, 3), rng), ghz(3)):
        d = rho.dim
        for x in np.linspace(0.0, 1.0, 21):
            x = float(x)
            want = x * rho.mat + (1.0 - x) / d * np.eye(d, dtype=np.complex128)
            assert mix_white_noise(rho, x).mat.tobytes() == want.tobytes()


def test_returned_states_do_not_share_the_cached_operators():
    for make in (lambda: werner(3, 0.2), lambda: mix_white_noise(bell(), 0.5)):
        want = make().mat.tobytes()
        make().mat[:] = 7.0  # each mat is a fresh array
        assert make().mat.tobytes() == want
    for d in (2, 3):
        for op in (states._identity(d * d), states._flip(d)):
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 2.0
        assert np.array_equal(states._flip(d) @ states._flip(d), np.eye(d * d))


def test_sizes_must_be_integers():
    for make in (lambda: werner(2.5, 0.1), lambda: werner(3.0, 0.1),
                 lambda: ghz(2.5), lambda: w_state(2.5), lambda: w_state("3")):
        with pytest.raises(ParamOutOfRange, match="integer"):
            make()
    for make in (lambda: ghz(1), lambda: w_state(np.int64(1))):
        with pytest.raises(ParamOutOfRange, match=">= 2"):
            make()
    for size in (np.int64(3), np.int32(3), np.uint8(3)):
        assert werner(size, 0.4).mat.tobytes() == werner(3, 0.4).mat.tobytes()
        assert ghz(size).mat.tobytes() == ghz(3).mat.tobytes()
        assert w_state(size).mat.tobytes() == w_state(3).mat.tobytes()
        assert type(werner(size, 0.4).dims[0]) is int


@pytest.mark.parametrize("helper", [random_density, random_separable, random_pure_product])
@pytest.mark.parametrize("dims", [(2.5, 2), "22", (2**32, 2**32), (-1, 2), ()])
def test_random_helpers_check_dims_before_drawing(helper, dims):
    class NoRng:
        def __getattr__(self, name):
            raise AssertionError(f"{helper.__name__} used rng.{name} before checking dims")

    # a float, a string, a negative or no entry is refused, and 2^32 x 2^32 is never drawn
    with pytest.raises(InvalidDimension):
        helper(dims, NoRng())


def test_pure_product_checks_dims_before_building(monkeypatch):
    def build(vectors):
        raise AssertionError("pure_product built the projector before checking dims")

    # two vectors of 2^11 entries give a 2^22 x 2^22 projector, 256 TiB
    monkeypatch.setattr(states, "_pure_product_matrix", build)
    v = np.full(2**11, 2**-5.5)
    with pytest.raises(InvalidDimension, match="bytes; at most"):
        pure_product([v, v])


def test_werner_checks_its_size_once_per_d(monkeypatch):
    with pytest.raises(InvalidDimension, match="bytes; at most"):
        werner(2**32, 0.0)
    calls = []
    monkeypatch.setattr(states, "_check_dims", lambda dims: calls.append(dims) or dims)
    states._flip.cache_clear()
    for x in np.linspace(-1.0, 1.0, 9):
        werner(3, x)
    assert calls == [(3, 3)]
