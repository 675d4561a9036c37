from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from ctmoments import (
    DensityMatrix,
    bell,
    correlation_tensor,
    hermitian_eigenvalues,
    is_psd,
    maximally_mixed,
    partial_transpose,
    pure_product,
    realign,
    singular_values,
    trace_norm,
    werner,
)
from ctmoments import linalg
from ctmoments.linalg import _MAX_DIM, _check_dims, _check_hermitian
from ctmoments.states import random_density
from ctmoments.errors import (
    InvalidDimension,
    NonSquare,
    NotBipartite,
    NotHermitian,
    NotNormalized,
    NotPositive,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_eigenvalues_diagonal():
    np.testing.assert_allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])


def test_eigenvalues_pauli_x():
    np.testing.assert_allclose(hermitian_eigenvalues(SX), [1, -1], atol=1e-14)


def test_eigenvalues_2x2():
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [3, 1], atol=1e-14
    )


def test_eigenvalues_rejects_non_hermitian():
    # one tolerance: what DensityMatrix rejects, the eigen-solvers reject
    for defect in (1.0, 5e-12):
        m = np.array([[0.5, 0.0], [defect, 0.5]])
        for check in (hermitian_eigenvalues, is_psd, partial(DensityMatrix, (2,))):
            with pytest.raises(NotHermitian):
                check(m)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(NonSquare):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_singular_values_examples():
    np.testing.assert_allclose(singular_values(np.eye(3)), [1, 1, 1])
    np.testing.assert_allclose(singular_values(np.zeros((2, 5))), [0, 0])
    np.testing.assert_allclose(singular_values(np.array([[0.0, 2.0], [0.0, 0.0]])), [2, 0])


def test_is_psd_examples():
    assert is_psd(np.eye(2))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert is_psd(np.ones((2, 2)))


def test_partial_transpose_diagonal_invariants():
    mm = maximally_mixed((2, 2))
    np.testing.assert_allclose(partial_transpose(mm), mm.mat)
    p00 = pure_product([[1, 0], [1, 0]])
    np.testing.assert_allclose(partial_transpose(p00), p00.mat)


def test_partial_transpose_bell_negative_eigenvalue():
    pt = partial_transpose(bell())
    assert abs(hermitian_eigenvalues(pt)[-1] + 0.5) < 1e-12
    assert abs(np.trace(pt) - 1.0) < 1e-12


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = DensityMatrix((2, 3), (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    pt = partial_transpose(rho)
    back = partial_transpose(DensityMatrix((2, 3), pt))
    np.testing.assert_allclose(back, rho.mat, atol=1e-15)


def test_partial_transpose_requires_bipartite():
    with pytest.raises(NotBipartite):
        partial_transpose(maximally_mixed((2, 2, 2)))


def test_realign_trace_norms():
    assert abs(trace_norm(realign(maximally_mixed((2, 2)))) - 0.5) < 1e-12
    assert abs(trace_norm(realign(bell())) - 2.0) < 1e-12
    p00 = pure_product([[1, 0], [1, 0]])
    assert abs(trace_norm(realign(p00)) - 1.0) < 1e-12


def test_realign_preserves_frobenius_norm():
    # squared Frobenius norm of the realignment equals Tr(rho^2)
    rng = np.random.default_rng(11)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        d = dims[0] * dims[1]
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = DensityMatrix(dims, (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
        purity = float(np.trace(rho.mat @ rho.mat).real)
        assert abs(np.sum(np.abs(realign(rho)) ** 2) - purity) < 1e-9


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows, cols = rng.integers(1, 17, size=2)
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        sv = singular_values(m)
        ev = hermitian_eigenvalues(m @ m.conj().T)
        np.testing.assert_allclose(sv, np.sqrt(np.clip(ev[:len(sv)], 0, None)), atol=1e-9)


def test_gram_matrices_are_psd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        g = x @ x.conj().T
        scale = max(1.0, float(np.max(np.abs(g))))
        assert hermitian_eigenvalues(g)[-1] >= -1e-9 * scale


def test_density_matrix_validation():
    with pytest.raises(NotHermitian):
        DensityMatrix((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(NotHermitian):
        DensityMatrix((2,), np.array([[np.nan, 0.0], [0.0, 0.5]]))
    with pytest.raises(NotNormalized):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(NotPositive):
        DensityMatrix((2,), np.diag([1.5, -0.5]))
    with pytest.raises(NonSquare):
        DensityMatrix((2, 2), np.eye(2) / 2)
    for dims in [(), (1, 2)]:
        with pytest.raises(InvalidDimension):
            DensityMatrix(dims, np.eye(2) / 2)


@pytest.mark.parametrize("dims", [(2.7, 2), ("3", 3), (3.0, 3), (np.float64(2.0), 2), (2, None),
                                  4, None])
def test_density_matrix_rejects_non_integer_dims(dims):
    # int() would truncate 2.7 to 2 and turn "3" into 3
    with pytest.raises(InvalidDimension, match="integers"):
        DensityMatrix(dims, np.eye(4) / 4)


def test_density_matrix_stores_numpy_integer_dims_as_int():
    rho = DensityMatrix((np.int64(2), np.uint8(3)), np.eye(6) / 6)
    assert rho.dims == (2, 3) and all(type(d) is int for d in rho.dims)
    assert maximally_mixed((np.int32(2), 2)).dims == (2, 2)


def test_states_and_tensors_compare_by_identity():
    # equal values are not the same state: == never compares the arrays
    rho, other = werner(2, 0.0), werner(2, 0.0)
    t, u = correlation_tensor(rho), correlation_tensor(rho)
    assert rho == rho and t == t
    assert rho != other and t != u
    assert len({rho, other, rho, t, u, t}) == 4


@pytest.mark.parametrize("dims", [(2.5, 2), (2, 2.0), ("2", 2)])
def test_maximally_mixed_rejects_non_integer_dims(dims):
    with pytest.raises(InvalidDimension, match="integers"):
        maximally_mixed(dims)


def test_dims_hold_at_most_the_largest_matrix_numpy_indexes(monkeypatch):
    # numpy shapes a D x D complex128 view at D = _MAX_DIM and refuses one past it
    z = np.zeros((), dtype=np.complex128)
    assert np.broadcast_to(z, (_MAX_DIM, _MAX_DIM)).shape == (_MAX_DIM, _MAX_DIM)
    with pytest.raises(ValueError):
        np.broadcast_to(z, (_MAX_DIM + 1, _MAX_DIM + 1))
    # no machine holds that matrix, so its acceptance is checked without the memory bound
    monkeypatch.setattr(linalg, "_MEMORY", float("inf"))
    assert _check_dims((_MAX_DIM,)) == (_MAX_DIM,)
    # numpy integers are multiplied as ints, so 2^32 * 2^32 does not wrap to 0
    big = np.int64(2**32)
    for dims in [(_MAX_DIM + 1,), (2**32, 2**32), (big, big), (2,) * 64]:
        with pytest.raises(InvalidDimension, match="numpy indexes"):
            _check_dims(dims)
    for build in (maximally_mixed, partial(DensityMatrix, mat=np.eye(1))):
        with pytest.raises(InvalidDimension, match="numpy indexes"):
            build((big, big))


def test_dims_hold_at_most_the_matrix_memory_holds(monkeypatch):
    monkeypatch.setattr(linalg, "_MEMORY", 64 * 2**20)
    assert _check_dims((2048,)) == (2048,)  # 16 * 2048^2 bytes is exactly 64 MiB
    for dims in [(2049,), (64, 64)]:
        with pytest.raises(InvalidDimension, match="memory holds 67108864"):
            _check_dims(dims)
    # the check comes before the 256 MiB identity is built
    with pytest.raises(InvalidDimension, match="memory holds"):
        maximally_mixed((4096,))
    # a size numpy cannot index keeps its own message
    with pytest.raises(InvalidDimension, match="numpy indexes"):
        _check_dims((2**32, 2**32))


def test_matrix_functions_act_on_stacks():
    rng = np.random.default_rng(13)
    rhos = [random_density((2, 3), rng) for _ in range(4)]
    stack = SimpleNamespace(dims=(2, 3), mat=np.stack([r.mat for r in rhos]))
    pts, realigned = partial_transpose(stack), realign(stack)
    assert pts.shape == (4, 6, 6) and realigned.shape == (4, 4, 9)
    svs, norms = singular_values(realigned), trace_norm(realigned)
    for k, rho in enumerate(rhos):
        assert np.array_equal(pts[k], partial_transpose(rho))
        assert np.array_equal(realigned[k], realign(rho))
        assert np.array_equal(svs[k], singular_values(realigned[k]))
        assert norms[k] == trace_norm(realigned[k])


@pytest.mark.parametrize("shape", [(2, 2, 2), (0, 2, 2), (3, 0, 0), (2,), ()])
def test_validation_takes_one_matrix(shape):
    # a stack, even an empty one, is not a square matrix
    for check in (_check_hermitian, hermitian_eigenvalues, is_psd):
        with pytest.raises(NonSquare, match="expected a square matrix"):
            check(np.zeros(shape))


def test_validation_returns_two_floats():
    m = 3.0 * np.eye(4, dtype=complex)
    m[2, 3] += 1e-13  # a defect inside the tolerance
    scale, defect = _check_hermitian(m)
    assert (type(scale), type(defect)) == (float, float)
    assert scale == 3.0 and defect == abs(m[2, 3] - m[3, 2].conjugate())


def test_empty_matrix_has_nothing_to_reject():
    assert hermitian_eigenvalues(np.zeros((0, 0))).shape == (0,)
    assert is_psd(np.zeros((0, 0)))


def test_nan_or_inf_is_not_hermitian():
    for bad in (np.nan, np.inf):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for check in (_check_hermitian, hermitian_eigenvalues, is_psd):
            with pytest.raises(NotHermitian, match="NaN or Inf"):
                check(m)


def test_not_hermitian_message():
    with pytest.raises(NotHermitian) as err:
        hermitian_eigenvalues(np.array([[0.5, 0.0], [1.0, 0.5]]))
    assert str(err.value) == (
        "matrix is not Hermitian: max|M - M^dag| = 1.000e+00 exceeds 1.0e-12 * 1.000e+00"
    )
    m = 4.0 * np.eye(2)
    m[0, 1] = 2e-11  # the scale is max|M|
    with pytest.raises(NotHermitian) as err:
        is_psd(m)
    assert str(err.value) == (
        "matrix is not Hermitian: max|M - M^dag| = 2.000e-11 exceeds 1.0e-12 * 4.000e+00"
    )
