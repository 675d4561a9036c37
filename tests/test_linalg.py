from functools import partial

import numpy as np
import pytest

from ctmoments import (
    DensityMatrix,
    bell,
    hermitian_eigenvalues,
    is_psd,
    kron,
    maximally_mixed,
    partial_transpose,
    pure_product,
    realign,
    singular_values,
    trace_norm,
)
from ctmoments.errors import (
    InvalidDimension,
    NonSquare,
    NotBipartite,
    NotHermitian,
    NotNormalized,
    NotPositive,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diag_times_identity():
    out = kron(np.diag([1.0, -1.0]), np.eye(2))
    assert np.array_equal(out, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_sigma_x_pair():
    # direct 4x4 expansion: anti-diagonal of ones
    assert np.array_equal(kron(SX, SX), np.fliplr(np.eye(4)))


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
    assert is_psd(np.eye(2), 1e-9)
    assert not is_psd(np.diag([1.0, -1.0]), 1e-9)
    assert is_psd(np.ones((2, 2)), 1e-9)


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
