import numpy as np
import pytest

from ctmoments import (
    CorrelationTensor,
    DensityMatrix,
    bloch,
    correlation_tensor,
    evaluate_all,
    ghz,
    maximally_mixed,
    pure_product,
    singular_values,
    trace_norm,
    unfold,
    werner,
)
from ctmoments.basis import gellmann_generators
from ctmoments.errors import CtmError, ModeOutOfRange, TooFewParties
from ctmoments.states import random_density


def reconstruct(t: CorrelationTensor) -> np.ndarray:
    """Brute-force inverse of the extended tensor: sum of c_idx * (x)_k B_idx_k.

    B_0 = I and B_a = lam_a per mode, so each entry multiplies one Kronecker
    product of basis operators.
    """
    assert t.extended
    bases = [[np.eye(d, dtype=np.complex128)] + gellmann_generators(d) for d in t.dims]
    d_total = int(np.prod(t.dims))
    out = np.zeros((d_total, d_total), dtype=np.complex128)
    for idx in np.ndindex(*t.entries.shape):
        op = np.array([[1.0 + 0j]])
        for k, i in enumerate(idx):
            op = np.kron(op, bases[k][i])
        out += t.entries[idx] * op
    return out


def bloch_blocks(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r, s and T of a bipartite state: blocks of [[1/(d1 d2), s^t], [r, T]]."""
    ext = correlation_tensor(rho, extended=True).entries
    return ext[1:, 0], ext[0, 1:], ext[1:, 1:]


def test_maximally_mixed_has_zero_bloch_coefficients():
    r, s, T = bloch_blocks(maximally_mixed((2, 2)))
    assert np.all(r == 0)
    assert np.all(s == 0)
    assert np.all(T == 0)


def test_pure_product_00_coefficients():
    r, s, T = bloch_blocks(pure_product([[1, 0], [1, 0]]))
    # generator order puts sigma_z at index 2
    np.testing.assert_allclose(r, [0, 0, 0.25], atol=1e-14)
    np.testing.assert_allclose(s, [0, 0, 0.25], atol=1e-14)
    expected_T = np.zeros((3, 3))
    expected_T[2, 2] = 0.25
    np.testing.assert_allclose(T, expected_T, atol=1e-14)


@pytest.mark.parametrize("d,x", [(2, 0.3), (2, -0.7), (3, -0.5), (3, 0.0)])
def test_werner_correlation_matrix_closed_form(d, x):
    r, s, T = bloch_blocks(werner(d, x))
    coeff = (d * x - 1) / (2 * d * (d * d - 1))
    np.testing.assert_allclose(T, coeff * np.eye(d * d - 1), atol=1e-12)
    np.testing.assert_allclose(r, 0, atol=1e-12)
    np.testing.assert_allclose(s, 0, atol=1e-12)


def test_canonical_matrix_maximally_mixed():
    cm = correlation_tensor(maximally_mixed((2, 2)), extended=True).entries
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.25
    np.testing.assert_allclose(cm, expected, atol=1e-14)


def test_canonical_matrix_pure_product():
    cm = correlation_tensor(pure_product([[1, 0], [1, 0]]), extended=True).entries
    nz = {(0, 0), (0, 3), (3, 0), (3, 3)}
    for i in range(4):
        for j in range(4):
            expected = 0.25 if (i, j) in nz else 0.0
            assert abs(cm[i, j] - expected) < 1e-14
    assert abs(trace_norm(cm) - 0.5) < 1e-12


def test_plain_tensor_vanishes_for_maximally_mixed():
    for dims in [(2, 2), (3, 3), (2, 2, 2)]:
        t = correlation_tensor(maximally_mixed(dims))
        assert np.max(np.abs(t.entries)) < 1e-14


def test_ghz3_plain_tensor_entries():
    t = correlation_tensor(ghz(3))
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 0] = 0.125  # xxx
    expected[0, 1, 1] = expected[1, 0, 1] = expected[1, 1, 0] = -0.125
    np.testing.assert_allclose(t.entries, expected, atol=1e-13)


def test_extended_tensor_corner_entry():
    t = correlation_tensor(ghz(3), extended=True)
    assert abs(t.entries[0, 0, 0] - 1 / 8) < 1e-14


def test_rejects_single_party():
    rho = DensityMatrix((2,), np.eye(2) / 2)
    with pytest.raises(TooFewParties):
        correlation_tensor(rho)


def test_unfold_matrix_tensor():
    rng = np.random.default_rng(1)
    rho = random_density((2, 3), rng)
    t = correlation_tensor(rho)
    np.testing.assert_allclose(unfold(t, 1), t.entries)
    np.testing.assert_allclose(unfold(t, 2), t.entries.T)
    with pytest.raises(ModeOutOfRange):
        unfold(t, 3)


@pytest.mark.parametrize("mode", [1.0, 2.5, "1", None])
def test_unfold_rejects_a_mode_that_is_not_an_integer(mode):
    t = correlation_tensor(random_density((2, 2, 3), np.random.default_rng(1)))
    with pytest.raises(ModeOutOfRange):
        unfold(t, mode)
    assert np.array_equal(unfold(t, np.int64(2)), unfold(t, 2))


def test_ghz3_unfolding_singular_values():
    t = correlation_tensor(ghz(3))
    for mode in (1, 2, 3):
        m = unfold(t, mode)
        assert m.shape == (3, 9)
        np.testing.assert_allclose(
            singular_values(m), [np.sqrt(2) / 8, np.sqrt(2) / 8, 0], atol=1e-12
        )


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_bipartite_round_trip(dims):
    rng = np.random.default_rng(sum(dims))
    for _ in range(5):
        rho = random_density(dims, rng)
        rebuilt = reconstruct(correlation_tensor(rho, extended=True))
        np.testing.assert_allclose(rebuilt, rho.mat, atol=1e-10)


def test_multipartite_round_trip():
    rng = np.random.default_rng(9)
    rho = random_density((2, 2, 2), rng)
    rebuilt = reconstruct(correlation_tensor(rho, extended=True))
    np.testing.assert_allclose(rebuilt, rho.mat, atol=1e-10)


def test_non_hermitian_basis_raises_ctm_error():
    # an imaginary residual above REALITY_ATOL is a CtmError, not a dropped part
    raw = np.zeros((3, 3), dtype=np.complex128)
    raw[0, 1] = 1j * 10 * bloch.REALITY_ATOL
    with pytest.raises(CtmError, match="not real"):
        bloch._real_part(raw)


def test_plain_unfolding_equals_T_block():
    rng = np.random.default_rng(23)
    for dims in [(2, 2), (3, 3)]:
        rho = random_density(dims, rng)
        t = correlation_tensor(rho)
        np.testing.assert_allclose(unfold(t, 1), bloch_blocks(rho)[2], atol=1e-12)


def test_tensor_entries_are_real():
    rng = np.random.default_rng(29)
    for dims in [(2, 3), (2, 2, 2)]:
        rho = random_density(dims, rng)
        for extended in (False, True):
            t = correlation_tensor(rho, extended=extended)
            assert t.entries.dtype == np.float64


def test_generators_built_once_per_dimension(monkeypatch):
    calls = []
    build = bloch.gellmann_generators

    def counted(d):
        calls.append(d)
        return build(d)

    monkeypatch.setattr(bloch, "gellmann_generators", counted)
    bloch._gellmann_operators.cache_clear()
    rng = np.random.default_rng(41)
    for dims in [(3, 3), (3, 3), (2, 3)]:
        evaluate_all(random_density(dims, rng))
    assert sorted(calls) == [2, 3]


def test_cached_operator_stacks_are_read_only():
    ops = bloch._gellmann_operators(3)
    for view in (ops, ops[1:]):
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0
