import numpy as np
import pytest

from ctmoments.basis import gellmann_generators
from ctmoments.bloch import _gellmann_operators
from ctmoments.errors import InvalidDimension

PAULIS = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_d2_gives_paulis():
    gens = gellmann_generators(2)
    assert len(gens) == 3
    for g, p in zip(gens, PAULIS):
        np.testing.assert_allclose(g, p)


def test_rejects_d_below_2():
    with pytest.raises(InvalidDimension):
        gellmann_generators(1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_generator_invariants(d):
    gens = gellmann_generators(d)
    assert len(gens) == d * d - 1
    for g in gens:
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
        assert abs(np.trace(g)) <= 1e-14
    gram = np.array(
        [[np.trace(a @ b).real for b in gens] for a in gens]
    )
    np.testing.assert_allclose(gram, 2 * np.eye(len(gens)), atol=1e-12)


def test_d4_gram_matrix():
    gens = gellmann_generators(4)
    assert len(gens) == 15
    gram = np.array([[np.trace(a @ b).real for b in gens] for a in gens])
    np.testing.assert_allclose(gram, 2 * np.eye(15), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expansion_completeness(d):
    # any Hermitian H = (Tr H / d) I + sum_i (Tr(H lam_i) / 2) lam_i
    rng = np.random.default_rng(d)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (x + x.conj().T) / 2
    rebuilt = np.trace(h) / d * np.eye(d, dtype=complex)
    for g in gellmann_generators(d):
        rebuilt += np.trace(h @ g) / 2 * g
    np.testing.assert_allclose(rebuilt, h, atol=1e-12)


def test_extended_operator_stack_leads_with_identity():
    # the extended tensor's operators: I/d, then each generator / 2
    ops = _gellmann_operators(3)
    assert ops.shape == (9, 3, 3)
    np.testing.assert_allclose(ops[0], np.eye(3) / 3)
    np.testing.assert_allclose(ops[1:], np.asarray(gellmann_generators(3)) / 2)
