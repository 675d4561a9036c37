import itertools

import numpy as np
import pytest

from ctmoments._kernels import expectation_tensor
from ctmoments.basis import gellmann_generators
from ctmoments.states import random_density


def brute_force_expectations(rho, op_stacks):
    """Direct Tr(rho * O_1 (x) ... (x) O_n) over the full product grid."""
    counts = tuple(len(s) for s in op_stacks)
    out = np.empty(counts, dtype=complex)
    for idx in itertools.product(*(range(c) for c in counts)):
        full = np.array([[1.0]], dtype=complex)
        for k, i in enumerate(idx):
            full = np.kron(full, op_stacks[k][i])
        out[idx] = np.trace(rho @ full)
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_numpy_kernel_matches_brute_force(dims):
    rng = np.random.default_rng(sum(dims))
    rho = random_density(dims, rng).mat
    op_stacks = [np.stack([np.eye(d)] + gellmann_generators(d)) for d in dims]
    got = expectation_tensor(rho, op_stacks, tuple(dims))
    want = brute_force_expectations(rho, op_stacks)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ragged_stack_shapes():
    rng = np.random.default_rng(2)
    rho = random_density((2, 3), rng).mat
    stacks = [
        rng.normal(size=(2, 2, 2)) + 0j,
        rng.normal(size=(5, 3, 3)) + 0j,
    ]
    got = expectation_tensor(rho, stacks, (2, 3))
    assert got.shape == (2, 5)
    np.testing.assert_allclose(got, brute_force_expectations(rho, stacks), atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2)])
def test_kernel_matches_brute_force_on_uneven_shapes(dims):
    # unequal neighbouring dimensions catch a wrong axis order after the
    # per-mode transposes, which equal dimensions would hide
    rng = np.random.default_rng(31)
    rho = random_density(dims, rng).mat
    stacks = [
        rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
        for m, d in zip((3, 5, 2), dims)
    ]
    got = expectation_tensor(rho, stacks, dims)
    assert got.shape == tuple(len(s) for s in stacks)
    np.testing.assert_allclose(got, brute_force_expectations(rho, stacks), atol=1e-12)
