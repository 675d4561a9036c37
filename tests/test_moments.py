import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmoments import (
    is_psd,
    maximally_mixed,
    mix_white_noise,
    moment_vector,
    moments_of_state,
    pure_product,
    werner,
)
from ctmoments.errors import InsufficientMoments, NegativeSingularValue, NotBipartite
from ctmoments.moments import hankel_matrices
from ctmoments.states import random_density


def test_moment_vector_zero_tensor():
    m = moment_vector(np.zeros(3), K=3, a0=9.0)
    np.testing.assert_allclose(m, [9, 0, 0, 0])


def test_moment_vector_single_value():
    m = moment_vector(np.array([0.5]), K=3, a0=9.0)
    np.testing.assert_allclose(m, [9, 0.5, 0.25, 0.125])


def test_moment_vector_werner_d3():
    # Werner d=3, x=-0.5: eight equal singular values |3x - 1| / 48
    sigma = np.full(8, 2.5 / 48)
    m = moment_vector(sigma, K=3, a0=64.0)
    assert abs(m[1] - 5 / 12) < 1e-14
    assert abs(m[2] - 8 * (2.5 / 48) ** 2) < 1e-16
    assert abs(m[3] - 8 * (2.5 / 48) ** 3) < 1e-16
    from ctmoments import correlation_tensor, singular_values

    sv = singular_values(correlation_tensor(werner(3, -0.5)).entries)
    np.testing.assert_allclose(sv, sigma, atol=1e-13)


def test_moment_vector_rejects_negative_sigma():
    for sigmas in ([0.5, -0.1], [np.nan, 0.5]):
        with pytest.raises(NegativeSingularValue):
            moment_vector(np.array(sigmas), K=2, a0=1.0)


def test_moment_vector_rejects_k_zero():
    with pytest.raises(InsufficientMoments):
        moment_vector(np.array([0.5]), K=0, a0=1.0)


def test_non_integer_order_raises_insufficient_moments():
    rho = maximally_mixed((2, 2))
    for K in (2.5, 2.0, "3"):
        with pytest.raises(InsufficientMoments):
            moment_vector(np.array([0.5]), K=K, a0=1.0)
        with pytest.raises(InsufficientMoments):
            moments_of_state(rho, False, K)
    assert len(moment_vector(np.array([0.5]), K=np.int64(3), a0=1.0)) == 4
    assert len(moments_of_state(rho, False, np.int64(3))) == 4


def test_moment_vector_permutation_invariant():
    rng = np.random.default_rng(2)
    s = rng.uniform(0, 1, size=6)
    a = moment_vector(s, K=5, a0=3.0)
    b = moment_vector(rng.permutation(s), K=5, a0=3.0)
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_moments_of_maximally_mixed_plain():
    m = moments_of_state(maximally_mixed((2, 2)), canonical=False)
    np.testing.assert_allclose(m, [9, 0, 0, 0, 0])


def test_moments_of_maximally_mixed_canonical():
    m = moments_of_state(maximally_mixed((3, 3)), canonical=True)
    assert m[0] == 81.0
    for k in range(1, 10):
        assert abs(m[k] - 9.0 ** (-k)) < 1e-15


def test_moments_of_pure_product_canonical():
    m = moments_of_state(pure_product([[1, 0], [1, 0]]), canonical=True)
    assert abs(m[1] - 0.5) < 1e-12
    assert abs(m[2] - 0.25) < 1e-12


def test_moments_require_bipartite():
    with pytest.raises(NotBipartite):
        moments_of_state(maximally_mixed((2, 2, 2)), canonical=False)


def test_hankel_layout_two_qubits():
    a = moment_vector(np.array([0.3, 0.2]), K=4, a0=9.0)
    c = 0.77
    h_hat, b_hat = hankel_matrices(a, c)
    assert len(h_hat) == 2 and len(b_hat) == 1
    np.testing.assert_allclose(h_hat[0], [[9, c], [c, a[2]]])
    np.testing.assert_allclose(
        h_hat[1],
        [[9, c, a[2]], [c, a[2], a[3]], [a[2], a[3], a[4]]],
    )
    np.testing.assert_allclose(b_hat[0], [[c, a[2]], [a[2], a[3]]])


@pytest.mark.parametrize("D", range(1, 13))
def test_hankel_entries_are_moments(D):
    # [H_k]_{ij} = a_{i+j} and [B_l]_{ij} = a_{i+j+1}, with a_1 substituted
    m = moment_vector(np.linspace(0.1, 0.9, D), K=D, a0=float(D * D))
    c = 0.77
    a = m.tolist()
    a[1] = c
    h_hat, b_hat = hankel_matrices(m, c)
    for mats, shift, count in ((h_hat, 0, D // 2), (b_hat, 1, (D - 1) // 2)):
        assert [mat.shape for mat in mats] == [(k + 1, k + 1) for k in range(1, count + 1)]
        for mat in mats:
            for (i, j), entry in np.ndenumerate(mat):
                assert entry == a[i + j + shift], (shift, i, j)


def test_hankel_zero_moments_b1_psd():
    m = moment_vector(np.zeros(3), K=4, a0=9.0)
    _, b_hat = hankel_matrices(m, 0.25)
    np.testing.assert_allclose(b_hat[0], [[0.25, 0], [0, 0]])
    assert is_psd(b_hat[0])


def test_werner_d2_x0_b1_hat_psd():
    # sigma = 1/12 each; check 1/4 * a3 >= a2^2 via the Hankel matrix
    m = moments_of_state(werner(2, 0.0), canonical=False)
    np.testing.assert_allclose(m[2], 3 / 144, atol=1e-14)
    np.testing.assert_allclose(m[3], 3 / 1728, atol=1e-15)
    _, b_hat = hankel_matrices(m, 0.25)
    assert is_psd(b_hat[0])


def test_holder_chain_on_random_states():
    # a2^2 <= a1 a3 with the actual a1 holds for every state
    rng = np.random.default_rng(31)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(25):
            rho = random_density(dims, rng)
            for canonical in (False, True):
                m = moments_of_state(rho, canonical=canonical)
                assert m[2] ** 2 <= m[1] * m[3] + 1e-12
                for k in range(2, len(m) - 1):
                    assert m[k] ** 2 <= m[k - 1] * m[k + 1] + 1e-12


def test_unsubstituted_hankel_psd_on_random_states():
    rng = np.random.default_rng(37)
    for dims in [(2, 2), (3, 3)]:
        for _ in range(20):
            rho = random_density(dims, rng)
            for canonical in (False, True):
                m = moments_of_state(rho, canonical=canonical)
                h_hat, b_hat = hankel_matrices(m, m[1])
                for mat in h_hat + b_hat:
                    assert is_psd(mat)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
    seed=st.integers(0, 2**32 - 1),
    x=st.floats(0.05, 1.0),
)
def test_plain_moments_homogeneous_under_white_noise(dims, seed, x):
    # the plain tensor of I/D vanishes, so T(x) = x T(1) and a_k(x) = x^k a_k(1)
    rho = random_density(dims, np.random.default_rng(seed))
    want = moments_of_state(rho, canonical=False, K=4)
    got = moments_of_state(mix_white_noise(rho, x), canonical=False, K=4)
    for k in range(1, 5):
        assert abs(got[k] - x**k * want[k]) <= 1e-11 * x**k * want[k], k
