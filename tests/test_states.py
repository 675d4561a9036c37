import numpy as np
import pytest

from ctmoments import (
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
from ctmoments.errors import ParamOutOfRange, UnnormalizedVector
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
        assert np.array_equal(werner(d, x).mat, want)


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
    assert is_psd(partial_transpose(rho), 1e-9)


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
    with pytest.raises(UnnormalizedVector):
        pure_product([[1, 1], [1, 0]])


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
    assert is_psd(partial_transpose(rho), 1e-9)


def test_random_separable_is_ppt():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = random_separable((2, 2), rng)
        assert is_psd(partial_transpose(rho), 1e-9)
