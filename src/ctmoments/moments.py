"""Moment arithmetic on singular values, and the Hankel matrices of a moment
vector: the reference that thm2's recurrence is tested against.

The k-th moment of a matrix with singular values sigma_i is sum_i sigma_i^k;
a moment vector is the float array [a_0, a_1, ..., a_K], where index 0 holds
a conventional ambient value (the number of rows times columns of the
correlation object), not sum sigma^0. A state's singular values come from
criteria's analysis, its one path to a spectrum (moments_of_state).
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .errors import InsufficientMoments, NegativeSingularValue


def _power_sums(s: np.ndarray, K: int) -> list:
    """a_1..a_K = sum s^k over the last axis, each power one more product:
    s, s*s, (s*s)*s, ...; a stack (N, r) of spectra gives K arrays (N,)."""
    sums, power = [], s
    for _ in range(K):
        sums.append(power.sum(axis=-1))
        power = power * s
    return sums


def moment_vector(sigmas: np.ndarray, K: int, a0: float) -> np.ndarray:
    """[a_0, ..., a_K]: a0, then the power sums of the singular values."""
    s = np.asarray(sigmas, dtype=np.float64)
    if not np.all(s >= 0):
        raise NegativeSingularValue(f"negative or NaN singular value in {s}")
    if not isinstance(K, Integral) or K < 1:
        raise InsufficientMoments(f"K must be an integer >= 1, got {K!r}")
    return np.array([a0] + _power_sums(s, K))


def hankel_matrices(m: np.ndarray, substituted_a1: float) -> tuple[list, list]:
    """(h_hat, b_hat): every H_hat_k and B_hat_l of the moments m = [a_0..a_D].

    [H_k]_{ij} = a_{i+j} for k = 1..floor(D/2), [B_l]_{mn} = a_{m+n+1}
    for l = 1..floor((D-1)/2), with D = len(m) - 1; every a_1 entry is
    replaced by substituted_a1 (off-diagonal in H, diagonal corner in B).
    Each matrix is a copy of a leading block of the largest one of its kind.
    """
    D = len(m) - 1
    a = np.array(m, dtype=np.float64)
    a[1:2] = substituted_a1  # a_1, where the vector has one

    def leading_blocks(n: int, shift: int) -> list[np.ndarray]:
        i = np.arange(n + 1)
        full = a[np.add.outer(i, i) + shift]
        return [full[:k + 1, :k + 1].copy() for k in range(1, n + 1)]

    return leading_blocks(D // 2, 0), leading_blocks((D - 1) // 2, 1)
