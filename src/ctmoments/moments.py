"""Moment arithmetic on singular values, and the Hankel matrices of a moment
vector: the reference that thm2's recurrence is tested against.

The k-th moment of a matrix with singular values sigma_i is sum_i sigma_i^k;
index 0 holds a conventional ambient value (the number of rows times columns
of the correlation object), not sum sigma^0. A state's singular values come
from criteria's analysis, its one path to a spectrum (moments_of_state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from numbers import Integral

import numpy as np

from .errors import InsufficientMoments, NegativeSingularValue


@dataclass(frozen=True)
class MomentVector:
    """Moments a_0, a_1, ..., a_K of a correlation object.

    values[0] is a_0, the conventional ambient value; values[1:] are the
    power sums.
    """

    values: np.ndarray = field(repr=False)
    dims: tuple[int, ...]

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class HankelPair:
    """Hankel matrices H_hat_k and B_hat_l with a_1 replaced by a bound."""

    h_hat: list[np.ndarray]
    b_hat: list[np.ndarray]


def _power_sums(s: np.ndarray, K: int) -> list:
    """a_1..a_K = sum s^k over the last axis, each power one more product:
    s, s*s, (s*s)*s, ...; a stack (N, r) of spectra gives K arrays (N,)."""
    sums, power = [], s
    for _ in range(K):
        sums.append(power.sum(axis=-1))
        power = power * s
    return sums


def moment_vector(
    sigmas: np.ndarray,
    K: int,
    a0: float,
    dims: tuple[int, ...] = (),
) -> MomentVector:
    """Power sums of the singular values up to order K, with a_0 = a0."""
    s = np.asarray(sigmas, dtype=np.float64)
    if not np.all(s >= 0):
        raise NegativeSingularValue(f"negative or NaN singular value in {s}")
    if not isinstance(K, Integral) or K < 1:
        raise InsufficientMoments(f"K must be an integer >= 1, got {K!r}")
    values = np.array([a0] + _power_sums(s, K))
    return MomentVector(values=values, dims=tuple(dims))


def hankel_matrices(m: MomentVector, substituted_a1: float) -> HankelPair:
    """Build all H_hat_k and B_hat_l from a moment vector.

    [H_k]_{ij} = a_{i+j} for k = 1..floor(D/2), [B_l]_{mn} = a_{m+n+1}
    for l = 1..floor((D-1)/2) with D = d1*d2; every a_1 entry is replaced
    by substituted_a1 (off-diagonal in H, diagonal corner in B). Each
    matrix is a copy of a leading block of the largest one of its kind.
    """
    D = prod(m.dims) if m.dims else m.order
    if m.order < D:
        raise InsufficientMoments(f"need moments up to order {D}, have {m.order}")

    a = np.array(m.values, dtype=np.float64)
    a[1:2] = substituted_a1  # a_1, where the vector has one

    def leading_blocks(n: int, shift: int) -> list[np.ndarray]:
        i = np.arange(n + 1)
        full = a[np.add.outer(i, i) + shift]
        return [full[:k + 1, :k + 1].copy() for k in range(1, n + 1)]

    return HankelPair(h_hat=leading_blocks(D // 2, 0),
                      b_hat=leading_blocks((D - 1) // 2, 1))
