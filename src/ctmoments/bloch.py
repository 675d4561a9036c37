"""Correlation tensors and their mode-k unfoldings.

A state on H_{d1} (x) ... (x) H_{dn} is expanded over tensor products of
the identity and the su(d_k) generators. The "plain" correlation tensor
collects the coefficients of pure generator products (all modes nonzero);
the "extended" tensor additionally carries the identity component in each
mode, so its (0, ..., 0) entry is 1 / prod(d_k) and, for two parties, it
coincides with the canonical correlation matrix
[[1/(d1 d2), s^t], [r, T]]: the Bloch vectors r and s and the matrix T
are its blocks [1:, 0], [0, 1:] and [1:, 1:].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from . import _kernels
from .basis import gellmann_generators
from .errors import InvalidCorrelationTensor, ModeOutOfRange, TooFewParties
from .linalg import DensityMatrix

REALITY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """n-way real tensor of correlation coefficients.

    dims are the subsystem dimensions; entries has shape (d_k^2 - 1,)
    per mode for the plain tensor and (d_k^2,) per mode when extended.
    """

    dims: tuple[int, ...]
    entries: np.ndarray = field(repr=False)
    extended: bool

    @property
    def n(self) -> int:
        return len(self.dims)


def _real_part(raw: np.ndarray) -> np.ndarray:
    imag = float(np.abs(raw.imag).max(initial=0.0))
    if imag > REALITY_ATOL:
        raise InvalidCorrelationTensor(f"correlation entries not real: max imag {imag:.3e}")
    return np.ascontiguousarray(raw.real)


@lru_cache(maxsize=None)
def _gellmann_operators(d: int) -> np.ndarray:
    """The (d^2, d, d) stack I/d, lam_1/2, lam_2/2, ... of one mode, read-only."""
    ops = np.empty((d * d, d, d), dtype=np.complex128)
    ops[0] = np.eye(d) / d
    ops[1:] = np.asarray(gellmann_generators(d)) / 2.0
    ops.flags.writeable = False
    return ops


def correlation_tensor(rho: DensityMatrix, extended: bool = False) -> CorrelationTensor:
    """Correlation tensor of a multipartite state.

    With extended=True index 0 of each mode is the identity and each entry
    carries the prefactor prod_{nonzero modes} d_k / (2^m prod_k d_k) with
    m the number of nonzero indices: 1/d_k per identity slot and 1/2 per
    generator slot, which the operators of each mode carry (cached per d),
    so one contraction yields the entries. The plain tensor T, with entries
    Tr(rho lam_{a1} (x) ... ) / 2^n over nonzero generator indices only, is
    the [1:, ..., 1:] block of T~ and is returned as a view of it.

    rho.mat may be a stack (N, D, D) of states sharing rho.dims; entries
    then carry the leading axis N, and every function here that takes a
    CorrelationTensor acts on its last n axes.
    """
    dims = rho.dims
    n = len(dims)
    if n < 2:
        raise TooFewParties(f"correlation tensor needs >= 2 parties, got {n}")
    raw = _kernels.expectation_tensor(rho.mat, [_gellmann_operators(d) for d in dims], dims)
    entries = _real_part(raw)[(Ellipsis,) + (slice(0 if extended else 1, None),) * n]
    return CorrelationTensor(dims=dims, entries=entries, extended=extended)


def unfold(t: CorrelationTensor, mode: int) -> np.ndarray:
    """Mode-k unfolding: rows indexed by the given mode (1-based).

    Columns enumerate the remaining modes in lexicographic order with the
    lowest remaining mode most significant. A stacked tensor gives a stack
    of unfoldings.
    """
    if not (isinstance(mode, Integral) and 1 <= mode <= t.n):
        raise ModeOutOfRange(f"mode {mode} out of range for {t.n}-way tensor")
    axes = list(range(t.entries.ndim))
    first = len(axes) - t.n  # the tensor's first mode, after any stack axes
    axes.insert(first, axes.pop(first + mode - 1))
    arr = t.entries.transpose(axes)
    return np.ascontiguousarray(arr.reshape(arr.shape[:first + 1] + (-1,)))

