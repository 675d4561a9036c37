"""Bloch decompositions, correlation tensors, and mode-k unfoldings.

A state on H_{d1} (x) ... (x) H_{dn} is expanded over tensor products of
the identity and the su(d_k) generators. The "plain" correlation tensor
collects the coefficients of pure generator products (all modes nonzero);
the "extended" tensor additionally carries the identity component in each
mode, so its (0, ..., 0) entry is 1 / prod(d_k) and, for two parties, it
coincides with the canonical correlation matrix
[[1/(d1 d2), s^t], [r, T]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .basis import gellmann_generators
from .errors import InvalidCorrelationTensor, InvalidDimension, ModeOutOfRange, TooFewParties
from .linalg import DensityMatrix, _require_bipartite

REALITY_ATOL = 1e-9


@dataclass(frozen=True)
class BlochDecomposition:
    """Bloch vectors r, s and correlation matrix T of a bipartite state."""

    d1: int
    d2: int
    r: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)


@dataclass(frozen=True)
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
    imag = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
    if imag > REALITY_ATOL:
        raise InvalidCorrelationTensor(f"correlation entries not real: max imag {imag:.3e}")
    return np.ascontiguousarray(raw.real)


def _mode_operators(d: int, gens) -> np.ndarray:
    """The (d^2, d, d) stack I/d, gens[0]/2, gens[1]/2, ... of one mode."""
    if len(gens) != d * d - 1 or any(np.shape(g) != (d, d) for g in gens):
        raise InvalidDimension(f"d = {d} needs {d * d - 1} operators of shape ({d}, {d})")
    ops = np.empty((d * d, d, d), dtype=np.complex128)
    ops[0] = np.eye(d) / d
    ops[1:] = np.asarray(gens, dtype=np.complex128) / 2.0
    return ops


@lru_cache(maxsize=None)
def _gellmann_operators(d: int) -> np.ndarray:
    """_mode_operators of the Gell-Mann basis, built once per d, read-only."""
    ops = _mode_operators(d, gellmann_generators(d))
    ops.flags.writeable = False
    return ops


def correlation_tensor(
    rho: DensityMatrix,
    extended: bool = False,
    bases: list[list[np.ndarray]] | None = None,
) -> CorrelationTensor:
    """Correlation tensor of a multipartite state.

    With extended=False the entries are Tr(rho lam_{a1} (x) ... ) / 2^n
    over nonzero generator indices only. With extended=True index 0 of
    each mode is the identity and each entry carries the prefactor
    prod_{nonzero modes} d_k / (2^m prod_k d_k) with m the number of
    nonzero indices. Both are products of 1/d_k per identity slot and 1/2
    per generator slot, so the operators of each mode carry their factor
    (cached per d) and one contraction yields the entries.

    An explicit basis of d_k^2 - 1 generators per mode may be supplied for
    testing; it must use the same Tr(lam_i lam_j) = 2 delta_ij normalization.
    """
    dims = rho.dims
    n = rho.n_parties
    if n < 2:
        raise TooFewParties(f"correlation tensor needs >= 2 parties, got {n}")
    if bases is None:
        stacks = [_gellmann_operators(d) for d in dims]
    elif len(bases) != n:
        raise InvalidDimension(f"{len(bases)} bases supplied for {n} parties")
    else:
        stacks = [_mode_operators(d, g) for d, g in zip(dims, bases)]
    first = 0 if extended else 1
    raw = _kernels.expectation_tensor(rho.mat, [s[first:] for s in stacks], dims)
    return CorrelationTensor(dims=dims, entries=_real_part(raw), extended=extended)


def decompose_bipartite(rho: DensityMatrix) -> BlochDecomposition:
    """Bloch coefficients r_i, s_j, T_ij of a bipartite state."""
    d1, d2 = _require_bipartite(rho)
    ext = correlation_tensor(rho, extended=True).entries
    return BlochDecomposition(
        d1=d1,
        d2=d2,
        r=np.ascontiguousarray(ext[1:, 0]),
        s=np.ascontiguousarray(ext[0, 1:]),
        T=np.ascontiguousarray(ext[1:, 1:]),
    )


def canonical_matrix(dec: BlochDecomposition) -> np.ndarray:
    """Canonical correlation matrix [[1/(d1 d2), s^t], [r, T]]."""
    d1sq = dec.d1 * dec.d1
    d2sq = dec.d2 * dec.d2
    out = np.empty((d1sq, d2sq), dtype=np.float64)
    out[0, 0] = 1.0 / (dec.d1 * dec.d2)
    out[0, 1:] = dec.s
    out[1:, 0] = dec.r
    out[1:, 1:] = dec.T
    return out


def unfold(t: CorrelationTensor, mode: int) -> np.ndarray:
    """Mode-k unfolding: rows indexed by the given mode (1-based).

    Columns enumerate the remaining modes in lexicographic order with the
    lowest remaining mode most significant.
    """
    if not 1 <= mode <= t.n:
        raise ModeOutOfRange(f"mode {mode} out of range for {t.n}-way tensor")
    arr = np.moveaxis(t.entries, mode - 1, 0)
    return np.ascontiguousarray(arr.reshape(arr.shape[0], -1))

