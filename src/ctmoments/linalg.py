"""Dense complex linear algebra kernel shared by the rest of the package.

All functions operate on plain numpy arrays (complex128) and are pure:
no argument is modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import InvalidDimension, NonSquare, NotBipartite, NotHermitian
from .errors import NotNormalized, NotPositive

# the validation rules for any M: max|M - M^dag| <= HERMITICITY_RTOL * scale
# and lambda_min >= -PSD_ATOL * scale, with scale = max(1, max|M|); a density
# matrix also needs |Tr M - 1| <= TRACE_ATOL
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-9


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with subsystem 1 as the most significant index."""
    return np.kron(np.asarray(a), np.asarray(b))


def _check_hermitian(m: np.ndarray) -> float:
    """Raise unless m is square, finite and Hermitian; return its scale."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitian("matrix contains NaN or Inf entries")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    defect = float(np.abs(m - m.conj().T).max(initial=0.0))
    if defect > HERMITICITY_RTOL * scale:
        raise NotHermitian(
            f"matrix is not Hermitian: max|M - M^dag| = {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.1e} * {scale:.3e}"
        )
    return scale


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    _check_hermitian(m)
    return np.linalg.eigvalsh(m)[::-1]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of any matrix, sorted descending (numpy default)."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def trace_norm(m: np.ndarray) -> float:
    """Schatten-1 norm: sum of singular values."""
    return float(np.sum(singular_values(m)))


def is_psd(m: np.ndarray) -> bool:
    """True iff the minimum eigenvalue is >= -PSD_ATOL * max(1, max|m|)."""
    scale = _check_hermitian(m)
    return bool(np.all(np.linalg.eigvalsh(m) >= -PSD_ATOL * scale))


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix together with its tensor-factor dimensions.

    Validated on construction: Hermitian, unit trace, PSD within tolerance.
    Composite indices are row-major over the subsystems, subsystem 1 most
    significant.
    """

    dims: tuple[int, ...]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 2 for d in dims):
            raise InvalidDimension(f"dims must be non-empty and all >= 2, got {dims}")
        m = np.ascontiguousarray(np.asarray(self.mat, dtype=np.complex128))
        object.__setattr__(self, "mat", m)
        dim = prod(dims)
        if m.shape != (dim, dim):
            raise NonSquare(
                f"matrix shape {m.shape} does not match dims {dims} (D = {dim})"
            )
        scale = _check_hermitian(m)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise NotNormalized(f"density matrix trace {tr} differs from 1")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -PSD_ATOL * scale:
            raise NotPositive(f"density matrix has negative eigenvalue {lam_min:.3e}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)


def _require_bipartite(rho: DensityMatrix) -> tuple[int, int]:
    if rho.n_parties != 2:
        raise NotBipartite(f"expected a bipartite state, got {rho.n_parties} parties")
    return rho.dims[0], rho.dims[1]


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Partial transpose of a bipartite state over subsystem 2."""
    d1, d2 = _require_bipartite(rho)
    t = rho.mat.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1)
    return t.reshape(d1 * d2, d1 * d2)


def realign(rho: DensityMatrix) -> np.ndarray:
    """Realignment of a bipartite state.

    Output is d1^2 x d2^2 with row index (i, j) over subsystem-1 basis
    pairs, column index (k, l) over subsystem-2 pairs, and entry
    rho[(i,k),(j,l)].
    """
    d1, d2 = _require_bipartite(rho)
    t = rho.mat.reshape(d1, d2, d1, d2)
    return t.transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
