"""Dense complex linear algebra kernel shared by the rest of the package.

All functions operate on plain numpy arrays (complex128) and are pure:
no argument is modified in place. Validation checks one matrix, in Python
floats; the other matrix functions also act on the last two axes of a stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import inf, isfinite, prod
from numbers import Integral

import numpy as np

from .errors import InvalidDimension, NonSquare, NotBipartite, NotHermitian
from .errors import NotNormalized, NotPositive

# the validation rules for any M: max|M - M^dag| <= HERMITICITY_RTOL * scale
# and lambda_min >= -PSD_ATOL * scale, with scale = max(1, max|M|); a density
# matrix also needs |Tr M - 1| <= TRACE_ATOL
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-9
_PAGES = ("SC_PHYS_PAGES", "SC_PAGE_SIZE")  # their product is physical memory, not a cgroup limit
_MAX_BYTES = min(np.iinfo(np.intp).max, prod(map(os.sysconf, _PAGES))  # what numpy and memory hold
                 if {*_PAGES} <= {*getattr(os, "sysconf_names", ())} else inf)


def _check_hermitian(m: np.ndarray, defect=None) -> tuple[float, float]:
    """Raise unless m is one square, finite, Hermitian matrix (2-D, not a stack).

    Returns the floats scale = max(1, max|M|) and defect = max|M - M^dag|; a
    caller that knows the defect in closed form passes it.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    # NaN or Inf if any entry is; the ufunc's own reduce skips max()'s wrappers
    peak = float(np.maximum.reduce(np.abs(m), axis=None, initial=0.0))
    if not isfinite(peak):
        raise NotHermitian("matrix contains NaN or Inf entries")
    scale = max(1.0, peak)
    if defect is None:
        defect = float(np.abs(m - m.T.conj()).max(initial=0.0))
    if defect > HERMITICITY_RTOL * scale:
        raise NotHermitian(
            f"matrix is not Hermitian: max|M - M^dag| = {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.1e} * {scale:.3e}"
        )
    return scale, defect


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    _check_hermitian(m)
    return np.linalg.eigvalsh(m)[::-1]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of any matrix, sorted descending (numpy default)."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def trace_norm(m: np.ndarray) -> float | np.ndarray:
    """Schatten-1 norm: sum of singular values, one per matrix of a stack."""
    return np.sum(singular_values(m), axis=-1)


def is_psd(m: np.ndarray) -> bool:
    """True iff the minimum eigenvalue of the Hermitian matrix m is
    >= -PSD_ATOL * max(1, max|m|)."""
    scale, _ = _check_hermitian(m)
    return bool(np.all(np.linalg.eigvalsh(m) >= -PSD_ATOL * scale))


def _check_dims(dims) -> tuple[int, ...]:
    """dims as a tuple of ints, else InvalidDimension: a non-empty sequence,
    each entry a Python or numpy integer >= 2 (not a float or a string),
    whose product D keeps the D x D complex128 matrix, 16 D^2 bytes, within _MAX_BYTES."""
    try:
        dims = tuple(dims)
    except TypeError:
        raise InvalidDimension(f"dims must be a sequence of integers, got {dims!r}") from None
    if not dims or not all(isinstance(d, Integral) and d >= 2 for d in dims):
        raise InvalidDimension(f"dims must be non-empty integers >= 2, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    dim = prod(dims)
    if 16 * dim * dim > _MAX_BYTES:
        raise InvalidDimension(f"dims {dims} need {16 * dim * dim} bytes; at most {_MAX_BYTES} fit")
    return dims


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix together with its tensor-factor dimensions.

    Validated on construction: Hermitian, unit trace, PSD within tolerance.
    Composite indices are row-major over the subsystems, subsystem 1 most
    significant. The Hermiticity defect and lambda_min the rules were
    applied to are kept as _defect and _lam_min.
    """

    dims: tuple[int, ...]
    mat: np.ndarray = field(repr=False)
    _defect: float = field(init=False, repr=False, compare=False)
    _lam_min: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = _check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        try:  # a ragged list or a string has no shape to match
            object.__setattr__(self, "mat", np.ascontiguousarray(self.mat, dtype=np.complex128))
        except (TypeError, ValueError) as exc:
            raise NonSquare(f"matrix is not an array of numbers: {exc}") from None
        m, dim = self.mat, prod(dims)
        if m.shape != (dim, dim):
            raise NonSquare(f"matrix shape {m.shape} does not match dims {dims} (D = {dim})")
        self._apply_rules()

    def _apply_rules(self, defect=None, lam_min=None) -> None:
        """The Hermitian, trace and PSD rules; measures what is not given."""
        m = self.mat
        scale, defect = _check_hermitian(m, defect)
        tr = complex(m.trace())
        if abs(tr - 1.0) > TRACE_ATOL:
            raise NotNormalized(f"density matrix trace {tr} differs from 1")
        if lam_min is None:
            lam_min = np.linalg.eigvalsh(m)[0]
        if lam_min < -PSD_ATOL * scale:
            raise NotPositive(f"density matrix has negative eigenvalue {lam_min:.3e}")
        object.__setattr__(self, "_defect", float(defect))
        object.__setattr__(self, "_lam_min", float(lam_min))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)


def _derived_state(dims: tuple[int, ...], mat, lam_min: float, defect: float):
    """A state of validated dims (a tuple of ints, kept as given) whose
    lambda_min and Hermiticity defect are known in closed form: the same
    rules as DensityMatrix, with those two residuals given instead of
    measured (the trace and scale still are)."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "dims", dims)
    object.__setattr__(rho, "mat", np.ascontiguousarray(mat, dtype=np.complex128))
    rho._apply_rules(defect, lam_min)
    return rho


def _require_bipartite(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise NotBipartite(f"expected a bipartite state, got {len(rho.dims)} parties")
    return rho.dims[0], rho.dims[1]


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Partial transpose of a bipartite state over subsystem 2.

    rho.mat may be a stack (..., D, D); so is the result.
    """
    d1, d2 = _require_bipartite(rho)
    batch = rho.mat.shape[:-2]
    t = rho.mat.reshape(batch + (d1, d2, d1, d2)).swapaxes(-3, -1)
    return t.reshape(batch + (d1 * d2, d1 * d2))


def realign(rho: DensityMatrix) -> np.ndarray:
    """Realignment of a bipartite state.

    Output is d1^2 x d2^2 with row index (i, j) over subsystem-1 basis
    pairs, column index (k, l) over subsystem-2 pairs, and entry
    rho[(i,k),(j,l)]. rho.mat may be a stack (..., D, D); so is the result.
    """
    d1, d2 = _require_bipartite(rho)
    batch = rho.mat.shape[:-2]
    t = rho.mat.reshape(batch + (d1, d2, d1, d2)).swapaxes(-3, -2)
    return t.reshape(batch + (d1 * d1, d2 * d2))
