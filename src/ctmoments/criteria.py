"""Separability criteria: moment inequalities, Hankel positivity, baselines.

Every criterion is one-sided: a violation certifies entanglement, while
passing says nothing. Reports share one shape and one rule: the tested
quantity, the separable bound, margin = quantity - bound, and
violated = margin > tol.

Each state is analysed once, as part of a stack of states that share
their dims: evaluate_all is a stack of one, and a threshold search scores
its coarse grid in stacks. `_Analysis` builds the stacked extended
correlation tensor T~ on first use, takes the plain tensor T as its
[..., 1:, ..., 1:] block, and keeps the stacked singular values and power
sums a1..a3 of every unfolding it is asked for, so a stack costs at most
one tensor build, one stacked SVD and one set of power sums per (tensor,
mode). thm2 runs one Lanczos recurrence over the whole stack. Every
criterion is one entry of `_REGISTRY`, which fixes its name, its place in
evaluate_all's order and whether it needs a bipartite state. An entry maps
the analysis to columns over the stack, (quantity, bound, details), and
`_evaluate` alone checks tol and the names and turns the columns into
reports; the public functions are thin wrappers over evaluate_all.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial, reduce
from itertools import repeat
from math import isfinite, prod, sqrt

import numpy as np

from .bloch import CorrelationTensor, _plain, correlation_tensor, unfold
from .errors import NotBipartite, ParamOutOfRange, UnknownCriterion
from .linalg import (
    DensityMatrix,
    hermitian_eigenvalues,
    partial_transpose,
    realign,
    singular_values,
    trace_norm,
)
from .moments import _power_sums

DEFAULT_TOL = 1e-9
# thm2's Krylov space is exhausted once a Lanczos residual (x <= 1) falls to
# this; two Gram-Schmidt passes leave rounding near 1e-15
LANCZOS_BREAKDOWN = 1e-13


@dataclass(frozen=True)
class CriterionReport:
    name: str
    quantity: float
    bound: float
    violated: bool
    margin: float
    detail: dict | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def multi_plain_bound(dims) -> float:
    return sqrt(prod(d - 1 for d in dims) / prod(2 * d for d in dims))


def multi_canonical_bound(dims) -> float:
    return sqrt(prod(d * d - d + 2 for d in dims) / prod(2 * d * d for d in dims))


def dv_bound(d1: int, d2: int) -> float:
    return multi_plain_bound((d1, d2))


def li_bound(d1: int, d2: int) -> float:
    return multi_canonical_bound((d1, d2))


class _Analysis:
    """Correlation data of a stack of states, each piece computed on first use.

    It holds the states' dims and their matrices as mat, a stack
    (N, D, D): the two fields that correlation_tensor, partial_transpose
    and realign read, so each of them acts on the whole stack at once.
    """

    def __init__(self, dims: tuple[int, ...], mat: np.ndarray):
        self.dims = dims
        self.mat = mat
        # the separable bound on every unfolding's trace norm, indexed by extended
        self.bounds = (multi_plain_bound(dims), multi_canonical_bound(dims))
        self._extended: CorrelationTensor | None = None
        self._sigmas: dict[tuple[bool, int], np.ndarray] = {}
        self._power_sums: dict[tuple[bool, int], list] = {}

    def tensor(self, extended: bool) -> CorrelationTensor:
        if self._extended is None:
            self._extended = correlation_tensor(self, extended=True)
        return self._extended if extended else _plain(self._extended)

    def _key(self, extended: bool, mode: int) -> tuple[bool, int]:
        # at n = 2 the mode-2 unfolding is the transpose of mode 1
        return extended, 1 if len(self.dims) == 2 else mode

    def sigmas(self, extended: bool, mode: int) -> np.ndarray:
        """Singular values (N, r) of the mode-k unfoldings of T~ (extended) or T.

        At n = 2 both modes share one SVD.
        """
        key = self._key(extended, mode)
        if key not in self._sigmas:
            self._sigmas[key] = singular_values(unfold(self.tensor(extended), mode))
        return self._sigmas[key]

    def power_sums(self, extended: bool, mode: int) -> list:
        """[a1, a2, a3], each (N,), of the same unfolding as sigmas."""
        key = self._key(extended, mode)
        if key not in self._power_sums:
            self._power_sums[key] = _power_sums(self.sigmas(*key), 3)
        return self._power_sums[key]


def _ppt(a: _Analysis):
    lam_min = hermitian_eigenvalues(partial_transpose(a))[:, -1]
    return -lam_min, 0.0, [{"min_eigenvalue": lam} for lam in lam_min.tolist()]


def _ccnr(a: _Analysis):
    return trace_norm(realign(a)), 1.0, None


def _trace_norm_test(extended: bool, a: _Analysis):
    """Max over mode-k unfoldings of the trace norm of T~ (li) or T (dv)."""
    norms = (a.sigmas(extended, k).sum(axis=-1) for k in range(1, len(a.dims) + 1))
    return reduce(np.maximum, norms), a.bounds[extended], None


def _moment_sides(extended: bool, a: _Analysis, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """(m2^2, bound * m3) of the mode-k unfoldings; separable states keep <=."""
    _, m2, m3 = a.power_sums(extended, mode)
    return m2 * m2, a.bounds[extended] * m3


def _thm1(canonical: bool, a: _Analysis):
    return (*_moment_sides(canonical, a, 1), None)


def _required_a1(s: np.ndarray, steps: int) -> np.ndarray:
    """Smallest a_1 keeping B_1..B_steps PSD, given the other moments of each
    row of s (N, r); returns (N, steps).

    B_l is the moment matrix of mu = sum_i s_i delta_{s_i}, so B_l(beta) is
    PSD exactly when beta >= ||P_l 1||^2_mu, P_l projecting onto
    span{x, ..., x^l}: a weighted least-squares problem, solved by a Lanczos
    recurrence on x = s / max(s) with full reorthogonalisation, one for the
    whole stack. Once a row's Krylov space stops growing it holds 1, and
    that row's answer is a_1 from then on.
    """
    a1 = s.sum(axis=-1, keepdims=True)
    top = s.max(axis=-1, keepdims=True)
    x = (s / np.where(top > 0, top, 1.0))[:, None, :]  # rows (N, 1, r)
    one = np.sqrt(x)
    basis = np.zeros((len(s), steps, s.shape[-1]))
    norms = np.zeros((len(s), 1, steps))
    w = x * one
    for l in range(steps):
        b = basis[:, :l]
        for _ in range(2 if l else 0):  # nothing to orthogonalise against at l = 0
            w -= (w @ b.swapaxes(1, 2)) @ b
        norm = np.sqrt(w @ w.swapaxes(1, 2), out=norms[:, :, l:l + 1])
        if norm.max() <= LANCZOS_BREAKDOWN:
            break
        # a row past its breakdown runs on bounded values; masked below
        q = np.divide(w, np.maximum(norm, LANCZOS_BREAKDOWN), out=basis[:, l:l + 1])
        w = x * q
    total = np.cumsum((basis @ one.swapaxes(1, 2))[..., 0] ** 2, axis=-1)
    growing = np.logical_and.accumulate(norms[:, 0] > LANCZOS_BREAKDOWN, axis=-1)
    # Bessel: ||P_l 1||^2 <= a_1
    return np.where(growing, np.minimum(top * total, a1), a1)


def _thm2(canonical: bool, a: _Analysis):
    """B_l stays PSD with the separable bound as a_1, for l = 1..(D-1)//2."""
    bound = a.bounds[canonical]
    required = _required_a1(a.sigmas(canonical, 1), (prod(a.dims) - 1) // 2)
    _, m2, m3 = a.power_sums(canonical, 1)
    # lambda_min of B_1 = [[bound, m2], [m2, m3]] as det / lambda_max: its
    # sign is that of -(thm1 margin), computed from the same sums
    m2_sq = m2 * m2
    lam_max = 0.5 * (bound + m3) + np.sqrt(0.25 * (bound - m3) ** 2 + m2_sq)
    b_min = (bound * m3 - m2_sq) / lam_max
    details = [
        {"substituted_a1": bound, "required_a1": req, "b_min_eigenvalues": [lam]}
        for req, lam in zip(required.tolist(), b_min.tolist())
    ]
    return required.max(axis=-1), bound, details


def _thm3(extended: bool, a: _Analysis):
    """Per-mode test of m2^2 <= bound * m3 over all unfoldings."""
    sides = [
        [side.tolist() for side in _moment_sides(extended, a, mode)]
        for mode in range(1, len(a.dims) + 1)
    ]
    worst, details = [], []
    for k in range(len(a.mat)):
        modes = [
            {"mode": mode, "quantity": q[k], "bound": rhs[k], "margin": q[k] - rhs[k]}
            for mode, (q, rhs) in enumerate(sides, start=1)
        ]
        worst.append(max(modes, key=lambda m: m["margin"]))
        details.append({"modes": modes})
    return [m["quantity"] for m in worst], [m["bound"] for m in worst], details


# name -> (bipartite only, fn(analysis) -> (quantity, bound, details)), in
# report order; the columns hold one quantity per state, one bound per state
# or one shared, and one detail dict per state or None
_REGISTRY = {
    "ppt": (True, _ppt),
    "ccnr": (True, _ccnr),
    "dv": (False, partial(_trace_norm_test, False)),
    "li": (False, partial(_trace_norm_test, True)),
    "thm1-plain": (True, partial(_thm1, False)),
    "thm1-canonical": (True, partial(_thm1, True)),
    "thm2-plain": (True, partial(_thm2, False)),
    "thm2-canonical": (True, partial(_thm2, True)),
    "thm3-plain": (False, partial(_thm3, False)),
    "thm3-canonical": (False, partial(_thm3, True)),
}


def theorem1(
    rho: DensityMatrix, tol: float = DEFAULT_TOL
) -> tuple[CriterionReport, CriterionReport]:
    """Moment inequalities a2^2 <= dv_bound * a3 and b2^2 <= li_bound * b3."""
    return tuple(evaluate_all(rho, tol, ["thm1-plain", "thm1-canonical"]))


def theorem2(
    rho: DensityMatrix, tol: float = DEFAULT_TOL
) -> tuple[CriterionReport, CriterionReport]:
    """Positivity of the Hankel matrices B_l with a_1 replaced by the bound.

    The quantity is max_l required_a1[l], the least a_1 that keeps B_l PSD
    for l = 1..floor((d1 d2 - 1) / 2); the bound is dv_bound (plain) or
    li_bound (canonical). required_a1 rises from a2^2 / a3 (thm1) to at
    most a_1 (dv, li). detail holds substituted_a1, required_a1 and
    b_min_eigenvalues = [lambda_min(B_1)].
    """
    return tuple(evaluate_all(rho, tol, ["thm2-plain", "thm2-canonical"]))


def theorem3(
    rho: DensityMatrix, tol: float = DEFAULT_TOL
) -> tuple[CriterionReport, CriterionReport]:
    """Multipartite moment inequalities over every mode-k unfolding.

    The tensor moments are evaluated per unfolding; the state is flagged
    if the inequality fails in at least one mode (each unfolding's trace
    norm obeys the separable bound, so per-mode evaluation stays sound).
    """
    return tuple(evaluate_all(rho, tol, ["thm3-plain", "thm3-canonical"]))


def dv_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Trace-norm bound on the plain correlation tensor."""
    return evaluate_all(rho, tol, ["dv"])[0]


def li_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Trace-norm bound on the extended (canonical) correlation tensor."""
    return evaluate_all(rho, tol, ["li"])[0]


def ppt_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Negative eigenvalue of the partial transpose certifies entanglement.

    The quantity is -lambda_min and the bound is 0.
    """
    return evaluate_all(rho, tol, ["ppt"])[0]


def ccnr_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Trace norm of the realigned matrix exceeding 1 certifies entanglement."""
    return evaluate_all(rho, tol, ["ccnr"])[0]


def evaluate_all(
    rho: DensityMatrix,
    tol: float = DEFAULT_TOL,
    names: list[str] | None = None,
) -> list[CriterionReport]:
    """Run the named criteria on one shared analysis of rho.

    Returns one report per name, in the order named: its quantity and
    separable bound, margin = quantity - bound and violated = margin > tol.
    names defaults to every criterion that applies to rho, in registry
    order. Before anything is computed, a tol that is not finite and >= 0
    raises ParamOutOfRange, an empty list or an unknown name raises
    UnknownCriterion, and a bipartite-only name on a state of more than
    two parties raises NotBipartite.
    """
    (reports,) = _evaluate(rho.dims, rho.mat[None], tol, names)
    return reports


def _evaluate(dims, mat, tol, names) -> list[list[CriterionReport]]:
    """evaluate_all of each state of the stack mat (N, D, D), one analysis
    for all of them; the states must be valid and share dims. The one place
    that checks tol and the names and applies the margin rule."""
    if not (isfinite(tol) and tol >= 0):
        raise ParamOutOfRange(f"tol must be finite and >= 0, got {tol}")
    if names is None:
        names = [name for name, (bipartite_only, _) in _REGISTRY.items()
                 if len(dims) == 2 or not bipartite_only]
    if not names:
        raise UnknownCriterion("no criteria named")
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise UnknownCriterion(f"unknown criteria: {unknown}")
    bipartite = [name for name in names if _REGISTRY[name][0]]
    if bipartite and len(dims) != 2:
        raise NotBipartite(f"{bipartite} need a bipartite state, got {len(dims)} parties")
    a = _Analysis(dims, mat)
    rows = [[] for _ in mat]
    for name in names:
        quantity, bound, details = _REGISTRY[name][1](a)
        quantity = np.asarray(quantity, dtype=np.float64).tolist()
        bound = np.asarray(bound, dtype=np.float64).tolist()
        bounds = bound if isinstance(bound, list) else repeat(bound)
        for row, q, b, detail in zip(rows, quantity, bounds, details or repeat(None)):
            margin = q - b
            row.append(CriterionReport(name, q, b, margin > tol, margin, detail))
    return rows
