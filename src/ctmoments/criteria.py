"""Separability criteria: moment inequalities, Hankel positivity, baselines.

Every criterion is one-sided: a violation certifies entanglement, while
passing says nothing. Reports share one shape and one rule: the tested
quantity, the separable bound, margin = quantity - bound, and
violated = margin > tol.

Each state is analysed once. `_Analysis` builds the extended correlation
tensor T~ on first use, takes the plain tensor T as its [1:, ..., 1:]
block, and keeps the singular values of every unfolding it is asked for,
so a state costs at most one tensor build and one SVD per (tensor, mode).
Every criterion is one entry of `_REGISTRY`, which fixes its name, its
place in evaluate_all's order and whether it needs a bipartite state;
the public functions are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
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
    """Correlation data of one state, each piece computed on first use."""

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.dims = rho.dims
        # the separable bound on every unfolding's trace norm, indexed by extended
        self.bounds = (multi_plain_bound(self.dims), multi_canonical_bound(self.dims))
        self._extended: CorrelationTensor | None = None
        self._sigmas: dict[tuple[bool, int], np.ndarray] = {}

    def tensor(self, extended: bool) -> CorrelationTensor:
        if self._extended is None:
            self._extended = correlation_tensor(self.rho, extended=True)
        return self._extended if extended else _plain(self._extended)

    def sigmas(self, extended: bool, mode: int) -> np.ndarray:
        """Singular values of the mode-k unfolding of T~ (extended) or T.

        At n = 2 the mode-2 unfolding is the transpose of mode 1, so both
        modes share one SVD.
        """
        if len(self.dims) == 2:
            mode = 1
        key = (extended, mode)
        if key not in self._sigmas:
            self._sigmas[key] = singular_values(unfold(self.tensor(extended), mode))
        return self._sigmas[key]


def _report(name, quantity, bound, tol, detail=None) -> CriterionReport:
    margin = quantity - bound
    return CriterionReport(
        name=name,
        quantity=float(quantity),
        bound=float(bound),
        violated=bool(margin > tol),
        margin=float(margin),
        detail=detail,
    )


def _kind(canonical: bool) -> str:
    return "canonical" if canonical else "plain"


def _ppt(a: _Analysis, tol) -> CriterionReport:
    lam_min = float(hermitian_eigenvalues(partial_transpose(a.rho))[-1])
    return _report("ppt", -lam_min, 0.0, tol, {"min_eigenvalue": lam_min})


def _ccnr(a: _Analysis, tol) -> CriterionReport:
    return _report("ccnr", trace_norm(realign(a.rho)), 1.0, tol)


def _trace_norm_test(extended: bool, a: _Analysis, tol) -> CriterionReport:
    """Max over mode-k unfoldings of the trace norm of T~ (li) or T (dv)."""
    norm = max(
        float(np.sum(a.sigmas(extended, k))) for k in range(1, len(a.dims) + 1)
    )
    return _report("li" if extended else "dv", norm, a.bounds[extended], tol)


def _moment_sides(extended: bool, a: _Analysis, mode: int) -> tuple[float, float]:
    """(m2^2, bound * m3) of the mode-k unfolding; separable states keep <=."""
    _, m2, m3 = _power_sums(a.sigmas(extended, mode), 3)
    return m2 * m2, a.bounds[extended] * m3


def _thm1(canonical: bool, a: _Analysis, tol) -> CriterionReport:
    quantity, bound = _moment_sides(canonical, a, 1)
    return _report(f"thm1-{_kind(canonical)}", quantity, bound, tol)


def _required_a1(s: np.ndarray, steps: int) -> list[float]:
    """Smallest a_1 keeping B_1..B_steps PSD, given the other moments of s.

    B_l is the moment matrix of mu = sum_i s_i delta_{s_i}, so B_l(beta) is
    PSD exactly when beta >= ||P_l 1||^2_mu, P_l projecting onto
    span{x, ..., x^l}: a weighted least-squares problem, solved by a Lanczos
    recurrence on x = s / max(s) with full reorthogonalisation. Once the
    Krylov space stops growing it holds 1, and the answer is a_1.
    """
    a1 = float(np.sum(s))
    top = float(np.max(s))
    x = s / top if top > 0 else s
    one = np.sqrt(x)
    basis = np.zeros((steps, s.size))
    required, total = [], 0.0
    w = x * one
    for l in range(steps):
        for _ in range(2):
            w = w - basis[:l].T @ (basis[:l] @ w)
        norm = float(np.linalg.norm(w))
        if norm <= LANCZOS_BREAKDOWN:
            return required + [a1] * (steps - l)
        basis[l] = w / norm
        total += float(basis[l] @ one) ** 2
        required.append(min(top * total, a1))  # Bessel: ||P_l 1||^2 <= a_1
        w = x * basis[l]
    return required


def _thm2(canonical: bool, a: _Analysis, tol) -> CriterionReport:
    """B_l stays PSD with the separable bound as a_1, for l = 1..(D-1)//2."""
    s = a.sigmas(canonical, 1)
    bound = a.bounds[canonical]
    required = _required_a1(s, (a.rho.dim - 1) // 2)
    # lambda_min of B_1 = [[bound, m2], [m2, m3]] as det / lambda_max: its
    # sign is that of -(thm1 margin), computed from the same sums
    _, m2, m3 = _power_sums(s, 3)
    lam_max = 0.5 * (bound + m3) + sqrt(0.25 * (bound - m3) ** 2 + m2 * m2)
    detail = {
        "substituted_a1": bound,
        "required_a1": required,
        "b_min_eigenvalues": [(bound * m3 - m2 * m2) / lam_max],
    }
    return _report(f"thm2-{_kind(canonical)}", max(required), bound, tol, detail)


def _thm3(extended: bool, a: _Analysis, tol) -> CriterionReport:
    """Per-mode test of m2^2 <= bound * m3 over all unfoldings."""
    modes = []
    for mode in range(1, len(a.dims) + 1):
        quantity, rhs = _moment_sides(extended, a, mode)
        modes.append(
            {"mode": mode, "quantity": quantity, "bound": rhs, "margin": quantity - rhs}
        )
    worst = max(modes, key=lambda m: m["margin"])
    return _report(
        f"thm3-{_kind(extended)}", worst["quantity"], worst["bound"], tol,
        detail={"modes": modes},
    )


# name -> (bipartite only, fn(analysis, tol)), in report order
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


def _run(name: str, a: _Analysis, tol: float) -> CriterionReport:
    if not (isfinite(tol) and tol >= 0):
        raise ParamOutOfRange(f"tol must be finite and >= 0, got {tol}")
    bipartite_only, fn = _REGISTRY[name]
    if bipartite_only and len(a.dims) != 2:
        raise NotBipartite(f"{name} applies to bipartite states")
    return fn(a, tol)


def _pair(prefix, rho, tol):
    a = _Analysis(rho)
    return _run(f"{prefix}-plain", a, tol), _run(f"{prefix}-canonical", a, tol)


def theorem1(
    rho: DensityMatrix, tol: float = DEFAULT_TOL
) -> tuple[CriterionReport, CriterionReport]:
    """Moment inequalities a2^2 <= dv_bound * a3 and b2^2 <= li_bound * b3."""
    return _pair("thm1", rho, tol)


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
    return _pair("thm2", rho, tol)


def theorem3(
    rho: DensityMatrix, tol: float = DEFAULT_TOL
) -> tuple[CriterionReport, CriterionReport]:
    """Multipartite moment inequalities over every mode-k unfolding.

    The tensor moments are evaluated per unfolding; the state is flagged
    if the inequality fails in at least one mode (each unfolding's trace
    norm obeys the separable bound, so per-mode evaluation stays sound).
    """
    return _pair("thm3", rho, tol)


def dv_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Trace-norm bound on the plain correlation tensor."""
    return _run("dv", _Analysis(rho), tol)


def li_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Trace-norm bound on the extended (canonical) correlation tensor."""
    return _run("li", _Analysis(rho), tol)


def ppt_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Negative eigenvalue of the partial transpose certifies entanglement.

    The quantity is -lambda_min and the bound is 0.
    """
    return _run("ppt", _Analysis(rho), tol)


def ccnr_criterion(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Trace norm of the realigned matrix exceeding 1 certifies entanglement."""
    return _run("ccnr", _Analysis(rho), tol)


def evaluate_all(
    rho: DensityMatrix,
    tol: float = DEFAULT_TOL,
    names: list[str] | None = None,
) -> list[CriterionReport]:
    """Run the named criteria on one shared analysis of rho.

    names defaults to every criterion that applies to rho, in registry
    order; an empty list, or a name that is unknown or needs a bipartite
    state, raises UnknownCriterion before anything is computed.
    """
    applicable = [
        name for name, (bipartite_only, _) in _REGISTRY.items()
        if rho.n_parties == 2 or not bipartite_only
    ]
    if names is None:
        names = applicable
    if not names:
        raise UnknownCriterion("no criteria named")
    missing = [name for name in names if name not in applicable]
    if missing:
        raise UnknownCriterion(f"unknown or inapplicable criteria: {missing}")
    a = _Analysis(rho)
    return [_run(name, a, tol) for name in names]
