"""Separability criteria: moment inequalities, Hankel positivity, baselines.

Every criterion is one-sided: a violation certifies entanglement, while
passing says nothing. Reports share one shape and one rule: the tested
quantity, the separable bound, margin = quantity - bound, and
violated = margin > tol.

Each state is analysed once, as part of a stack of states that share their
dims: evaluate_all is a stack of one, and a threshold search scores its
coarse grid in stacks. `_columns` is told the dims, checks the states
against them and stacks their matrices. `_Analysis` builds the stacked extended
correlation tensor T~ on first use, reads every tensor as T~ under a party
weight (so dv, li and ccnr are one trace-norm test), and keeps one spectrum
entry per (weight, mode): the stacked singular values of that unfolding and
their power sums a1..a3, so a stack costs at most one tensor build, one
stacked SVD and one set of power sums per (weight, mode). thm2 runs one
Lanczos recurrence per analysis, over the whole stack and every thm2 tensor
named, each zero-padded to the canonical width. A report depends only on
its state, tol and its own name, never on the stack it was scored in or on
the other names. Every criterion is one row of `_REGISTRY`, plain data
that fixes its name, its place in evaluate_all's order, whether it needs a
bipartite state, its test and its weight. `_columns` alone checks tol and
the names and calls test(weight, analysis) for the columns over the stack,
(quantity, bound, details). `_evaluate` turns the columns into reports, and
`_margins`, which sizes a search's stacks, into the bare margins it follows;
the public functions are thin wrappers over evaluate_all.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from itertools import islice, repeat
from math import isfinite, prod, sqrt

import numpy as np

from . import linalg
from .bloch import CorrelationTensor, correlation_tensor, unfold
from .errors import InvalidDimension, NotBipartite, ParamOutOfRange, UnknownCriterion
from .linalg import DensityMatrix, _require_bipartite, partial_transpose, singular_values
from .moments import _power_sums, moment_vector

DEFAULT_TOL = 1e-9
_STACK = 64  # states per stacked analysis in _margins, at most
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


# Party weights d -> (u^2, v^2), squared weights of a party's identity slot and
# generator slots in T~: T is (0, 1), T~ is (1, 1), and (d, 2) puts T~ in the
# orthonormal basis {I/sqrt(d), lam/sqrt(2)}, where it is the realigned state.
_PLAIN, _CANONICAL, _REALIGNED = (lambda d: (0, 1)), (lambda d: (1, 1)), (lambda d: (d, 2))


def _separable_bound(weight, dims) -> float:
    """prod_k sqrt(u^2/d^2 + v^2 (d-1)/(2d)), met by every unfolding of a separable state."""
    top = prod(2 * w[0] + w[1] * d * (d - 1) for d, w in zip(dims, map(weight, dims)))
    return sqrt(top / prod(2 * d * d for d in dims))


@lru_cache(maxsize=None)
def _weighting(weight, dims: tuple) -> tuple:
    """(index, scale, bound): the basic index of T~'s slots of nonzero weight, the
    weights' outer product over them (None when all are 1) and the bound."""
    pairs = [weight(d) for d in dims]
    keep = [slice(0 if u2 else 1, None) for u2, _ in pairs]
    scale = reduce(np.multiply.outer, [
        np.sqrt([u2] + [v2] * (d * d - 1))[k] for d, (u2, v2), k in zip(dims, pairs, keep)])
    return (Ellipsis, *keep), None if (scale == 1).all() else scale, _separable_bound(weight, dims)


def multi_plain_bound(dims) -> float:
    return _separable_bound(_PLAIN, dims)


def multi_canonical_bound(dims) -> float:
    return _separable_bound(_CANONICAL, dims)


def dv_bound(d1: int, d2: int) -> float:
    return multi_plain_bound((d1, d2))


def li_bound(d1: int, d2: int) -> float:
    return multi_canonical_bound((d1, d2))


class _Analysis:
    """Correlation data of a stack of states, each piece computed on first use.

    It holds the states' dims and their matrices as mat, a stack (N, D, D):
    the fields correlation_tensor and partial_transpose read, so each of
    them acts on the whole stack at once.
    """

    def __init__(self, dims: tuple[int, ...], mat: np.ndarray, thm2=()):
        self.dims = dims
        self.mat = mat
        self.thm2 = thm2  # the named thm2 rows' weights, in registry order
        self._extended: CorrelationTensor | None = None
        self._spectra: dict[tuple, tuple] = {}
        self._required: dict = {}

    def tensor(self, weight) -> CorrelationTensor:
        """T~ with identity slots scaled by u and generator slots by v, (u^2, v^2) =
        weight(d); a zero u is sliced off, so T and T~ are views, not copies."""
        if self._extended is None:
            self._extended = correlation_tensor(self, extended=True)
        index, scale, _ = _weighting(weight, self.dims)
        entries = self._extended.entries[index]
        entries = entries if scale is None else entries * scale
        return CorrelationTensor(self.dims, entries, extended=index[-1].start == 0)

    def spectrum(self, weight, mode: int) -> tuple:
        """(sigmas, a1, a2, a3) of the mode-k unfolding of the weighted T~:
        its singular values (N, r) and their power sums, each (N,).

        At n = 2 the mode-2 unfolding is the transpose of mode 1, so both
        modes share one entry.
        """
        key = weight, 1 if len(self.dims) == 2 else mode
        if key not in self._spectra:
            s = singular_values(unfold(self.tensor(weight), key[1]))
            self._spectra[key] = (s, *_power_sums(s, 3))
        return self._spectra[key]

    def required_a1(self, weight) -> np.ndarray:
        """thm2's required_a1 (N, steps) of the mode-1 unfolding of T~ or T.

        One recurrence serves every thm2 tensor named, in one row layout:
        each tensor's rows are zero-padded to T~'s width min(dims)^2 (T has
        one value fewer) and stacked, as zeros carry no weight in mu, so a
        row never depends on which other thm2 tensor is named. Each row is
        capped at its spectrum's own a1, the one dv and li compare.
        """
        if weight not in self._required:
            rows = np.zeros((len(self.thm2), len(self.mat), min(self.dims) ** 2))
            for block, t in zip(rows, self.thm2):
                s = self.spectrum(t, 1)[0]
                block[:, :s.shape[-1]] = s
            a1 = np.concatenate([self.spectrum(t, 1)[1] for t in self.thm2])
            required = _required_a1(rows.reshape(len(a1), -1), a1, (prod(self.dims) - 1) // 2)
            self._required.update(zip(self.thm2, required.reshape(rows.shape[:2] + (-1,))))
        return self._required[weight]


def moments_of_state(rho: DensityMatrix, canonical: bool, K: int | None = None) -> np.ndarray:
    """Moments [a_0..a_K] of T (plain) or of T-tilde (canonical) for a bipartite state,
    from the spectrum evaluate_all reads. K defaults to d1*d2, enough for every
    Hankel matrix of moments.hankel_matrices."""
    d1, d2 = _require_bipartite(rho)
    a0 = float(d1 * d1 * d2 * d2 if canonical else (d1 * d1 - 1) * (d2 * d2 - 1))
    weight = _CANONICAL if canonical else _PLAIN
    (sigmas,) = _Analysis(rho.dims, rho.mat[None]).spectrum(weight, 1)[0]
    return moment_vector(sigmas, d1 * d2 if K is None else K, a0)


def _ppt(_, a: _Analysis):
    # the states are validated, and (rho^G) - (rho^G)^dag = (rho - rho^dag)^G
    # with max|rho^G| = max|rho|, so the partial transpose needs no check
    lam_min = np.linalg.eigvalsh(partial_transpose(a))[:, 0]
    return -lam_min, 0.0, [{"min_eigenvalue": lam} for lam in lam_min.tolist()]


def _trace_norm_test(weight, a: _Analysis):
    """Max over mode-k unfoldings of the weighted T~'s trace norm: dv, li, ccnr."""
    norms = (a.spectrum(weight, k)[1] for k in range(1, len(a.dims) + 1))
    return reduce(np.maximum, norms), _weighting(weight, a.dims)[2], None


def _moment_sides(weight, a: _Analysis, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """(m2^2, bound * m3) of the mode-k unfoldings; separable states keep <=."""
    _, _, m2, m3 = a.spectrum(weight, mode)
    return m2 * m2, _weighting(weight, a.dims)[2] * m3


def _thm1(weight, a: _Analysis):
    return (*_moment_sides(weight, a, 1), None)


def _required_a1(s: np.ndarray, a1: np.ndarray, steps: int) -> np.ndarray:
    """Smallest a_1 keeping B_1..B_steps PSD, given the other moments of each
    row of s (N, r) and its sum a1 (N,); returns (N, steps).

    B_l is the moment matrix of mu = sum_i s_i delta_{s_i}, so B_l(beta) is
    PSD exactly when beta >= ||P_l 1||^2_mu, P_l projecting onto
    span{x, ..., x^l}: a weighted least-squares problem, solved by a Lanczos
    recurrence on x = s / max(s) with full reorthogonalisation, one for the
    whole stack. Once a row's Krylov space stops growing it holds 1, and
    that row's answer is a_1 from then on.
    """
    a1 = a1[:, None]
    top = s.max(axis=-1, keepdims=True)
    x = (s / np.where(top > 0, top, 1.0))[:, None, :]  # rows (N, 1, r)
    one = np.sqrt(x)
    basis = np.zeros((len(s), steps, s.shape[-1]))
    basis_t = basis.swapaxes(1, 2)  # a view: the slots not yet filled are 0
    norms = np.zeros((len(s), 1, steps))
    w = x * one
    for l in range(steps):
        for _ in range(2 if l else 0):  # nothing to orthogonalise against at l = 0
            w -= (w @ basis_t) @ basis
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


def _thm2(weight, a: _Analysis):
    """B_l stays PSD with the separable bound as a_1, for l = 1..(D-1)//2."""
    bound = _weighting(weight, a.dims)[2]
    m3 = a.spectrum(weight, 1)[3]
    required = a.required_a1(weight)
    # lambda_min of B_1 = [[bound, m2], [m2, m3]] as det / lambda_max, where
    # det is -(thm1 margin) from thm1's own sides
    m2_sq, bound_m3 = _moment_sides(weight, a, 1)
    lam_max = 0.5 * (bound + m3) + np.sqrt(0.25 * (bound - m3) ** 2 + m2_sq)
    b_min = (bound_m3 - m2_sq) / lam_max
    details = [
        {"substituted_a1": bound, "required_a1": req, "b_min_eigenvalues": [lam]}
        for req, lam in zip(required.tolist(), b_min.tolist())
    ]
    return required.max(axis=-1), bound, details


def _thm3(weight, a: _Analysis):
    """Per-mode test of m2^2 <= bound * m3 over all unfoldings."""
    sides = [
        [side.tolist() for side in _moment_sides(weight, a, mode)]
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


# name -> (bipartite only, test, weight) in report order, where test(weight,
# analysis) -> (quantity, bound, details), one quantity per state, one bound
# per state or one shared, one detail dict per state or None. Rows hold only
# private functions and lambdas: a tracer rebinding public ones misses tuples
_REGISTRY = {
    "ppt": (True, _ppt, None),
    "ccnr": (True, _trace_norm_test, _REALIGNED),
    "dv": (False, _trace_norm_test, _PLAIN),
    "li": (False, _trace_norm_test, _CANONICAL),
    "thm1-plain": (True, _thm1, _PLAIN),
    "thm1-canonical": (True, _thm1, _CANONICAL),
    "thm2-plain": (True, _thm2, _PLAIN),
    "thm2-canonical": (True, _thm2, _CANONICAL),
    "thm3-plain": (False, _thm3, _PLAIN),
    "thm3-canonical": (False, _thm3, _CANONICAL),
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
    (reports,) = _evaluate([rho], tol, names)
    return reports


def _columns(rhos, tol, names, dims) -> list[tuple]:
    """The named criteria's columns over one stacked analysis of the states
    rhos: (name, quantities, bounds, details) per name, quantities and
    bounds as Python floats (a shared bound repeats), details a dict or None
    per state. The one place that stacks states (all of dims, which the
    caller names, else InvalidDimension), checks tol and names, calls test(weight, a)."""
    others = {rho.dims for rho in rhos if rho.dims != dims}
    if others:
        raise InvalidDimension(f"stacked states must share dims, got {dims} and {others}")
    if not (isfinite(tol) and tol >= 0):
        raise ParamOutOfRange(f"tol must be finite and >= 0, got {tol}")
    if names is None:
        names = [name for name, (bipartite_only, _, _) in _REGISTRY.items()
                 if len(dims) == 2 or not bipartite_only]
    if not names:
        raise UnknownCriterion("no criteria named")
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise UnknownCriterion(f"unknown criteria: {unknown}")
    bipartite = [name for name in names if _REGISTRY[name][0]]
    if bipartite and len(dims) != 2:
        raise NotBipartite(f"{bipartite} need a bipartite state, got {len(dims)} parties")
    thm2 = [w for n, (_, test, w) in _REGISTRY.items() if test is _thm2 and n in names]
    a = _Analysis(dims, np.array([rho.mat for rho in rhos]), thm2)
    columns = []
    for name in names:
        _, test, weight = _REGISTRY[name]
        quantity, bound, details = test(weight, a)
        quantity = np.asarray(quantity, dtype=np.float64).tolist()
        bound = np.asarray(bound, dtype=np.float64).tolist()
        bounds = bound if isinstance(bound, list) else repeat(bound)
        columns.append((name, quantity, bounds, details or repeat(None)))
    return columns


def _evaluate(rhos, tol, names) -> list[list[CriterionReport]]:
    """evaluate_all of each of the states rhos, one stacked analysis for all
    of them; applies the margin rule to _columns."""
    rows = [[] for _ in rhos]
    for name, quantity, bounds, details in _columns(rhos, tol, names, rhos[0].dims):
        for row, q, b, detail in zip(rows, quantity, bounds, details):
            margin = q - b
            row.append(CriterionReport(name, q, b, margin > tol, margin, detail))
    return rows


def _margins(rhos, tol, name, dims) -> list[float]:
    """margin - tol of the one named criterion on each of the states rhos, any
    iterable of states of dims, bit-identical to the report's margin - tol:
    positive exactly when the criterion flags the state. Builds no report.
    Scores stacks of at most _STACK states, each within _MAX_BYTES / _STACK
    bytes or of one state."""
    size = max(1, min(_STACK, linalg._MAX_BYTES // (_STACK * 16 * prod(dims) ** 2)))
    margins, rhos = [], iter(rhos)
    while stack := list(islice(rhos, size)):
        ((_, quantity, bounds, _),) = _columns(stack, tol, [name], dims)
        margins += [q - b - tol for q, b in zip(quantity, bounds)]
        del stack  # before the next stack's states are built
    return margins


def _noise_crossing(extreme, name, tol) -> float | None:
    """The level s* at which s extreme + (1 - s) I/D crosses, where the named
    row gives it: on T (weight _PLAIN) quantity and bound are homogeneous of
    degrees k + 1 and k and T(s) = s T(1), so the margin changes sign at
    bound / quantity of extreme (thm3's modes share a2 = ||T||_F^2, so its
    worst mode crosses first); for ppt at 1/(1 + D quantity), as (I/D)^Gamma =
    I/D makes lambda_min affine in s. s* is the crossing at tol = 0, returned
    only when the sweep crosses at tol, that is when extreme, the sweep's state
    of largest margin, is flagged at tol; else, and for other rows, None."""
    _, test, weight = _REGISTRY[name]
    if weight is not _PLAIN and test is not _ppt:
        return None
    (report,) = evaluate_all(extreme, tol, [name])
    if not report.violated:
        return None
    if test is _ppt:  # the quantity is -lambda_min(extreme^Gamma)
        return 1.0 / (1.0 + extreme.dim * report.quantity)
    return report.bound / report.quantity
