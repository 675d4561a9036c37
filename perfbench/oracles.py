"""Correctness oracles built on invariants, not on recorded outputs.

Reference quantities are computed here from the raw density matrix
without ctmoments and without a generator basis: the plain and extended
correlation tensors equal, up to a local orthogonal change of basis per
mode, the realigned state with each mode's identity direction projected
out (plain) or rescaled (extended). Unfolding singular values, and with
them every moment and trace norm the criteria test, are invariant under
that change of basis.
"""

from __future__ import annotations

from math import isfinite, prod, sqrt

import numpy as np

TOL = 1e-9          # ctmoments.criteria.DEFAULT_TOL, the tolerance every op uses
PRECISION = 1e-5    # find_threshold's default precision
COARSE_STEP = 1e-2  # find_threshold's default coarse grid step
VALUE_RTOL = 1e-10  # library quantity vs. reference quantity

BIPARTITE_NAMES = (
    "ppt", "ccnr", "dv", "li", "thm1-plain", "thm1-canonical",
    "thm2-plain", "thm2-canonical", "thm3-plain", "thm3-canonical",
)
MULTIPARTITE_NAMES = ("dv", "li", "thm3-plain", "thm3-canonical")


class Checks:
    """Counts the checks made on one op and keeps the failed ones."""

    def __init__(self):
        self.run = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.run += 1
        if not ok:
            self.problems.append(message)


# --- reference quantities -------------------------------------------------

def plain_bound(dims) -> float:
    return prod(sqrt((d - 1) / (2 * d)) for d in dims)


def canonical_bound(dims) -> float:
    return prod(sqrt((d * d - d + 2) / (2 * d * d)) for d in dims)


def _mode_tensor(mat: np.ndarray, dims) -> np.ndarray:
    """rho as an n-way tensor with one d_k^2 index (i_k, j_k) per mode."""
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    order = [ax for k in range(n) for ax in (k, n + k)]
    return t.transpose(order).reshape([d * d for d in dims])


def unfolding_singular_values(mat, dims, extended: bool) -> list[np.ndarray]:
    """Singular values of every mode-k unfolding of the correlation tensor."""
    t = _mode_tensor(np.asarray(mat, dtype=np.complex128), dims)
    for k, d in enumerate(dims):
        u = np.eye(d).reshape(-1) / sqrt(d)
        identity_part = np.outer(u, u)
        if extended:
            m = np.eye(d * d) / sqrt(2) + (1 / sqrt(d) - 1 / sqrt(2)) * identity_part
        else:
            m = (np.eye(d * d) - identity_part) / sqrt(2)
        t = np.moveaxis(np.tensordot(m, t, axes=(1, k)), 0, k)
    return [
        np.linalg.svd(np.moveaxis(t, k, 0).reshape(t.shape[k], -1), compute_uv=False)
        for k in range(len(dims))
    ]


def moment_margins(mat, dims, extended: bool) -> list[tuple[float, float]]:
    """Per mode (a2^2, bound * a3), the moment inequality's two sides."""
    bound = canonical_bound(dims) if extended else plain_bound(dims)
    return [
        (float(np.sum(s**2)) ** 2, bound * float(np.sum(s**3)))
        for s in unfolding_singular_values(mat, dims, extended)
    ]


def trace_norm_max(mat, dims, extended: bool) -> float:
    return max(float(np.sum(s)) for s in unfolding_singular_values(mat, dims, extended))


def realigned_trace_norm(mat, dims) -> float:
    return float(np.sum(np.linalg.svd(_mode_tensor(mat, dims), compute_uv=False)))


def partial_transpose_min_eig(mat, dims) -> float:
    d1, d2 = dims
    pt = mat.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)
    return float(np.linalg.eigvalsh(pt)[0])


def reference_margin(criterion: str, mat, dims) -> float:
    """Detection margin of the named criterion; positive means detected."""
    if criterion == "ppt":
        return -partial_transpose_min_eig(mat, dims) - TOL
    if criterion == "ccnr":
        return realigned_trace_norm(mat, dims) - 1.0 - TOL
    if criterion in ("dv", "li"):
        extended = criterion == "li"
        bound = canonical_bound(dims) if extended else plain_bound(dims)
        return trace_norm_max(mat, dims, extended) - bound - TOL
    if criterion in ("thm1-plain", "thm1-canonical"):
        lhs, rhs = moment_margins(mat, dims, criterion.endswith("canonical"))[0]
        return lhs - rhs - TOL
    raise ValueError(f"no reference margin for {criterion!r}")


def reference_crossings(margin_at, lo: float, hi: float) -> list[float]:
    """Sign changes of margin_at on find_threshold's coarse grid, bisected to 1e-10."""
    xs = np.linspace(lo, hi, int(round((hi - lo) / COARSE_STEP)) + 1)
    gs = [margin_at(x) > 0 for x in xs]
    out = []
    for i in range(len(xs) - 1):
        if gs[i] == gs[i + 1]:
            continue
        a, b, ga = float(xs[i]), float(xs[i + 1]), gs[i]
        while b - a > 1e-10:
            mid = 0.5 * (a + b)
            if (margin_at(mid) > 0) == ga:
                a = mid
            else:
                b = mid
        out.append(0.5 * (a + b))
    return out


# --- checks on analyze reports -------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(b))


def check_reports(checks: Checks, reports, mat, dims, separable: bool) -> None:
    """Invariants of one evaluate_all result on the state `mat`."""
    bipartite = len(dims) == 2
    names = [r.name for r in reports]
    expected = BIPARTITE_NAMES if bipartite else MULTIPARTITE_NAMES
    checks.expect(sorted(names) == sorted(expected), f"report names {names}")
    by = {r.name: r for r in reports}
    for r in reports:
        error = (r.detail or {}).get("error")
        checks.expect(error is None, f"{r.name} swallowed an error: {error}")
        checks.expect(
            all(isfinite(v) for v in (r.quantity, r.bound, r.margin)),
            f"{r.name} has a non-finite value",
        )
        if separable:
            checks.expect(not r.violated, f"{r.name} flags a separable state")
    if not set(expected) <= set(by):
        return

    def implies(a, b):
        checks.expect(not by[a].violated or by[b].violated, f"{a} flags without {b}")

    implies("thm3-plain", "dv")
    implies("thm3-canonical", "li")
    checks.expect(_close(by["dv"].quantity, trace_norm_max(mat, dims, False)),
                  "dv quantity differs from the reference trace norm")
    checks.expect(_close(by["li"].quantity, trace_norm_max(mat, dims, True)),
                  "li quantity differs from the reference trace norm")
    for name, extended in (("thm3-plain", False), ("thm3-canonical", True)):
        ref = max(lhs - rhs for lhs, rhs in moment_margins(mat, dims, extended))
        checks.expect(_close(by[name].margin, ref), f"{name} margin differs from reference")
    if not bipartite:
        return
    implies("thm1-plain", "dv")
    implies("thm1-canonical", "li")
    for kind in ("plain", "canonical"):
        t1, t3 = by[f"thm1-{kind}"], by[f"thm3-{kind}"]
        checks.expect(_close(t1.margin, t3.margin), f"thm1-{kind} and thm3-{kind} margins differ")
        lhs, rhs = moment_margins(mat, dims, kind == "canonical")[0]
        checks.expect(_close(t1.quantity, lhs) and _close(t1.bound, rhs),
                      f"thm1-{kind} sides differ from the reference moments")
    checks.expect(_close(by["ccnr"].quantity, realigned_trace_norm(mat, dims)),
                  "ccnr quantity differs from the reference trace norm")
    checks.expect(_close(by["ppt"].quantity, -partial_transpose_min_eig(mat, dims)),
                  "ppt quantity differs from the reference eigenvalue")


# --- checks on threshold searches ----------------------------------------

TILES_THRESHOLDS = {"li": 0.89252, "dv": 0.94929}
THM2_BRACKET = {"thm2-plain": ("dv", "thm1-plain"), "thm2-canonical": ("li", "thm1-canonical")}


def noise_closed_form(criterion: str, base, dims) -> float | None:
    """dv and thm1-plain thresholds of x * base + (1 - x) I / D.

    The plain tensor scales by x, so a_k(x) = x^k a_k(1): dv crosses at
    bound / a1 and thm1-plain at bound * a3 / a2^2.
    """
    if criterion not in ("dv", "thm1-plain"):
        return None
    s = unfolding_singular_values(base, dims, extended=False)[0]
    a1, a2, a3 = (float(np.sum(s**k)) for k in (1, 2, 3))
    return plain_bound(dims) * (1 / a1 if criterion == "dv" else a3 / (a2 * a2))


def check_crossings(checks: Checks, label: str, got, want) -> None:
    checks.expect(len(got) == len(want), f"{label}: crossings {got}, expected {want}")
    for g, w_ in zip(got, want):
        checks.expect(abs(g - w_) <= PRECISION, f"{label}: crossing {g} vs {w_}")


def check_threshold(checks: Checks, sweep, crossings, reference) -> None:
    """Invariants of one find_threshold result.

    `reference(criterion)` gives the independent crossings of a non-thm2
    criterion on the same family.
    """
    label = f"{sweep.family}{sweep.dims} {sweep.criterion}"
    checks.expect(all(isfinite(c) and sweep.lo <= c <= sweep.hi for c in crossings),
                  f"{label}: crossing outside the range: {crossings}")
    crit = sweep.criterion
    if crit in THM2_BRACKET:
        # Detection sets nest thm1 <= thm2 <= dv (plain) and thm1 <= thm2 <= li
        # (canonical), so each thm2 crossing lies between the two references.
        # A reference without a crossing detects nothing (thm1: nothing up to
        # the far end of the range, where the family is least noisy).
        loose, strict = (reference(c) for c in THM2_BRACKET[crit])
        checks.expect(len(loose) <= 1 and len(strict) <= 1,
                      f"{label}: ambiguous references {loose}, {strict}")
        if not loose:
            checks.expect(not crossings, f"{label}: crossings {crossings} beyond the loose test")
            return
        far = sweep.hi if sweep.detects_above else sweep.lo
        a, b = sorted((loose[0], strict[0] if strict else far))
        for c in crossings:
            checks.expect(a - PRECISION <= c <= b + PRECISION, f"{label}: {c} outside [{a}, {b}]")
        return
    check_crossings(checks, label, crossings, reference(crit))
    if sweep.family == "werner" and crit == "thm1-plain":
        d = sweep.dims[0]
        check_crossings(checks, f"{label} closed form", crossings, [(2 - d) / d])
    if sweep.family != "werner":
        closed = noise_closed_form(crit, sweep.base, sweep.dims)
        if closed is not None:
            want = [closed] if sweep.lo < closed < sweep.hi else []
            check_crossings(checks, f"{label} closed form", crossings, want)
    if sweep.family == "tiles-noise":
        if crit in TILES_THRESHOLDS:
            check_crossings(checks, f"{label} published", crossings, [TILES_THRESHOLDS[crit]])
        if crit == "ppt":
            checks.expect(not crossings, f"{label}: ppt crosses on a PPT family")
