"""Acceptance suite: one pass/fail line per criterion.

Each test prints a single [PASS]/[FAIL] line directly to the terminal
(bypassing capture) and then asserts, so the verdicts are visible in any
pytest run. Every reference value is either a published value that the
code reproduces (the li and dv tiles thresholds, the Werner sign change,
the canonical GHZ(3) moments) or a closed form derived in the test from
the criterion's definition (the thm1-plain tiles threshold and the plain
GHZ(3) moments). Published values that no sound test of the form
a2^2 <= c * a3 can reach are recorded in the README, not asserted here.
"""

import time
from math import prod, sqrt

import numpy as np

from ctmoments import (
    dv_bound,
    evaluate_all,
    ghz,
    li_bound,
    mix_white_noise,
    moment_vector,
    moments_of_state,
    ppt_criterion,
    theorem1,
    theorem3,
    tiles_ppt,
    werner,
)
from ctmoments.cli import criterion_margin, find_threshold
from ctmoments.criteria import _CANONICAL, _PLAIN, DEFAULT_TOL, _Analysis, _evaluate
from ctmoments.moments import hankel_matrices
from ctmoments.states import random_density, random_pure_product, random_separable

BIPARTITE_DIMS = [(2, 2), (2, 3), (3, 3)]
THEOREM_NAMES = [f"thm{k}-{kind}" for k in (1, 2, 3) for kind in ("plain", "canonical")]


def _finish(capsys, label, checks):
    failed = [msg for ok, msg in checks if not ok]
    status = "FAIL" if failed else "PASS"
    line = f"[{status}] {label}"
    if failed:
        line += " -- " + "; ".join(failed)
    with capsys.disabled():
        print(line)
    assert not failed, "; ".join(failed)


def _tiles_threshold(criterion, precision=1e-5):
    base = tiles_ppt()
    crossings, _ = find_threshold(
        lambda x: mix_white_noise(base, x), criterion, 0.0, 1.0,
        precision=precision,
    )
    assert len(crossings) == 1, (criterion, crossings)
    return crossings[0]


def _tiles_thm1_closed_form():
    """Noise level at which thm1-plain starts to flag x * tiles + (1 - x) I / 9.

    White noise only adds to the identity component, so the plain tensor
    scales as T(x) = x * T(1): its singular values scale by x and
    a_k(x) = x^k * a_k(1). The margin x^4 a2^2 - dv_bound * x^3 a3 then
    changes sign once, at x* = dv_bound(3, 3) * a3 / a2^2 on the unmixed
    state.
    """
    a = moments_of_state(tiles_ppt(), canonical=False)
    return dv_bound(3, 3) * a[3] / a[2] ** 2


def test_criterion_1_tiles_thresholds(capsys):
    thm1 = _tiles_threshold("thm1-plain")
    li = _tiles_threshold("li")
    dv = _tiles_threshold("dv")
    closed = _tiles_thm1_closed_form()
    # The published thm1-plain threshold 0.84327 and ordering thm1 < li < dv
    # are unreachable: Cauchy-Schwarz gives a2^2 <= a1 * a3, so a2^2 >
    # dv_bound * a3 forces a1 > dv_bound. thm1-plain flags only states dv
    # flags, and its threshold cannot lie below dv's. The bisection must
    # instead meet the closed form x* = dv_bound * a3 / a2^2 = 0.987327.
    checks = [
        (abs(thm1 - closed) <= 1e-4,
         f"thm1-plain threshold {thm1:.5f} != closed form {closed:.5f} +- 1e-4"),
        (abs(thm1 - 0.98733) <= 1e-4,
         f"thm1-plain threshold {thm1:.5f} != 0.98733 +- 1e-4"),
        (abs(li - 0.89254) <= 1e-3, f"li threshold {li:.5f} != 0.89254 +- 1e-3"),
        (abs(dv - 0.9493) <= 1e-3, f"dv threshold {dv:.5f} != 0.9493 +- 1e-3"),
        (li < dv <= thm1,
         f"ordering li < dv <= thm1 fails: {li:.5f}, {dv:.5f}, {thm1:.5f}"),
    ]
    _finish(capsys, "criterion 1: tiles-noise detection thresholds", checks)


def test_criterion_2_ppt_blindness(capsys):
    base = tiles_ppt()
    checks = []
    for x in np.arange(0.0, 1.01, 0.1):
        rep = ppt_criterion(mix_white_noise(base, float(x)))
        checks.append((not rep.violated, f"ppt flagged tiles at x={x:.1f}"))
    # The published probe at x = 0.9 lies below the dv threshold 0.94929,
    # and thm1-plain flags only states dv flags (a2^2 <= a1 * a3), so it
    # cannot fire there. The unmixed state x = 1 lies above the closed-form
    # threshold of criterion 1, where a moment test sees what PPT misses.
    closed = _tiles_thm1_closed_form()
    checks.append(
        (closed < 1.0, f"closed-form thm1-plain threshold {closed:.5f} >= 1")
    )
    rep, _ = theorem1(mix_white_noise(base, 1.0))
    checks.append(
        (rep.violated,
         f"thm1-plain not violated at x=1.0 (margin {rep.margin:.2e})")
    )
    _finish(capsys, "criterion 2: PPT blindness on the tiles family", checks)


def test_criterion_3_werner_closed_form(capsys):
    checks = []
    for d in (2, 3, 4):
        crossings, _ = find_threshold(
            lambda x: werner(d, x), "thm1-plain", -1.0, 1.0, precision=1e-6
        )
        expected = (2 - d) / d
        ok = len(crossings) == 1 and abs(crossings[0] - expected) <= 1e-4
        checks.append(
            (ok, f"d={d}: sign change at {crossings} != {expected:.4f} +- 1e-4")
        )
        for x in np.arange(0.0, 1.001, 0.05):
            reports = evaluate_all(werner(d, float(x)))
            hits = [r.name for r in reports if r.violated]
            checks.append(
                (not hits, f"werner({d}, {x:.2f}) flagged by {hits}")
            )
    _finish(capsys, "criterion 3: Werner thm1-plain sign change", checks)


def test_criterion_4_ghz_multipartite(capsys):
    plain, canon = theorem3(ghz(3))
    # GHZ(3) = (III + ZZI + ZIZ + IZZ + XXX - XYY - YXY - YYX) / 8, so the
    # plain tensor has entries +-1/8 at xxx, xyy, yxy, yyx. Each mode-k
    # unfolding has two orthogonal rows of norm sqrt(2)/8, hence two
    # singular values sqrt(2)/8: m2 = 1/16, m2^2 = 1/256, m3 = sqrt(2)/128,
    # and with the per-party bound prod sqrt((d-1)/(2d)) = 1/8,
    # bound * m3 = sqrt(2)/1024. The published plain margin 0 is unreachable:
    # no sound bound lies below 1/8, which a product 3-qubit state attains.
    modes = plain.detail["modes"]
    checks = [
        (canon.violated, "thm3-canonical not violated on ghz(3)"),
        (all(m["margin"] > 0 for m in canon.detail["modes"]),
         "not every canonical mode violated"),
        (abs(canon.quantity - 1 / 64) <= 1e-10,
         f"canonical b2^2 {canon.quantity} != 1/64"),
        (abs(canon.bound - 1 / 128) <= 1e-10,
         f"canonical bound*b3 {canon.bound} != 1/128"),
        (abs(plain.quantity - 1 / 256) <= 1e-10,
         f"plain m2^2 {plain.quantity} != 1/256"),
        (abs(plain.bound - sqrt(2) / 1024) <= 1e-10,
         f"plain bound*m3 {plain.bound} != sqrt(2)/1024"),
        (all(abs(m["quantity"] - modes[0]["quantity"]) <= 1e-10
             and abs(m["bound"] - modes[0]["bound"]) <= 1e-10 for m in modes),
         f"plain modes differ: {modes}"),
        (plain.violated,
         f"thm3-plain not violated on ghz(3) (margin {plain.margin:.2e})"),
    ]
    _finish(capsys, "criterion 4: GHZ(3) theorem 3 detection", checks)


def test_criterion_5_soundness(capsys):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    false_positives = []
    for dims in BIPARTITE_DIMS + [(2, 2, 2)]:
        # one stacked analysis per dims, every criterion that applies
        drawn = [random_separable(dims, rng) for _ in range(125)]
        for i, reports in enumerate(_evaluate(drawn, DEFAULT_TOL, None)):
            hits = [r.name for r in reports if r.violated]
            if hits:
                false_positives.append((dims, i, hits))
    elapsed = time.perf_counter() - t0
    checks = [
        (not false_positives, f"false positives: {false_positives[:5]}"),
        (elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"),
    ]
    _finish(
        capsys,
        f"criterion 5: soundness on 500 separable states ({elapsed:.1f}s)",
        checks,
    )


def test_criterion_6_holder_chain(capsys):
    rng = np.random.default_rng(66)
    rhos = [random_density(BIPARTITE_DIMS[i % 3], rng) for i in range(1000)]
    bad_chain = []
    bad_psd = []
    hankels = {}  # size -> [(label, matrix)], each size one stacked eigvalsh
    for j, dims in enumerate(BIPARTITE_DIMS):
        a = _Analysis(dims, np.array([rho.mat for rho in rhos[j::3]]))
        for canonical in (False, True):
            # a_0 is the number of entries of T~ (canonical) or T (plain)
            a0 = float(prod(d * d if canonical else d * d - 1 for d in dims))
            # one SVD per dims and tensor serves both checks: the chain reads
            # up to a_9, the Hankel matrices up to a_{d1*d2}
            sigmas = a.spectrum(_CANONICAL if canonical else _PLAIN, 1)[0]
            for i, s in zip(range(j, 1000, 3), sigmas):
                m = moment_vector(s, max(9, prod(dims)), a0)
                v = m.tolist()
                for k in range(2, 9):
                    if v[k] ** 2 > v[k - 1] * v[k + 1] + 1e-12:
                        bad_chain.append((i, dims, canonical, k))
                h_hat, b_hat = hankel_matrices(m[:prod(dims) + 1], m[1])
                for mat in h_hat + b_hat:
                    hankels.setdefault(len(mat), []).append(((i, dims, canonical), mat))
    for entries in hankels.values():
        labels, mats = zip(*entries)
        mats = np.array(mats)
        lams = np.linalg.eigvalsh(mats)[:, 0]
        scales = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
        for label, lam, scale in zip(labels, lams.tolist(), scales.tolist()):
            if lam < -1e-9 * scale:
                bad_psd.append((*label, lam))
    checks = [
        (not bad_chain, f"chain violations: {bad_chain[:5]}"),
        (not bad_psd, f"indefinite unsubstituted Hankels: {bad_psd[:5]}"),
    ]
    _finish(capsys, "criterion 6: Holder chain on 1000 random states", checks)


def test_criterion_7_pure_product_saturation(capsys):
    rng = np.random.default_rng(77)
    bad = []
    for i in range(100):
        dims = BIPARTITE_DIMS[i % 3]
        rho = random_pure_product(dims, rng)
        a = moments_of_state(rho, canonical=False, K=1)
        b = moments_of_state(rho, canonical=True, K=1)
        if abs(a[1] - dv_bound(*dims)) > 1e-10:
            bad.append((i, dims, "plain", a[1]))
        if abs(b[1] - li_bound(*dims)) > 1e-10:
            bad.append((i, dims, "canonical", b[1]))
    _finish(
        capsys,
        "criterion 7: pure products saturate the bounds",
        [(not bad, f"non-saturating draws: {bad[:5]}")],
    )


def test_criterion_8_consistency(capsys):
    rng = np.random.default_rng(88)
    drawn = [random_density(BIPARTITE_DIMS[i % 3], rng) for i in range(1000)]
    reports_of = {}
    for dims in BIPARTITE_DIMS:
        # one stacked analysis per dims: thm1, thm2 and thm3, each plain then canonical
        index = [i for i, rho in enumerate(drawn) if rho.dims == dims]
        rows = _evaluate([drawn[i] for i in index], DEFAULT_TOL, THEOREM_NAMES)
        reports_of.update(zip(index, rows))
    bad_margin = []
    bad_iff = []
    for i in range(1000):
        dims = BIPARTITE_DIMS[i % 3]
        reports = reports_of[i]
        t1, t2, t3 = reports[0:2], reports[2:4], reports[4:6]
        for a, b in zip(t1, t3):
            if abs(a.margin - b.margin) > 1e-10:
                bad_margin.append((i, dims, a.name, a.margin - b.margin))
        for a, c in zip(t1, t2):
            if abs(a.margin) < 1e-12:
                continue
            b1_neg = c.detail["b_min_eigenvalues"][0] < 0
            if b1_neg != (a.margin > 0):
                bad_iff.append((i, dims, a.name))
    checks = [
        (not bad_margin, f"thm3(n=2) != thm1 margins: {bad_margin[:5]}"),
        (not bad_iff, f"B1 violation mismatch: {bad_iff[:5]}"),
    ]
    _finish(capsys, "criterion 8: theorem consistency at n=2", checks)
