"""Tests of the benchmark harness itself: oracles, tail latency, tracing.

Run from the repository root:  python -m pytest perfbench/tests
"""

import dataclasses
import numpy as np
import pytest

import ctmoments
import gen
import oracles
import run
import spans
import workloads


def reports_for(mat, dims):
    return ctmoments.evaluate_all(ctmoments.DensityMatrix(dims, mat))


def problems_of(reports, mat, dims, separable):
    checks = oracles.Checks()
    oracles.check_reports(checks, reports, mat, dims, separable)
    assert checks.run > 0
    return checks.problems


def replace(reports, name, **changes):
    return [dataclasses.replace(r, **changes) if r.name == name else r for r in reports]


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
def test_oracles_accept_correct_reports(dims):
    rng = np.random.default_rng(5)
    for mat, separable in ((gen.separable(rng, dims), True), (gen.ginibre(rng, dims), False)):
        assert problems_of(reports_for(mat, dims), mat, dims, separable) == []


def test_oracles_reject_wrong_reports():
    rng = np.random.default_rng(6)
    dims = (3, 3)
    sep = gen.separable(rng, dims)
    good = reports_for(sep, dims)
    wrong = {
        "flag on a separable state": replace(good, "thm2-plain", violated=True),
        "swallowed error": replace(good, "ccnr", detail={"error": "boom"}),
        "non-finite value": replace(good, "li", quantity=float("nan")),
        "wrong dv value": replace(good, "dv", quantity=good[2].quantity * 1.01),
        "thm3 margin differs from thm1": replace(good, "thm3-plain", margin=1.0),
        "missing report": good[:-1],
    }
    for label, reports in wrong.items():
        assert problems_of(reports, sep, dims, True), label
    ent = gen.pure(rng, dims)
    flagged_alone = replace(replace(reports_for(ent, dims), "thm1-plain", violated=True),
                            "dv", violated=False)
    assert any("thm1-plain flags without dv" in p
               for p in problems_of(flagged_alone, ent, dims, False))


def sweep(family, dims, criterion):
    wl = workloads.ThresholdSweep(0, None)
    i = next(k for k, ((f, d), c) in enumerate(wl.rotation)
             if (f, d, c) == (family, dims, criterion))
    for k in range(i + 1):
        job = wl.job(k)
    return wl, job


def test_threshold_oracles_accept_and_reject():
    wl, job = sweep("tiles-noise", (3, 3), "li")
    result = wl.op(job)
    checks = oracles.Checks()
    wl.check(checks, job, result)
    assert checks.problems == [] and checks.run >= 3
    crossings, brackets = result
    checks = oracles.Checks()
    wl.check(checks, job, ([crossings[0] + 1e-3], brackets))
    assert checks.problems


def test_thm2_bracket_rejects_crossing_outside_dv_thm1():
    wl, job = sweep("pure-noise", (3, 3), "thm2-plain")
    checks = oracles.Checks()
    wl.check(checks, job, ([0.01], []))  # far below dv's threshold
    assert any("outside" in p for p in checks.problems)


def test_werner_reference_matches_closed_form():
    for d in (2, 3, 4):
        got = oracles.reference_crossings(
            lambda x: oracles.reference_margin("thm1-plain", gen.werner(d, x), (d, d)), -1, 1)
        assert got == pytest.approx([(2 - d) / d], abs=oracles.PRECISION)


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert run.window_tail([float(v) for v in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.window_tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    n = run.TAIL_WINDOW
    tail = run.tail_latency([float(v) for v in range(1, n + 1)])
    assert tail == {"value": float(n - 10), "percentiles": [100.0 * (n - 10) / n],
                    "samples_beyond": 10, "samples": n}
    assert sum(v > tail["value"] for v in range(1, n + 1)) == 10


class ClockedWorkload:
    """Rotation of 4 jobs; each op advances a fake clock by one second."""

    rotation = [0, 1, 2, 3]

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def job(self, i):
        return i

    def run(self, job, tracer=None):
        self.now += 1.0

    def check(self, checks, job, out):
        checks.expect(True, "")


@pytest.mark.parametrize("seconds, ops", [(0.5, 3), (8.5, 7), (10.0, 11)])
def test_loop_stops_at_the_nearest_whole_rotation(monkeypatch, seconds, ops):
    wl = ClockedWorkload()
    monkeypatch.setattr(run, "perf_counter", wl.clock)
    plain, traced, setup = run.loop(wl, seconds)
    # job 0 is the untimed warm-up, so whole rotations end at jobs 3, 7, 11
    assert len(plain.latencies) == ops and traced is None and setup == []


def test_tail_is_median_of_window_tails():
    n = run.TAIL_WINDOW
    quiet = [1.0] * (n - 11) + [2.0] * 11
    burst = [1.0] * (n - n // 10) + [50.0] * (n // 10)
    tail = run.tail_latency(quiet + burst + quiet)
    assert tail["value"] == 2.0 and len(tail["percentiles"]) == 3


@pytest.fixture
def tracer():
    t = spans.Tracer()
    spans.install(t)
    yield t
    t.disable()


def test_coverage_passes_after_install(tracer):
    spans.check_coverage(tracer)


def test_coverage_catches_unwrapped_binding(tracer):
    original = tracer._bindings[0][2]
    ctmoments.criteria._FROZEN_UNDER_TEST = (original,)
    try:
        with pytest.raises(spans.CoverageError, match="_FROZEN_UNDER_TEST"):
            spans.check_coverage(tracer)
    finally:
        del ctmoments.criteria._FROZEN_UNDER_TEST


def test_registry_dict_is_rebound():
    original = ctmoments.criteria.theorem2
    ctmoments.criteria._REGISTRY_UNDER_TEST = {"thm2": original}
    t = spans.Tracer()
    try:
        spans.install(t)
        spans.check_coverage(t)
        assert ctmoments.criteria._REGISTRY_UNDER_TEST["thm2"] is ctmoments.criteria.theorem2
        assert ctmoments.criteria.theorem2 is not original
        t.disable()
        assert ctmoments.criteria._REGISTRY_UNDER_TEST["thm2"] is original
    finally:
        t.disable()
        del ctmoments.criteria._REGISTRY_UNDER_TEST


def test_traced_op_counts_calls_and_restores_originals(tracer):
    tracer.disable()
    evaluate_all = ctmoments.evaluate_all
    rho = ctmoments.werner(2, -0.5)
    reports = tracer.run_op(lambda r: ctmoments.evaluate_all(r), rho)
    assert ctmoments.evaluate_all is evaluate_all
    assert [r.name for r in reports] == [r.name for r in evaluate_all(rho)]
    assert tracer.totals["criteria.evaluate_all"][0] == 1
    metrics = spans.layer_metrics(tracer, tracer.totals[spans.ROOT][1], 1)
    shares = sum(metrics[f"{layer}.self_share"] for layer in spans.LAYERS)
    assert 0 < shares <= 1


def test_self_time_subtracts_direct_children():
    t = spans.Tracer()
    t.spans[:] = [["op", 0.0, 10.0, -1, 1], ["a", 1.0, 6.0, 0, 1],
                  ["b", 2.0, 3.0, 1, 1], ["b", 4.0, 5.5, 1, 1], ["c", 7.0, 9.0, 0, 1]]
    t.fold()
    assert t.totals["op"] == [1, 10.0, 3.0]
    assert t.totals["a"] == [1, 5.0, 2.5]
    assert t.totals["b"] == [2, 2.5, 2.5]
    assert t.spans == []


def test_missing_sources_exit_nonzero(monkeypatch):
    monkeypatch.setattr(run.source, "SRC", run.source.ROOT / "no-such-src")
    with pytest.raises(SystemExit) as exc:
        run.source.use_source_tree()
    assert exc.value.code not in (0, None)
