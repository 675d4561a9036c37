"""tools/ab_pairs.py checks --seeds, and --claim and --trace against
BENCHMARK.json, before it exports or runs anything, judges every
end-to-end metric against its no-regression bound, and exits 1 once it has
written a "past" verdict."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.fixture
def ab_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def never(*args, **kwargs):
        raise AssertionError("ab_pairs exported or ran a revision")

    monkeypatch.setattr(module, "export", never)
    monkeypatch.setattr(module, "run", never)
    return module


@pytest.mark.parametrize("flag, value", [
    ("--claim", "threshold-sweep:ops_per_sec"),   # misspelt metric
    ("--claim", "threshold_sweep:ops_per_s"),     # misspelt workload
    ("--claim", "ops_per_s"),                     # no workload
    ("--trace", "threshold-sweep:x83"),           # seed not an integer
    ("--trace", "threshold-sweep:-1"),            # negative seed
    ("--trace", "thresholds:83"),                 # misspelt workload
    ("--trace", "83"),                            # no workload
])
def test_bad_claim_or_trace_fails_before_any_run(ab_pairs, monkeypatch, tmp_path, capsys,
                                                 flag, value):
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", "HEAD", "HEAD", "--seeds", "1-2",
                                      "--out", str(out), flag, value])
    with pytest.raises(SystemExit) as exit_info:
        ab_pairs.main()
    assert exit_info.value.code == 2
    assert f"{flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["abc", "5-x", "-3", "3", "5-4"])
def test_bad_seeds_fail_before_any_run(ab_pairs, monkeypatch, tmp_path, capsys, seeds):
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", "HEAD", "HEAD", f"--seeds={seeds}",
                                      "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        ab_pairs.main()
    assert exit_info.value.code == 2
    assert f"--seeds {seeds}" in capsys.readouterr().err
    assert not out.exists()


def test_good_claim_and_trace_reach_the_runs(ab_pairs, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", [
        "ab_pairs.py", "HEAD", "HEAD", "--seeds", "1-2", "--out", str(tmp_path / "b.json"),
        "--claim", "threshold-sweep:ops_per_s", "--trace", "threshold-sweep:83"])
    with pytest.raises(AssertionError, match="exported or ran"):
        ab_pairs.main()


HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "latency_ms_p50", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize("metric, parent, change, worse_by, verdict", [
    # a tight parent: the change's median decides
    (HIGHER, [100, 101, 99, 100, 102], [70, 71, 69, 70, 72], 0.3, "past"),
    (HIGHER, [100, 101, 99, 100, 102], [90, 91, 89, 90, 92], 0.1, "within"),
    (HIGHER, [100, 101, 99, 100, 102], [120, 121, 119, 120, 122], -0.2, "within"),
    (LOWER, [10, 10.1, 9.9, 10, 10.2], [13, 13.1, 12.9, 13, 13.2], 0.3, "past"),
    (LOWER, [10, 10.1, 9.9, 10, 10.2], [11, 11.1, 10.9, 11, 11.2], 0.1, "within"),
    # the parent's interquartile range (60 to 140) is 0.8 of its median
    (HIGHER, [40, 60, 100, 140, 160], [95, 96, 97, 98, 99], 0.03, "unresolved"),
    (HIGHER, [40, 60, 100, 140, 160], [161, 162, 163, 164, 165], -0.63, "within"),
    (LOWER, [4, 6, 10, 14, 16], [3, 3.1, 3.2, 3.3, 3.4], -0.68, "within"),
    (LOWER, [4, 6, 10, 14, 16], [9, 10, 11, 12, 13], 0.1, "unresolved"),
    # past the bound stays past, however wide the parent's spread
    (HIGHER, [40, 60, 100, 140, 160], [60, 65, 70, 75, 80], 0.3, "past"),
])
def test_regression_verdicts(ab_pairs, metric, parent, change, worse_by, verdict):
    got = ab_pairs.regression(parent, change, metric)
    assert got == {"bound": 0.25, "worse_by": pytest.approx(worse_by), "verdict": verdict}


def test_summarize_writes_each_metrics_verdict(ab_pairs):
    runs = [{"side": side, "ops_per_s": ops, "latency_ms_p50": 1000 / ops}
            for k in range(4) for side, ops in (("parent", 100 + k), ("change", 60 + k))]
    out = ab_pairs.summarize(runs, [HIGHER, LOWER])
    assert (out["ops_per_s"]["verdict"], out["latency_ms_p50"]["verdict"]) == ("past", "past")
    assert out["ops_per_s"]["worse_by"] == round((101.5 - 61.5) / 101.5, 4)
    assert out["ops_per_s"]["change_better_pairs"] == 0


@pytest.mark.parametrize("change_ops, code", [(100.0, 0), (60.0, 1)])
def test_a_past_verdict_is_written_and_exits_1(ab_pairs, monkeypatch, tmp_path, change_ops,
                                               code):
    def export(rev, dest):
        dest.mkdir(parents=True)
        return rev * 40

    def run(tree, workload, seed, seconds, trace):
        ops = change_ops if tree.name == "change" else 100.0
        env = {k: "x" for k in ("python", "numpy", "scipy", "nproc", "blas")}
        metrics = {m: {"value": ops if m == "ops_per_s" else 1.0} for m in names}
        return env, {"metrics": metrics, "failed": 0, "attempted": 10, "correct": True}

    spec = json.loads((ab_pairs.REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    monkeypatch.setattr(ab_pairs, "export", export)
    monkeypatch.setattr(ab_pairs, "run", run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", "a", "b", "--seeds", "1-2",
                                      "--out", str(out)])
    assert ab_pairs.main() == code
    report = json.loads(out.read_text())
    verdicts = {w: b["metrics"]["ops_per_s"]["verdict"]
                for w, b in report["benchmark"]["workloads"].items()}
    assert set(verdicts.values()) == {"past" if code else "within"}


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # interquartile range 4.5


@pytest.mark.parametrize("metric, parent, change, wins, verdict", [
    # the change wins 9 of 10 pairs by a median gain of 10
    (HIGHER, PARENT, [99] + [p + 10 for p in PARENT[1:]], 9, "met"),
    (HIGHER, PARENT, [99, 100] + [p + 10 for p in PARENT[2:]], 8, "not met"),
    # 10 of 10 pairs, but a gain of 1 is inside the parent's spread
    (HIGHER, PARENT, [p + 1 for p in PARENT], 10, "not met"),
    (LOWER, PARENT, [p - 5 for p in PARENT], 10, "met"),
    (LOWER, PARENT, [p + 5 for p in PARENT], 0, "not met"),
])
def test_judge_a_claimed_gain(ab_pairs, metric, parent, change, wins, verdict):
    name = metric["name"]
    runs = [{"side": side, name: value}
            for pair in zip(parent, change) for side, value in zip(ab_pairs.SIDES, pair)]
    block = {"pairs": len(parent), "metrics": ab_pairs.summarize(runs, [metric])}
    got = ab_pairs.judge(block, metric)
    assert got.startswith(f"{verdict}:") and f"better in {wins} of 10 pairs" in got, got
