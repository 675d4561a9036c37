"""tools/ab_pairs.py checks its --claim and --trace arguments against
BENCHMARK.json before it exports or runs anything."""

import importlib.util
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


def test_good_claim_and_trace_reach_the_runs(ab_pairs, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", [
        "ab_pairs.py", "HEAD", "HEAD", "--seeds", "1-2", "--out", str(tmp_path / "b.json"),
        "--claim", "threshold-sweep:ops_per_s", "--trace", "threshold-sweep:83"])
    with pytest.raises(AssertionError, match="exported or ran"):
        ab_pairs.main()
