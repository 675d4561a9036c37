import json
from math import ceil, log2

import numpy as np

from ctmoments import _kernels, criteria, states
from ctmoments.cli import find_threshold, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_analyze_bell(tmp_path, capsys):
    path = str(tmp_path / "bell.json")
    code, _, _ = run(capsys, "generate", "--family", "bell", "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["any_violated"] is True
    by_name = {r["name"]: r for r in payload["reports"]}
    assert abs(by_name["ppt"]["quantity"] - 0.5) < 1e-9
    assert by_name["ccnr"]["violated"]
    assert payload["state_descriptor"]["dims"] == [2, 2]


def test_analyze_criteria_subset_and_output_file(tmp_path, capsys):
    state = str(tmp_path / "w.json")
    report = str(tmp_path / "report.json")
    run(capsys, "generate", "--family", "werner", "--d", "3", "--x", "-0.8",
        "-o", state)
    code, out, _ = run(capsys, "analyze", state, "--criteria", "ppt,dv",
                       "--output", report)
    assert code == 0 and out == ""
    payload = json.loads(open(report).read())
    assert [r["name"] for r in payload["reports"]] == ["ppt", "dv"]
    assert payload["any_violated"] is True


def test_analyze_baselines_build_no_tensor(tmp_path, capsys, monkeypatch):
    state = str(tmp_path / "w.json")
    run(capsys, "generate", "--family", "werner", "--d", "3", "--x", "-0.8",
        "-o", state)
    calls = []
    build = _kernels.expectation_tensor

    def counted(*args, **kwargs):
        calls.append(args[2])  # dims
        return build(*args, **kwargs)

    monkeypatch.setattr(_kernels, "expectation_tensor", counted)
    code, out, _ = run(capsys, "analyze", state, "--criteria", "ppt,ccnr")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["reports"]] == ["ppt", "ccnr"]
    assert calls == []


def test_analyze_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    state = str(tmp_path / "b.json")
    run(capsys, "generate", "--family", "bell", "-o", state)

    def fail(analysis, tol):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(criteria._REGISTRY, "ccnr", (True, fail))
    code, out, err = run(capsys, "analyze", state)
    assert code == 3 and out == "" and "did not converge" in err


def test_analyze_unknown_criterion(tmp_path, capsys):
    state = str(tmp_path / "b.json")
    run(capsys, "generate", "--family", "bell", "-o", state)
    code, _, err = run(capsys, "analyze", state, "--criteria", "nope")
    assert code == 2 and "nope" in err


def test_analyze_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 2 and err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_non_state_file(tmp_path, capsys):
    path = tmp_path / "notpsd.json"
    path.write_text(json.dumps({
        "version": 1, "dims": [2],
        "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    }))
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 2


def test_generate_validates_params(tmp_path, capsys):
    path = str(tmp_path / "x.json")
    code, _, _ = run(capsys, "generate", "--family", "werner", "-o", path)
    assert code == 2  # missing --d/--x
    code, _, _ = run(capsys, "generate", "--family", "werner", "--d", "2",
                     "--x", "2.0", "-o", path)
    assert code == 2  # x out of range
    code, _, _ = run(capsys, "generate", "--family", "bell", "--noise", "1.5",
                     "-o", path)
    assert code == 2  # noise out of range


def test_generate_pure_product_seeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CTM_SEED", "11")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "generate", "--family", "pure-product", "--dims", "2,3",
        "-o", str(a))
    run(capsys, "generate", "--family", "pure-product", "--dims", "2,3",
        "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads(a.read_text())["meta"]
    assert meta["params"]["seed"] == 11


def test_generate_ghz_with_noise(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "generate", "--family", "ghz", "--n", "3",
                     "--noise", "0.5", "-o", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["dims"] == [2, 2, 2]
    assert data["meta"]["params"]["noise"] == 0.5


def test_threshold_werner_ppt(capsys):
    code, out, _ = run(capsys, "threshold", "--family", "werner", "--d", "2",
                       "--criterion", "ppt")
    assert code == 0
    payload = json.loads(out)
    # d = 2 Werner states are entangled exactly for x < 0
    assert abs(payload["threshold"]) < 1e-3
    assert len(payload["crossings"]) == 1


def test_threshold_werner_thm1(capsys):
    code, out, _ = run(capsys, "threshold", "--family", "werner", "--d", "3",
                       "--criterion", "thm1-plain")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["threshold"] - (-1 / 3)) < 1e-4


def test_threshold_reuses_coarse_grid_margins():
    # the werner d = 3 thm1-plain margin changes sign once on [-1, 1]; each
    # bisection step builds one state, and the bracket's left end reuses its
    # coarse-grid margin instead of rebuilding that state
    calls = []

    def state_at(x):
        calls.append(x)
        return states.werner(3, x)

    crossings, brackets = find_threshold(state_at, "thm1-plain", -1.0, 1.0)
    assert len(brackets) == 1 and abs(crossings[0] - (-1 / 3)) < 1e-4
    grid = 201  # coarse step 0.01 over [-1, 1]
    bisections = ceil(log2(0.01 / 1e-5))
    assert len(calls) == grid + bisections


def test_threshold_requires_scalar_family(capsys):
    code, _, err = run(capsys, "threshold", "--family", "ghz",
                       "--criterion", "dv")
    assert code == 2 and "scalar" in err


def test_threshold_rejects_tiny_precision(capsys):
    code, _, _ = run(capsys, "threshold", "--family", "werner", "--d", "2",
                     "--criterion", "ppt", "--precision", "1e-12")
    assert code == 2


def test_threshold_werner_missing_d(capsys):
    code, _, _ = run(capsys, "threshold", "--family", "werner",
                     "--criterion", "ppt")
    assert code == 2
