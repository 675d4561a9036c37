import json
from math import ceil, log2
from pathlib import Path

import numpy as np
import pytest

from ctmoments import _kernels, criteria, io, states
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
    payload = json.loads(Path(report).read_text())
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


def test_analyze_nan_tol_exits_2(tmp_path, capsys):
    # a nan tol makes every `margin > tol` false: a silent "not violated"
    state = str(tmp_path / "b.json")
    run(capsys, "generate", "--family", "bell", "-o", state)
    code, out, err = run(capsys, "analyze", state, "--tol", "nan")
    assert code == 2 and out == "" and "tol" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent"
    code, _, err = run(capsys, "generate", "--family", "bell",
                       "-o", str(missing / "x.json"))
    assert code == 2 and err.startswith("error:")
    state = str(tmp_path / "b.json")
    run(capsys, "generate", "--family", "bell", "-o", state)
    code, out, err = run(capsys, "analyze", state, "--output", str(missing / "r.json"))
    assert code == 2 and out == "" and err.startswith("error:")


def test_analyze_unknown_criterion(tmp_path, capsys):
    state = str(tmp_path / "b.json")
    run(capsys, "generate", "--family", "bell", "-o", state)
    code, _, err = run(capsys, "analyze", state, "--criteria", "nope")
    assert code == 2 and "nope" in err
    # an empty list would report nothing and "any_violated": false
    for names in ("", ","):
        code, out, err = run(capsys, "analyze", state, "--criteria", names)
        assert code == 2 and out == "" and err.startswith("error:"), names


def test_analyze_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 2 and err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    zero_parties = json.dumps({"version": 1, "dims": [], "matrix": [[[1, 0]]]})
    # bad JSON, bad UTF-8, a state on no subsystem at all
    for content in (b"{broken", b"\xff\xfe\x00", zero_parties.encode()):
        path.write_bytes(content)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and err.startswith("error:"), content


def test_generate_rejects_non_integer_seed(tmp_path, capsys, monkeypatch):
    for seed in ("abc", "-1"):
        monkeypatch.setenv("CTM_SEED", seed)
        code, _, err = run(capsys, "generate", "--family", "pure-product",
                           "--dims", "2,2", "-o", str(tmp_path / "p.json"))
        assert code == 2 and "CTM_SEED" in err, seed


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


SAMPLE_FLAGS = {"d": "3", "x": "-0.5", "n": "3", "dims": "2,3"}


@pytest.mark.parametrize("family", sorted(states.FAMILIES))
def test_every_family_generates(family, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CTM_SEED", "7")
    names, build = states.FAMILIES[family]
    path = tmp_path / "s.json"
    argv = ["generate", "--family", family, "-o", str(path)]
    for p in names:
        if p != "seed":
            argv += [f"--{p}", SAMPLE_FLAGS[p]]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    rho, meta = io.load_state(str(path))
    assert meta["family"] == family and list(meta["params"]) == list(names)
    assert np.array_equal(rho.mat, build(**meta["params"]).mat)


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


def threshold_of(capsys, *argv):
    code, out, err = run(capsys, "threshold", *argv)
    assert code == 0, err
    return json.loads(out)["threshold"]


def test_threshold_ghz_dv_under_noise(capsys):
    # white noise scales the plain tensor, T(x) = x T(1), so dv's trace norm
    # is x * quantity and crosses its bound at x = bound / quantity
    rep = criteria.dv_criterion(states.ghz(3))
    want = rep.bound / rep.quantity
    assert abs(want - 1 / (2 * np.sqrt(2))) < 1e-12
    got = threshold_of(capsys, "--family", "ghz", "--n", "3", "--criterion", "dv")
    assert abs(got - want) < 1e-5


def test_threshold_w_thm3_plain_under_noise(capsys):
    # per mode, x^4 m2^2 > bound x^3 m3 for x > bound m3 / m2^2; the state is
    # flagged once any mode flags it
    plain, _ = criteria.theorem3(states.w_state(3))
    want = min(m["bound"] / m["quantity"] for m in plain.detail["modes"])
    assert abs(want - 0.31776) < 1e-5
    got = threshold_of(capsys, "--family", "w", "--n", "3",
                       "--criterion", "thm3-plain")
    assert abs(got - want) < 1e-5


def test_threshold_rejects_tiny_precision(capsys):
    for precision in ("1e-12", "nan"):
        code, _, _ = run(capsys, "threshold", "--family", "werner", "--d", "2",
                         "--criterion", "ppt", "--precision", precision)
        assert code == 2, precision


def test_threshold_werner_missing_d(capsys):
    code, _, _ = run(capsys, "threshold", "--family", "werner",
                     "--criterion", "ppt")
    assert code == 2
