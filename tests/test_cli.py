import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctmoments import _kernels, cli, criteria, io, linalg, moments_of_state, states
from ctmoments.cli import COARSE_STEP, find_threshold, main
from ctmoments.errors import ParamOutOfRange


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


def test_module_entry_point_exits_with_the_code_main_returns(tmp_path, capsys):
    # `python -m ctmoments.cli` runs sys.exit(main()), as the console script does
    path = tmp_path / "bell.json"
    assert run(capsys, "generate", "--family", "bell", "-o", str(path))[0] == 0
    src = str(Path(cli.__file__).resolve().parents[1])  # absolute: the child imports this code
    paths = [src, os.getenv("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

    def analyze(file):
        command = [sys.executable, "-m", "ctmoments.cli", "analyze", str(file)]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    done = analyze(path)
    assert done.returncode == 0 and json.loads(done.stdout)["any_violated"], done.stderr
    done = analyze(tmp_path / "missing.json")
    assert done.returncode == 2 and not done.stdout, done.stderr
    assert done.stderr.startswith("error:"), done.stderr


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


def test_analyze_ppt_builds_no_tensor_and_ccnr_one(tmp_path, capsys, monkeypatch):
    state = str(tmp_path / "w.json")
    run(capsys, "generate", "--family", "werner", "--d", "3", "--x", "-0.8",
        "-o", state)
    calls = []
    build = _kernels.expectation_tensor

    def counted(*args, **kwargs):
        calls.append(args[2])  # dims
        return build(*args, **kwargs)

    monkeypatch.setattr(_kernels, "expectation_tensor", counted)
    code, out, _ = run(capsys, "analyze", state, "--criteria", "ppt")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["reports"]] == ["ppt"]
    assert calls == []
    # ccnr reads T~ under its weight: one build, shared with ppt's analysis
    code, out, _ = run(capsys, "analyze", state, "--criteria", "ppt,ccnr")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["reports"]] == ["ppt", "ccnr"]
    assert calls == [(3, 3)]


def test_analyze_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    state = str(tmp_path / "b.json")
    run(capsys, "generate", "--family", "bell", "-o", state)

    def fail(weight, analysis):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(criteria._REGISTRY, "ccnr", (True, fail, None))
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
    ghz = str(tmp_path / "ghz.json")
    run(capsys, "generate", "--family", "ghz", "--n", "3", "-o", ghz)
    code, out, err = run(capsys, "analyze", ghz, "--criteria", "ppt")
    assert code == 2 and out == "" and "bipartite" in err
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
    # bad JSON, bad UTF-8, a state on no subsystem at all, JSON nested too deep
    for content in (b"{broken", b"\xff\xfe\x00", zero_parties.encode(), b"[" * 100_000):
        path.write_bytes(content)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and err.startswith("error:"), content


def test_analyze_boolean_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "bell.json"
    text = json.dumps(io.state_to_dict(states.bell()))
    assert text.count("[0.0, 0.0]") == 12
    path.write_text(text.replace("[0.0, 0.0]", "[false, 0.0]", 1))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "JSON numbers" in err


@pytest.mark.parametrize("content, message", [
    ([{"version": 1}], "state file must be a JSON object"),
    ({"version": 1, "dims": [2], "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
     "malformed matrix"),  # ragged: a second row of one pair
    ({"version": 1, "dims": [2], "matrix": [[0.5, 0.0], [0.0, 0.5]]},
     "got shape (2, 2)"),  # a plain 2-D matrix, no [re, im] pairs
    ({"version": 1, "dims": [2], "matrix": [[[0.5, 0.0, 0.0]] * 2] * 2},
     "got shape (2, 2, 3)"),  # rows of triples
])
def test_analyze_non_object_or_ragged_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == "" and err.startswith("error:") and message in err, err


def test_generate_rejects_non_integer_seed(tmp_path, capsys, monkeypatch):
    for seed in ("abc", "-1"):
        monkeypatch.setenv("CTM_SEED", seed)
        code, _, err = run(capsys, "generate", "--family", "pure-product",
                           "--dims", "2,2", "-o", str(tmp_path / "p.json"))
        assert code == 2 and "CTM_SEED" in err, seed


@pytest.mark.parametrize("dims, message", [("2,x", "cannot parse dims"),
                                            ("-1,2", "dims must be non-empty integers >= 2")])
def test_generate_rejects_bad_dims(tmp_path, capsys, dims, message):
    # --dims=... passes a leading minus through argparse; random_pure_product
    # checks dims first, so -1 never reaches rng.normal(size=-1)
    code, _, err = run(capsys, "generate", "--family", "pure-product",
                       f"--dims={dims}", "-o", str(tmp_path / "p.json"))
    assert code == 2 and err.startswith("error:") and message in err, err


@pytest.mark.parametrize("family, limit", [
    (["ghz", "--n", "64"], None),
    (["w", "--n", "40"], None),
    (["werner", "--d", "4294967296", "--x", "0"], None),
    (["maximally-mixed", "--dims", "4294967296,4294967296"], None),
    (["ghz", "--n", "12"], 64 * 2**20),
])
def test_generate_rejects_oversize_states(tmp_path, capsys, monkeypatch, family, limit):
    # the first four imply D >= 2^40, past the largest D x D complex128 matrix
    # numpy indexes; ghz(12) is a 256 MiB matrix, past a 64 MiB limit. The
    # check comes before anything of that size is built
    if limit is not None:
        monkeypatch.setattr(linalg, "_MAX_BYTES", limit)
    out = tmp_path / "big.json"
    code, _, err = run(capsys, "generate", "--family", *family, "-o", str(out))
    assert code == 2 and err.startswith("error:") and "bytes; at most" in err, err
    assert not out.exists()


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
    build = states.FAMILIES[family]
    names = inspect.signature(build).parameters
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
    # the werner d = 3 thm1-plain margin changes sign once on [-1, 1]; the
    # secant estimates start from the bracket's two coarse-grid margins
    # instead of rebuilding those states, and each round builds one pair:
    # the margin is of fourth order in x, so the second pair straddles
    calls = []

    def state_at(x):
        calls.append(x)
        return states.werner(3, x)

    crossings, brackets = find_threshold(state_at, "thm1-plain", -1.0, 1.0)
    assert len(brackets) == 1 and abs(crossings[0] - (-1 / 3)) < 1e-4
    grid = 201  # coarse step 0.01 over [-1, 1]
    assert len(calls) == grid + 2 * 2


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


def test_threshold_with_several_crossings_reports_none(capsys, monkeypatch):
    crossings, brackets = [0.25, 0.75], [(0.2, 0.3), (0.7, 0.8)]
    monkeypatch.setattr(cli, "find_threshold", lambda *args, **kwargs: (crossings, brackets))
    code, out, err = run(capsys, "threshold", "--family", "bell", "--criterion", "ppt")
    assert code == 0
    payload = json.loads(out)
    assert payload["threshold"] is None and payload["crossings"] == crossings
    assert payload["brackets"] == [list(b) for b in brackets]
    assert err.startswith("warning:") and "2 brackets" in err, err


def test_threshold_rejects_tiny_precision(capsys):
    for precision in ("1e-12", "nan"):
        code, _, _ = run(capsys, "threshold", "--family", "werner", "--d", "2",
                         "--criterion", "ppt", "--precision", precision)
        assert code == 2, precision


@pytest.mark.parametrize("lo, hi, precision", [
    (0.0, 1.0, 0.0),            # would bisect forever at adjacent floats
    (0.0, 1.0, float("nan")),   # would return the coarse midpoint
    (0.0, 1.0, float("inf")),   # would return the coarse midpoint
    (0.0, 1.0, 1e-9),
    (1.0, -1.0, 1e-5),          # an empty grid
    (0.5, 0.5, 1e-5),
    (0.0, float("inf"), 1e-5),
])
def test_find_threshold_checks_its_arguments(lo, hi, precision):
    with pytest.raises(ParamOutOfRange):
        find_threshold(lambda x: states.werner(2, x), "ppt", lo, hi, precision=precision)


def test_find_threshold_short_range_keeps_one_grid_step():
    # a range under COARSE_STEP / 2 still puts both of its ends on the grid
    werner2 = lambda x: states.werner(2, x)
    (wide,), _ = find_threshold(werner2, "ppt", -0.004, 0.004)
    crossings, brackets = find_threshold(werner2, "ppt", -0.002, 0.002)
    assert brackets == [(-0.002, 0.002)]
    assert len(crossings) == 1 and abs(crossings[0] - wide) < 1e-5


def threshold_payload(capsys, *argv):
    code, out, err = run(capsys, "threshold", *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("criterion", ["dv", "thm1-plain"])
def test_threshold_payload_reports_evaluations_and_closed_form(capsys, criterion):
    payload = threshold_payload(capsys, "--family", "tiles-ppt", "--criterion", criterion)
    # a white-noise sweep scales T: a_k(x) = x^k a_k(1)
    _, a1, a2, a3 = moments_of_state(states.tiles_ppt(), False, 3)
    bound = criteria.dv_bound(3, 3)
    want = bound / a1 if criterion == "dv" else bound * a3 / a2**2
    assert payload["closed_form"] == pytest.approx(want, abs=1e-12)
    assert abs(payload["threshold"] - want) < 1e-5
    grid = int(round(1 / COARSE_STEP)) + 1
    # dv's margin is affine in the noise level, thm1-plain's of fourth order
    pairs = {"dv": 1, "thm1-plain": 2}[criterion]
    assert payload["evaluations"] == grid + 2 * pairs


def test_threshold_payload_werner_closed_form(capsys):
    payload = threshold_payload(capsys, "--family", "werner", "--d", "3",
                                "--criterion", "thm1-plain")
    assert payload["closed_form"] == pytest.approx(-1 / 3, abs=1e-15)
    assert abs(payload["threshold"] - payload["closed_form"]) < 1e-5
    grid = int(round(2 / COARSE_STEP)) + 1
    assert payload["evaluations"] == grid + 2 * 2  # two secant pairs
    # no closed form where none is known, nor where the sweep never crosses: a
    # product state is never flagged (bound / quantity at x = 1 would be a
    # rounding artefact near 1), at --tol 1 tiles-ppt is not flagged at x = 1,
    # and at --tol 0.5 werner(2, x) is flagged nowhere
    for argv in (("--family", "werner", "--d", "2", "--criterion", "thm1-plain",
                  "--tol", "0.5"),
                 ("--family", "tiles-ppt", "--criterion", "li"),
                 ("--family", "pure-product", "--dims", "2,2", "--criterion", "dv"),
                 ("--family", "tiles-ppt", "--criterion", "dv", "--tol", "1")):
        assert threshold_payload(capsys, *argv)["closed_form"] is None, argv


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_threshold_payload_werner_closed_forms(capsys, d):
    # werner(d, x) is s werner(d, -1) + (1 - s) I/D with s = (1 - d x)/(1 + d),
    # so the white-noise rule gives werner's crossings: (2 - d)/d for the plain
    # tensor tests and the PPT boundary 0 for ppt
    for criterion, want in (("thm1-plain", (2 - d) / d), ("dv", (2 - d) / d),
                            ("thm2-plain", (2 - d) / d), ("ppt", 0.0)):
        payload = threshold_payload(capsys, "--family", "werner", "--d", str(d),
                                    "--criterion", criterion)
        assert payload["closed_form"] == pytest.approx(want, abs=1e-15), criterion
        # at the default tol thm1-plain's search lands 1.73e-5 from -0.6 at d = 5,
        # as tol acts on its fourth-order margin, so only the others are pinned
        if criterion != "thm1-plain":
            assert len(payload["crossings"]) == 1, criterion
            assert abs(payload["threshold"] - want) <= payload["precision"], criterion


def test_threshold_closed_form_is_the_crossing_at_zero_tol(capsys):
    # --tol moves the search's crossing, to (bound + tol)/a1 for dv, while the
    # closed form stays the crossing at tol = 0, bound / a1
    _, a1, _, _ = moments_of_state(states.tiles_ppt(), False, 3)
    bound = criteria.dv_bound(3, 3)
    payload = threshold_payload(capsys, "--family", "tiles-ppt", "--criterion", "dv",
                                "--tol", "0.01")
    assert payload["closed_form"] == bound / a1
    assert round(payload["closed_form"], 5) == 0.94929
    assert abs(payload["threshold"] - (bound + 0.01) / a1) < 1e-5
    assert round(payload["threshold"], 5) == 0.97777


def test_threshold_payload_ppt_closed_form(capsys):
    # (I/D)^Gamma = I/D, so lambda_min(rho(x)^Gamma) = x lambda + (1 - x)/D
    # crosses 0 at 1/(1 - D lambda); bell has lambda = -1/2, D = 4
    payload = threshold_payload(capsys, "--family", "bell", "--criterion", "ppt")
    assert payload["closed_form"] == pytest.approx(1 / 3, abs=1e-15)
    assert abs(payload["threshold"] - payload["closed_form"]) <= payload["precision"]
    # tiles is PPT, so its sweep never crosses and no closed form is reported
    payload = threshold_payload(capsys, "--family", "tiles-ppt", "--criterion", "ppt")
    assert payload["crossings"] == [] and payload["closed_form"] is None


def test_threshold_bell_ppt_closed_form_is_exact(capsys):
    # bell's lambda_min(rho^Gamma) is exactly -1/2, so 1/(1 + 4/2) rounds once
    payload = threshold_payload(capsys, "--family", "bell", "--criterion", "ppt")
    assert payload["closed_form"] == 1 / 3


@pytest.mark.parametrize("argv, want", [
    (("--family", "ghz", "--n", "4"), 17 / 81),
    (("--family", "w", "--n", "3"), 0.3177620651003837),
    (("--family", "werner", "--d", "3"), -1 / 3),
])
def test_threshold_thm3_plain_closed_form(capsys, argv, want):
    # every unfolding of T has a2 = ||T||_F^2, so thm3's worst mode is the
    # first to cross and its bound / quantity is the sweep's crossing
    payload = threshold_payload(capsys, *argv, "--criterion", "thm3-plain", "--tol", "0")
    assert payload["closed_form"] == pytest.approx(want, abs=1e-15)
    assert len(payload["crossings"]) == 1
    assert abs(payload["threshold"] - want) <= payload["precision"] / 2


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (4, 4)])
def test_ppt_closed_form_matches_bisection_on_ginibre_states(dims):
    base = states.random_density(dims, np.random.default_rng(1))
    closed_form = criteria._noise_crossing(base, "ppt", criteria.DEFAULT_TOL)
    crossings, _ = find_threshold(lambda x: states.mix_white_noise(base, x), "ppt", 0.0, 1.0)
    assert closed_form is not None and len(crossings) == 1
    assert abs(crossings[0] - closed_form) <= 1e-5


def test_threshold_werner_missing_d(capsys):
    code, _, _ = run(capsys, "threshold", "--family", "werner",
                     "--criterion", "ppt")
    assert code == 2
