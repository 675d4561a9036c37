import numpy as np
import pytest

from ctmoments import bell, ppt_criterion, werner
from ctmoments.io import (
    StateFileError,
    load_state,
    report_to_dict,
    save_state,
    state_from_dict,
    state_to_dict,
)


def test_round_trip(tmp_path):
    path = tmp_path / "state.json"
    rho = werner(3, -0.4)
    save_state(path, rho, meta={"family": "werner"})
    loaded, meta = load_state(path)
    assert loaded.dims == (3, 3)
    assert meta == {"family": "werner"}
    np.testing.assert_allclose(loaded.mat, rho.mat, atol=0)


def test_save_is_bit_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rho = bell()
    save_state(a, rho)
    save_state(b, load_state(a)[0])
    assert a.read_bytes() == b.read_bytes()


def test_dict_round_trip_without_meta():
    rho = bell()
    data = state_to_dict(rho)
    assert "meta" not in data
    back, meta = state_from_dict(data)
    assert meta is None
    np.testing.assert_allclose(back.mat, rho.mat)


def test_rejects_bad_version():
    data = state_to_dict(bell())
    data["version"] = 2
    with pytest.raises(StateFileError):
        state_from_dict(data)


def test_rejects_bad_dims():
    data = state_to_dict(bell())
    data["dims"] = "2,2"
    with pytest.raises(StateFileError):
        state_from_dict(data)


def test_rejects_wrong_shape():
    data = state_to_dict(bell())
    data["matrix"] = data["matrix"][:3]
    with pytest.raises(StateFileError):
        state_from_dict(data)


def test_rejects_string_entries():
    data = state_to_dict(bell())
    data["matrix"][0][0] = ["0.5", "0"]  # the value bell() has there, as text
    with pytest.raises(StateFileError, match="JSON numbers"):
        state_from_dict(data)


@pytest.mark.parametrize(
    "row,col,pair", [(0, 1, [False, 0.0]), (3, 3, [0.5, False])]
)
def test_rejects_boolean_entries(row, col, pair):
    # bell() has the same numbers there, with false read as 0
    data = state_to_dict(bell())
    assert data["matrix"][row][col] == pair
    data["matrix"][row][col] = pair
    with pytest.raises(StateFileError, match="JSON numbers"):
        state_from_dict(data)


def test_rejects_boolean_version_and_dims():
    data = state_to_dict(bell())
    data["version"] = True  # equal to 1
    with pytest.raises(StateFileError, match="version"):
        state_from_dict(data)
    data = state_to_dict(bell())
    data["dims"] = [True, 2]
    with pytest.raises(StateFileError, match="dims must be"):
        state_from_dict(data)


def test_rejects_invalid_density_matrix():
    data = state_to_dict(bell())
    data["matrix"][0][0] = [5.0, 0.0]  # breaks trace normalization
    with pytest.raises(StateFileError):
        state_from_dict(data)


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StateFileError):
        load_state(path)


def test_report_payload():
    rep = ppt_criterion(bell())
    payload = report_to_dict({"path": "x"}, 1e-9, [rep])
    assert payload["any_violated"] is True
    assert payload["reports"][0]["name"] == "ppt"
    assert payload["tol"] == 1e-9
