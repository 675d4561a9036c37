"""JSON serialization of states and criterion reports.

StateFile schema (version 1):
    {"version": 1, "dims": [d1, ...], "matrix": [[[re, im], ...], ...],
     "meta": {...}}            # meta is optional
with D rows of D [re, im] pairs, row-major, subsystem 1 most significant.
Floats are serialized with Python's shortest round-trip repr, so a
generate -> load -> save cycle is bit-for-bit stable.
"""

from __future__ import annotations

import json
from math import prod

import numpy as np

from .errors import CtmError
from .linalg import DensityMatrix

STATE_FILE_VERSION = 1


class StateFileError(CtmError):
    pass


def state_to_dict(rho: DensityMatrix, meta: dict | None = None) -> dict:
    matrix = [
        [[float(z.real), float(z.imag)] for z in row] for row in rho.mat
    ]
    out = {"version": STATE_FILE_VERSION, "dims": list(rho.dims), "matrix": matrix}
    if meta is not None:
        out["meta"] = meta
    return out


def state_from_dict(data: dict) -> tuple[DensityMatrix, dict | None]:
    if not isinstance(data, dict):
        raise StateFileError("state file must be a JSON object")
    if data.get("version") != STATE_FILE_VERSION:
        raise StateFileError(
            f"unsupported state file version {data.get('version')!r}"
        )
    dims = data.get("dims")
    matrix = data.get("matrix")
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise StateFileError("dims must be a list of integers")
    d = prod(dims)
    try:
        arr = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"malformed matrix: {exc}") from None
    if arr.shape != (d, d, 2):
        raise StateFileError(
            f"matrix must be {d} rows of {d} [re, im] pairs, got shape {arr.shape}"
        )
    mat = arr[..., 0] + 1j * arr[..., 1]
    try:
        rho = DensityMatrix(tuple(dims), mat)
    except ValueError as exc:
        raise StateFileError(str(exc)) from None
    return rho, data.get("meta")


def save_state(path: str, rho: DensityMatrix, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(rho, meta), fh)
        fh.write("\n")


def load_state(path: str) -> tuple[DensityMatrix, dict | None]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise StateFileError(f"invalid JSON: {exc}") from None
    return state_from_dict(data)


def report_to_dict(state_descriptor, tol: float, reports) -> dict:
    reps = [r.to_dict() for r in reports]
    return {
        "state_descriptor": state_descriptor,
        "tol": tol,
        "reports": reps,
        "any_violated": any(r["violated"] for r in reps),
    }
