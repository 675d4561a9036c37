"""JSON serialization of states and criterion reports.

StateFile schema (version 1):
    {"version": 1, "dims": [d1, ...], "matrix": [[[re, im], ...], ...],
     "meta": {...}}            # meta is optional
with D = prod(dims) rows of D [re, im] pairs, row-major, subsystem 1 most
significant. This format is checked here; dims, D and the state rules by DensityMatrix.
Floats are serialized with Python's shortest round-trip repr, so a
generate -> load -> save cycle is bit-for-bit stable.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import CtmError
from .linalg import DensityMatrix

STATE_FILE_VERSION = 1


class StateFileError(CtmError):
    pass


def state_to_dict(rho: DensityMatrix, meta: dict | None = None) -> dict:
    matrix = rho.mat.view(np.float64).reshape(rho.mat.shape + (2,)).tolist()
    out = {"version": STATE_FILE_VERSION, "dims": list(rho.dims), "matrix": matrix}
    if meta is not None:
        out["meta"] = meta
    return out


def state_from_dict(data: dict) -> tuple[DensityMatrix, dict | None]:
    if not isinstance(data, dict):
        raise StateFileError("state file must be a JSON object")
    version = data.get("version")
    if isinstance(version, bool) or version != STATE_FILE_VERSION:  # True == 1
        raise StateFileError(f"unsupported state file version {version!r}")
    matrix = data.get("matrix")
    try:
        arr = np.asarray(matrix)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"malformed matrix: {exc}") from None
    if arr.dtype.kind not in "iuf":  # str, null or object entries, or all bool
        raise StateFileError(f"matrix entries must be JSON numbers, got {arr.dtype}")
    if not (arr.ndim == 3 and arr.shape[-1] == 2):
        raise StateFileError(f"matrix must be rows of [re, im] pairs, got shape {arr.shape}")
    # np.asarray casts true and false among numbers to 1 and 0
    if bool in set(map(type, chain.from_iterable(chain.from_iterable(matrix)))):
        raise StateFileError("matrix entries must be JSON numbers, got true or false")
    mat = arr[..., 0] + 1j * arr[..., 1]
    try:
        rho = DensityMatrix(data.get("dims"), mat)
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
        except (ValueError, RecursionError) as exc:  # malformed, too deep or not UTF-8
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
