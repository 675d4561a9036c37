"""Seeded raw inputs: density matrices as plain complex numpy arrays.

Nothing here imports ctmoments. The library only ever receives these
arrays (or files written from them), so a change to ctmoments.states
cannot change what the benchmark feeds it.
"""

from __future__ import annotations

from math import prod

import numpy as np


def ket(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def ginibre(rng: np.random.Generator, dims) -> np.ndarray:
    d = prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def pure(rng: np.random.Generator, dims) -> np.ndarray:
    return projector(ket(rng, prod(dims)))


def product(rng: np.random.Generator, dims) -> np.ndarray:
    v = np.ones(1, dtype=np.complex128)
    for d in dims:
        v = np.kron(v, ket(rng, d))
    return projector(v)


def separable(rng: np.random.Generator, dims, max_terms: int = 10) -> np.ndarray:
    """Dirichlet-weighted mixture of 1..max_terms random pure products."""
    weights = rng.dirichlet(np.ones(int(rng.integers(1, max_terms + 1))))
    return sum(w * product(rng, dims) for w in weights)


def werner(d: int, x: float) -> np.ndarray:
    """[(d - x) I + (d x - 1) F] / (d^3 - d); separable iff x >= 0."""
    flip = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            flip[i * d + j, j * d + i] = 1.0
    return ((d - x) * np.eye(d * d) + (d * x - 1) * flip) / (d**3 - d)


def tiles() -> np.ndarray:
    """The 3x3 bound-entangled tiles state (I_9 - sum of tile projectors) / 4."""
    e = np.eye(3)

    def unit(*amps):
        v = np.asarray(amps, dtype=np.complex128)
        return v / np.linalg.norm(v)

    tiles_ = [
        np.kron(e[0], unit(1, -1, 0)),
        np.kron(unit(1, -1, 0), e[2]),
        np.kron(e[2], unit(0, 1, -1)),
        np.kron(unit(0, 1, -1), e[0]),
        np.kron(unit(1, 1, 1), unit(1, 1, 1)),
    ]
    return (np.eye(9) - sum(projector(t) for t in tiles_)) / 4.0


def noisy(mat: np.ndarray, x: float) -> np.ndarray:
    """x * mat + (1 - x) * I / D."""
    d = mat.shape[0]
    return x * mat + (1 - x) / d * np.eye(d)
