"""Test-state constructors: Werner family, the tiles PPT state, GHZ/W/Bell,
product states, white-noise mixing, and seeded random state generators."""

from __future__ import annotations

from functools import lru_cache
from math import prod
from numbers import Integral

import numpy as np

from .errors import ParamOutOfRange
from .linalg import DensityMatrix, _check_dims, _derived_state


def maximally_mixed(dims) -> DensityMatrix:
    dims = _check_dims(dims)
    d = prod(dims)
    return DensityMatrix(dims, np.eye(d, dtype=np.complex128) / d)


def _size(family: str, name: str, value) -> int:
    """value as an int >= 2 (a Python or numpy integer), else ParamOutOfRange."""
    if not isinstance(value, Integral):
        raise ParamOutOfRange(f"{family} requires an integer {name}, got {value!r}")
    if value < 2:
        raise ParamOutOfRange(f"{family} requires {name} >= 2, got {value}")
    return int(value)


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The complex (n, n) identity, read-only and kept for the process."""
    eye = np.eye(n, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=None)
def _flip(d: int) -> np.ndarray:
    """The swap F|i j> = |j i> on C^d (x) C^d, read-only and kept for the process."""
    _check_dims((d, d))  # before anything of size d^2 is built
    flip = _identity(d * d)[np.arange(d * d).reshape(d, d).T.ravel()]
    flip.flags.writeable = False
    return flip


def werner(d: int, x: float) -> DensityMatrix:
    """Werner state [(d - x) I + (d x - 1) F] / (d^3 - d), separable iff x >= 0."""
    d = _size("werner", "d", d)
    if not -1.0 <= x <= 1.0:
        raise ParamOutOfRange(f"werner parameter x must lie in [-1, 1], got {x}")
    flip = _flip(d)  # checks (d, d) once per d
    mat = ((d - x) * _identity(d * d) + (d * x - 1) * flip) / (d**3 - d)
    # eigenvalues (1 + x)/(d(d + 1)) on the symmetric and (1 - x)/(d(d - 1))
    # on the antisymmetric subspace; mat is real and symmetric
    lam_min = min((1 + x) / (d * (d + 1)), (1 - x) / (d * (d - 1)))
    return _derived_state((d, d), mat, lam_min, 0.0)


def _ket(*amps) -> np.ndarray:
    v = np.asarray(amps, dtype=np.complex128)
    return v / np.linalg.norm(v)


def tiles_ppt() -> DensityMatrix:
    """The 3x3 bound entangled state (I_9 - sum of five tile projectors) / 4."""
    e = np.eye(3, dtype=np.complex128)
    chis = [
        np.kron(e[0], _ket(1, -1, 0)),
        np.kron(_ket(1, -1, 0), e[2]),
        np.kron(e[2], _ket(0, 1, -1)),
        np.kron(_ket(0, 1, -1), e[0]),
        np.kron(_ket(1, 1, 1), _ket(1, 1, 1)),
    ]
    mat = np.eye(9, dtype=np.complex128)
    for chi in chis:
        mat -= np.outer(chi, chi.conj())
    return DensityMatrix((3, 3), mat / 4.0)


def mix_white_noise(rho: DensityMatrix, x: float) -> DensityMatrix:
    """x * rho + (1 - x)/D * I; x = 0 is maximally mixed, x = 1 is rho."""
    if not 0.0 <= x <= 1.0:
        raise ParamOutOfRange(f"noise parameter x must lie in [0, 1], got {x}")
    d = rho.dim
    mat = x * rho.mat + (1.0 - x) / d * _identity(d)
    # the spectrum shifts affinely and the identity adds no defect
    lam_min = x * rho._lam_min + (1.0 - x) / d
    return _derived_state(rho.dims, mat, lam_min, x * rho._defect)


def _pure_product_matrix(vectors) -> np.ndarray:
    """|v1 ... vn><v1 ... vn| as a complex matrix, unvalidated."""
    full = np.array([1.0], dtype=np.complex128)
    for v in vectors:
        full = np.kron(full, v)
    return np.outer(full, full.conj())


def pure_product(vectors) -> DensityMatrix:
    """Projector onto the tensor product of the given vectors. Their lengths
    are the dims, checked before the D x D projector is built; DensityMatrix's
    trace rule checks that the product has unit norm."""
    vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
    dims = _check_dims(tuple(map(len, vectors)))
    return DensityMatrix(dims, _pure_product_matrix(vectors))


def _uniform_projector(n: int, support) -> DensityMatrix:
    """Projector onto the equal superposition of the given n-qubit basis
    states: exactly 1/len(support) on the support block, not the square of
    a rounded 1/sqrt(len(support))."""
    dims = _check_dims((2,) * n)
    mat = np.zeros((2**n, 2**n), dtype=np.complex128)
    mat[np.ix_(support, support)] = 1.0 / len(support)
    return DensityMatrix(dims, mat)


def ghz(n: int = 3) -> DensityMatrix:
    """Projector onto (|0...0> + |1...1>) / sqrt(2) on n qubits."""
    n = _size("ghz", "n", n)
    return _uniform_projector(n, [0, 2**n - 1])


def w_state(n: int = 3) -> DensityMatrix:
    """Projector onto the equal superposition of single-excitation basis states."""
    n = _size("w", "n", n)
    return _uniform_projector(n, [1 << k for k in range(n)])


def bell() -> DensityMatrix:
    return ghz(2)


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_pure_product(dims, rng: np.random.Generator) -> DensityMatrix:
    return pure_product([random_pure_state(d, rng) for d in _check_dims(dims)])


def random_separable(dims, rng: np.random.Generator) -> DensityMatrix:
    """Convex mixture of 1 to 10 random pure products, Dirichlet-uniform weights.

    Only the mixture is validated: each term is the projector onto a unit
    product vector, with lambda_min 0 and no Hermiticity defect.
    """
    dims = _check_dims(dims)  # before the rng draws or anything of size D^2
    weights = rng.dirichlet(np.ones(rng.integers(1, 11)))  # 1 to 10 terms
    d = prod(dims)
    mat = np.zeros((d, d), dtype=np.complex128)
    for w in weights:
        mat += w * _pure_product_matrix([random_pure_state(k, rng) for k in dims])
    return DensityMatrix(dims, mat)


def random_density(dims, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-induced random density matrix on the full space."""
    dims = _check_dims(dims)  # before the rng draws anything of size D^2
    d = prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(dims, mat)


# name -> (parameter names, constructor taking them by keyword), the named
# families of the CLI. Each constructor is a lambda rather than the public
# function itself: a tracer that rebinds module functions and the direct
# values of module-level dicts cannot reach a function nested in a tuple,
# so storing e.g. `werner` here would leave an unwrapped binding behind.
FAMILIES = {
    "werner": (("d", "x"), lambda d, x: werner(d, x)),
    "tiles-ppt": ((), lambda: tiles_ppt()),
    "ghz": (("n",), lambda n: ghz(n)),
    "w": (("n",), lambda n: w_state(n)),
    "pure-product": (
        ("dims", "seed"),
        lambda dims, seed: random_pure_product(dims, np.random.default_rng(seed)),
    ),
    "maximally-mixed": (("dims",), lambda dims: maximally_mixed(dims)),
    "bell": ((), lambda: bell()),
}
