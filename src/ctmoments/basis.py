"""Generalized Gell-Mann generator bases of su(d).

Normalization: Tr(lam_i lam_j) = 2 delta_ij. Ordering is fixed so that
serialized correlation tensors are reproducible: symmetric pairs E_jk+E_kj
for j < k in lexicographic order, then the antisymmetric pairs
-i(E_jk - E_kj) in the same order, then the d-1 diagonal generators.
At d = 2 this yields exactly (sigma_x, sigma_y, sigma_z).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDimension


def gellmann_generators(d: int) -> list[np.ndarray]:
    """Return the d^2 - 1 generators of su(d) as d x d complex arrays."""
    if d < 2:
        raise InvalidDimension(f"generator basis requires d >= 2, got {d}")
    gens: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = 1.0
            m[k, j] = 1.0
            gens.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            gens.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=np.complex128)
        coeff = math.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            m[i, i] = coeff
        m[l, l] = -l * coeff
        gens.append(m)
    return gens

