"""The contraction kernel behind correlation-tensor construction.

The expensive inner loop is the evaluation of all operator expectation
values Tr(rho * A_1 (x) ... (x) A_n) over a product grid of per-mode
operators. It contracts one mode at a time with numpy's einsum.
"""

from __future__ import annotations

import numpy as np


def expectation_tensor(
    rho: np.ndarray,
    op_stacks: list[np.ndarray],
    dims: tuple[int, ...],
) -> np.ndarray:
    """All expectation values Tr(rho * O_1 (x) ... (x) O_n).

    op_stacks[k] has shape (m_k, d_k, d_k); the result has shape
    (m_1, ..., m_n). rho is the full D x D matrix with D = prod(dims),
    composite indices row-major with mode 1 most significant.
    """
    n = len(dims)
    d_total = int(np.prod(dims))
    # x[a, I, J]: partial contraction over processed modes; starts as rho.
    x = np.ascontiguousarray(rho, dtype=np.complex128).reshape(1, d_total, d_total)
    counts: list[int] = []
    rem = d_total
    for k in range(n):
        d = dims[k]
        rem //= d
        na = x.shape[0]
        xr = np.ascontiguousarray(x.reshape(na, d, rem, d, rem))
        ops = np.ascontiguousarray(op_stacks[k], dtype=np.complex128)
        # out[a, m, r, s] = sum_ij ops[m, j, i] * xr[a, i, r, j, s]
        x = np.einsum("mji,airjs->amrs", ops, xr, optimize=True)
        x = x.reshape(na * ops.shape[0], rem, rem)
        counts.append(ops.shape[0])
    return x.reshape(tuple(counts))
