"""The contraction kernel behind correlation-tensor construction.

It evaluates all expectation values Tr(rho * O_1 (x) ... (x) O_n) over a
product grid of per-mode operators, for one state or a stack of them.
Each state is viewed as a (d_1^2, ..., d_n^2) array with the column and
row index of each mode side by side, so that Tr(rho O) pairs rho[i, j]
with O[j, i]. Each mode is then one matrix product of its flattened
operator stack (m_k, d_k^2) with the current array folded to
(d_k^2, rest), followed by a transpose that moves the new m_k axis to the
back. After n steps the axes are (m_1, ..., m_n) again. A stack keeps its
leading axes throughout, so numpy runs the very same product for every
state and each state's result is bit-identical to computing it alone.
"""

from __future__ import annotations

import numpy as np


def expectation_tensor(
    rho: np.ndarray,
    op_stacks: list[np.ndarray],
    dims: tuple[int, ...],
) -> np.ndarray:
    """All expectation values Tr(rho * O_1 (x) ... (x) O_n).

    op_stacks[k] has shape (m_k, d_k, d_k). rho is the full D x D matrix
    with D = prod(dims), composite indices row-major with mode 1 most
    significant, or a stack of them (..., D, D); the result has shape
    (..., m_1, ..., m_n).
    """
    n = len(dims)
    x = np.asarray(rho, dtype=np.complex128)
    batch = x.shape[:-2]
    b = len(batch)
    x = x.reshape(batch + dims + dims)
    # axes (batch..., j_1, i_1, ..., j_n, i_n): rho[i, j] meets O[j, i] in each mode
    x = x.transpose(list(range(b)) + [b + a for k in range(n) for a in (n + k, k)])
    for ops, d in zip(op_stacks, dims):
        ops = np.asarray(ops, dtype=np.complex128)
        x = (ops.reshape(len(ops), d * d) @ x.reshape(batch + (d * d, -1))).swapaxes(-1, -2)
    return x.reshape(batch + tuple(len(s) for s in op_stacks))
