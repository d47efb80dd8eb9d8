"""Stacked per-row products that round exactly like their 1-D counterparts.

Bit-exact batched code cannot use gemv, gemm or ``einsum`` for per-row
products: BLAS accumulates a matrix product in a different order than the
1-D dot or vector–matrix product a per-round loop calls, so the results
differ in the last bits.  A stacked ``matmul`` over ``(k, 1, n)`` operands
instead calls the same 1-D BLAS kernel once per row, with the row's own
strides, and rounds like the loop.
"""

from __future__ import annotations

import numpy as np


def row_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``left`` with ``right`` (a vector or a
    row-aligned matrix), rounded exactly like one 1-D ``ndarray.dot`` per row.

    A stacked ``(k, 1, n) @ (k, n, 1)`` matmul reduces each row with the
    same BLAS dot kernel a 1-D product calls; ``left @ vector`` (gemv) and
    ``einsum`` accumulate in other orders and do not round alike.
    """
    right = right[:, None] if right.ndim == 1 else right[:, :, None]
    return np.matmul(left[:, None, :], right)[:, 0, 0]

