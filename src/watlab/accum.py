"""The one summation rule for grid quadratures: numpy's pairwise sum.

np.sum reduces a contiguous array pairwise, so its rounding error grows like
log2(N) eps relative (Higham, SIAM J. Sci. Comput. 14, 1993), far below the
tolerances of every check, and it always adds in the same order, so results
are bit-identical across runs.
"""

from __future__ import annotations

import numpy as np


def csum(x: np.ndarray):
    """Sum of all entries of a real or complex array, as a Python scalar."""
    return np.sum(x).item()


def csum_rows(prod: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array."""
    return np.sum(prod, axis=1)
