"""The one summation rule, numpy's pairwise sum, and the one Gauss-Legendre rule.

np.sum reduces a contiguous array pairwise, so its rounding error grows like
log2(N) eps relative (Higham, SIAM J. Sci. Comput. 14, 1993), far below the
tolerances of every check, and it always adds in the same order, so results
are bit-identical across runs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def csum(x: np.ndarray):
    """Sum of all entries of a real or complex array, as a Python scalar."""
    return np.sum(x).item()


def csum_rows(prod: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array."""
    return np.sum(prod, axis=1)


@lru_cache(maxsize=None)
def gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x of the count-point Gauss-Legendre rule on [-1, 1] and P'(x),
    read-only; Newton's method on the three-term recurrence from Tricomi's estimate."""
    x = np.cos(np.pi * (np.arange(count) + 0.75) / (count + 0.5))
    for _ in range(8):  # quadratic convergence: 3 steps reach rounding
        p_prev, p = np.ones(count), x
        for j in range(2, count + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = count * (x * p - p_prev) / (x * x - 1)
        x = x - p / dp
    x.flags.writeable = dp.flags.writeable = False
    return x, dp


def log_quad(f, a: float, b: float) -> tuple[float, float]:
    """Integral of f(t) dt over [a, b], 0 < a < b, and its error estimate
    |I_16 - I_8|: I_n is the n-point Gauss-Legendre rule in u = ln t on
    max(1, ceil(ln(b/a))) equal panels.  f takes one float per node."""
    panels = max(1, math.ceil(math.log(b / a)))
    h = math.log(b / a) / panels
    sums = []
    for x, dp in map(gauss_legendre, (16, 8)):
        t = np.exp(math.log(a) + h * (np.arange(panels)[:, None] + (1 + x) / 2))
        ft = np.reshape([f(s) for s in t.ravel().tolist()], t.shape)
        sums.append(h * csum(ft * t / ((1 - x * x) * dp * dp)))
    return sums[0], abs(sums[0] - sums[1])
