"""Deterministic, error-compensated reductions for grid quadratures.

The oracle, the c tables and the check quadratures go through these
helpers so that results are bit-identical across runs and insensitive to
the usual accumulation drift near inequality thresholds.  Arrays are
reduced in a fixed order: contiguous blocks are summed with numpy, then the
block partials are combined exactly with math.fsum.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 1024


def _fsum(values) -> float:
    return math.fsum(float(v) for v in values)


def csum(x: np.ndarray):
    """Compensated sum of a 1-D real or complex array, fixed order."""
    x = np.ascontiguousarray(x)
    if x.size == 0:
        return 0.0j if np.iscomplexobj(x) else 0.0
    edges = np.arange(0, x.size, BLOCK)
    parts = np.add.reduceat(x, edges)
    if np.iscomplexobj(x):
        return complex(_fsum(parts.real), _fsum(parts.imag))
    return _fsum(parts)


def csum_rows(prod: np.ndarray) -> np.ndarray:
    """Compensated row sums of a 2-D complex array, fixed order per row."""
    edges = np.arange(0, prod.shape[1], BLOCK)
    parts = np.add.reduceat(prod, edges, axis=1)
    out = np.empty(prod.shape[0], dtype=np.complex128)
    for i in range(prod.shape[0]):
        out[i] = complex(_fsum(parts[i].real), _fsum(parts[i].imag))
    return out


class NeumaierSum:
    """Running compensated accumulator for scalar series."""

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, v: float) -> None:
        t = self._s + v
        if abs(self._s) >= abs(v):
            self._c += (self._s - t) + v
        else:
            self._c += (v - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c
