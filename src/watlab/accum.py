"""Deterministic, error-compensated reductions for grid quadratures.

The oracle and the check quadratures go through these helpers so that
results are bit-identical across runs and insensitive to the usual
accumulation drift near inequality thresholds.  Arrays are reduced in a
fixed order: contiguous blocks are summed with numpy, then the
block partials are combined exactly with math.fsum.  ``StreamingSum`` gives
the same value for an array that arrives in pieces, without holding it.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 1024


def _fsum(values) -> float:
    return math.fsum(float(v) for v in values)


def _combine(parts: np.ndarray):
    if np.iscomplexobj(parts):
        return complex(_fsum(parts.real), _fsum(parts.imag))
    return _fsum(parts)


def csum(x: np.ndarray):
    """Compensated sum of a 1-D real or complex array, fixed order."""
    x = np.ascontiguousarray(x)
    if x.size == 0:
        return 0.0j if np.iscomplexobj(x) else 0.0
    edges = np.arange(0, x.size, BLOCK)
    return _combine(np.add.reduceat(x, edges))


class StreamingSum:
    """``csum`` of the concatenation of the arrays added, in order, all of
    one dtype.  Each complete BLOCK of the concatenation is reduced as it
    arrives and the incomplete rest is carried to the next array, so the
    block partials, and hence the value, are bit-identical to ``csum``."""

    def __init__(self) -> None:
        self._parts: list[np.ndarray] = []
        self._rest = np.empty(0)

    def add(self, x: np.ndarray) -> None:
        x = np.ravel(x)
        if self._rest.size:
            fill = BLOCK - self._rest.size
            self._rest = np.concatenate((self._rest, x[:fill]))
            x = x[fill:]
            if self._rest.size < BLOCK:
                return
            self._parts.append(np.add.reduceat(self._rest, [0]))
        whole = x.size - x.size % BLOCK
        if whole:
            self._parts.append(np.add.reduceat(x[:whole], np.arange(0, whole, BLOCK)))
        self._rest = x[whole:].copy()

    @property
    def value(self):
        parts = list(self._parts)
        if self._rest.size:
            parts.append(np.add.reduceat(self._rest, [0]))
        if not parts:
            return 0.0j if np.iscomplexobj(self._rest) else 0.0
        return _combine(np.concatenate(parts))


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
