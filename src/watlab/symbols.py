"""Bounded symbols on the d-torus.

A symbol is either a finite trigonometric polynomial (a map from lattice
indices to coefficients) or a member of a built-in analytic family:
finite Blaschke products on the circle, evaluated from the closed formula so
their boundary modulus stays 1 to rounding, and constants.  Grid evaluation
uses uniform nodes x_j = j/G with power-of-two resolutions and returns the
array of samples; on the torus the uniform-node average is spectrally exact
for resolved trig polynomials.  The one grid rule: b_{n,n-k} is exact on a
grid that resolves f (min_resolution) and the characters (n-k) nu
(required_resolution); required_grid takes both, and fit_grid refuses a grid
below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# perfbench/tracing.py wraps symbols.csum by name; nothing here calls it.
from .accum import csum
from .lattice import HalfSpace, as_point

DEFAULT_E_TOL = 1e-9
# A null set's E shows up on a grid as a lower dimensional slice, a mask
# fraction O(1/G): at most DEGENERATE_MEASURE_FACTOR / min(G).  Where that
# budget is at most 1 / DEGENERATE_MEASURE_FACTOR (every axis >= 64),
# unit_modulus_set empties such a mask; on a coarser grid every mask is E.
DEGENERATE_MEASURE_FACTOR = 8.0
# Cells of one grid evaluation: 256 MiB of complex samples.  Larger grids are
# refused before they are allocated.
MAX_GRID_CELLS = 2**24


class SymbolError(ValueError):
    pass


class ResolutionError(SymbolError):
    """Grid resolution too small for the requested spectral content."""


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def check_resolution(resolution: Sequence[int] | int, dimension: int) -> tuple[int, ...]:
    """The per-axis resolution of a grid given by one side or one per axis;
    raises SymbolError unless it has ``dimension`` power-of-two axes and at
    most MAX_GRID_CELLS cells."""
    if isinstance(resolution, int):
        resolution = (resolution,) * dimension
    res = tuple(int(g) for g in resolution)
    if len(res) != dimension:
        raise SymbolError(f"resolution has {len(res)} axes, symbol has {dimension}")
    if any(not _is_pow2(g) for g in res):
        raise SymbolError(f"resolutions must be powers of two >= 2, got {res}")
    if math.prod(res) > MAX_GRID_CELLS:
        raise SymbolError(f"grid {res} has more than {MAX_GRID_CELLS} cells")
    return res


@dataclass(frozen=True)
class UnitModulusSet:
    """Grid mask approximating E = {x : |f(x)| = 1} and its measure."""

    sampling: np.ndarray
    mask: np.ndarray
    tol: float
    measure: float


def grid_phase(resolution: Sequence[int], xi: Sequence[int]) -> np.ndarray:
    """Array of xi . x over the uniform grid, shaped like the grid."""
    res = tuple(int(g) for g in resolution)
    phase = np.zeros(res)
    for i, (g, x) in enumerate(zip(res, xi)):
        coords = np.arange(g) / g
        shape = [1] * len(res)
        shape[i] = g
        phase = phase + x * coords.reshape(shape)
    return phase


@dataclass(frozen=True)
class TrigSymbol:
    """A bounded symbol f on T^d with sup norm at most 1."""

    dimension: int
    spectrum: tuple[tuple[tuple[int, ...], complex], ...] | None = None
    family: str | None = None
    params: tuple = ()

    @classmethod
    def trig_polynomial(
        cls, dimension: int, coeffs: Mapping[Sequence[int], complex]
    ) -> "TrigSymbol":
        spec = []
        for xi, c in coeffs.items():
            p = as_point(xi if isinstance(xi, (tuple, list)) else (xi,))
            if len(p) != dimension:
                raise SymbolError(f"index {p} has wrong dimension")
            c = complex(c)
            if c != 0:
                spec.append((p, c))
        if not spec:
            raise SymbolError("spectrum is empty")
        spec.sort(key=lambda item: item[0])
        return cls(dimension=dimension, spectrum=tuple(spec))

    @classmethod
    def blaschke(cls, zeros: Sequence[complex]) -> "TrigSymbol":
        zs = tuple(complex(a) for a in zeros)
        if not zs:
            raise SymbolError("Blaschke family needs at least one parameter")
        if any(abs(a) >= 1 for a in zs):
            raise SymbolError("Blaschke parameters must satisfy |a| < 1")
        return cls(dimension=1, family="blaschke", params=zs)

    @classmethod
    def constant(cls, value: complex, dimension: int = 1) -> "TrigSymbol":
        c = complex(value)
        if abs(c) > 1:
            raise SymbolError("constant symbol must satisfy |c| <= 1")
        return cls(dimension=dimension, family="constant", params=(c,))

    # -- exact spectral data ------------------------------------------------

    def coefficient_at_zero(self) -> complex:
        if self.spectrum is not None:
            for xi, c in self.spectrum:
                if all(v == 0 for v in xi):
                    return c
            return 0j
        if self.family == "blaschke":
            out = 1 + 0j
            for a in self.params:
                out *= a
            return out
        return complex(self.params[0])

    def min_resolution(self) -> tuple[int, ...]:
        """The spectral Nyquist bound: 2 max |xi_i| + 2 points on axis i."""
        spectrum = self.spectrum or ()
        return tuple(2 * max((abs(xi[i]) for xi, _ in spectrum), default=0) + 2
                     for i in range(self.dimension))

    def vanishes_on(self, halfspace: HalfSpace) -> bool:
        """True iff every Fourier coefficient supported in the half-space
        is zero."""
        if halfspace.dimension != self.dimension:
            raise SymbolError("half-space dimension mismatch")
        if self.spectrum is not None:
            return all(c == 0 for xi, c in self.spectrum if halfspace.contains(xi))
        if self.family == "blaschke":
            # analytic on the disk: spectrum is {0, 1, 2, ...}.  A half-space
            # of Z is one of the two open rays, so it never holds 0.
            return not halfspace.contains((1,))
        return True  # constants have spectrum {0}

    # -- evaluation ----------------------------------------------------------

    def sampling_grid(self, resolution: Sequence[int] | int) -> tuple[int, ...]:
        """The per-axis resolution of a grid that resolves f, else SymbolError."""
        res = check_resolution(resolution, self.dimension)
        fit_grid(res, self.min_resolution(), "the spectrum of f")
        return res

    def evaluate_on_grid(self, resolution: Sequence[int] | int) -> np.ndarray:
        """The samples of f on the uniform grid, an array shaped like it."""
        res = self.sampling_grid(resolution)
        if self.spectrum is not None:
            samples = np.zeros(res, dtype=np.complex128)
            for xi, c in self.spectrum:
                samples += c * np.exp(2j * np.pi * grid_phase(res, xi))
        elif self.family == "blaschke":
            z = np.exp(2j * np.pi * np.arange(res[0]) / res[0])
            samples = np.ones(res[0], dtype=np.complex128)
            for a in self.params:
                samples *= (z + a) / (1 + np.conj(a) * z)
        elif self.family == "constant":
            samples = np.full(res, self.params[0], dtype=np.complex128)
        else:
            raise SymbolError(f"unknown family {self.family!r}")
        return samples

    def describe(self) -> dict:
        if self.spectrum is not None:
            return {
                "dimension": self.dimension,
                "spectrum": [
                    {"index": list(xi), "re": c.real, "im": c.imag}
                    for xi, c in self.spectrum
                ],
            }
        if self.family == "blaschke":
            return {
                "dimension": 1,
                "family": "blaschke",
                "params": {"zeros": [[a.real, a.imag] for a in self.params]},
            }
        c = self.params[0]
        return {
            "dimension": self.dimension,
            "family": "constant",
            "params": {"value": [c.real, c.imag]},
        }


def required_resolution(nu: Sequence[int], n_abs_max: int, k_abs_max: int) -> tuple[int, ...]:
    """Per-axis resolution needed for spectral exactness of the characters."""
    return tuple(2 * abs(int(v)) * (n_abs_max + k_abs_max) + 2 for v in nu)


def required_grid(f: TrigSymbol, nu: Sequence[int], n_abs: int, k_abs: int) -> tuple[int, ...]:
    """The per-axis resolution a grid needs for b_{n,n-k} with |n| <= n_abs
    and |k| <= k_abs: it must resolve f and the characters (n-k) nu."""
    return tuple(map(max, f.min_resolution(), required_resolution(nu, n_abs, k_abs)))


def fit_grid(res: tuple[int, ...], need: tuple[int, ...], what: str) -> None:
    """Refuse a grid ``res`` with fewer than ``need`` points on an axis, naming
    the smallest power-of-two grid (the only kind a sampling takes) that fits."""
    if any(g < r for g, r in zip(res, need)):
        fits = ",".join(str(1 << (max(r, 2) - 1).bit_length()) for r in need)
        raise ResolutionError(
            f"grid {res} cannot resolve {what}; required per-axis resolution: {need}; "
            f"smallest usable power-of-two grid: {fits}"
        )


def sup_norm(sampling: np.ndarray) -> float:
    return float(np.abs(sampling).max())


def unit_modulus_set(sampling: np.ndarray, tol: float = DEFAULT_E_TOL) -> UnitModulusSet:
    """E on the grid, the mask {||f| - 1| <= tol}, emptied for a null set's
    slice: the one null-set rule, read by the table, its oracle and every check."""
    # below 1, so that f/|f| is defined on E
    if not 0 < tol < 1:
        raise SymbolError(f"E-detection tolerance must lie in (0, 1), got {tol}")
    mask = np.abs(np.abs(sampling) - 1.0) <= tol
    measure = float(np.count_nonzero(mask)) / sampling.size
    budget = DEGENERATE_MEASURE_FACTOR / min(sampling.shape)
    if budget <= 1 / DEGENERATE_MEASURE_FACTOR and measure <= budget:
        mask, measure = np.zeros_like(mask), 0.0
    return UnitModulusSet(sampling=sampling, mask=mask, tol=tol, measure=measure)
