"""Bounded symbols on the d-torus.

A symbol is either a finite trigonometric polynomial (a map from lattice
indices to coefficients) or a member of a built-in analytic family:
finite Blaschke products on the circle, evaluated from the closed formula so
their boundary modulus stays 1 to rounding, and constants.  Grid evaluation
uses uniform nodes x_j = j/G with power-of-two resolutions; on the torus the
uniform-node average is spectrally exact for resolved trig polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .accum import csum
from .lattice import HalfSpace, as_point

DEFAULT_E_TOL = 1e-9
# Cells of one grid evaluation: 256 MiB of complex samples.  Larger grids are
# refused before they are allocated.
MAX_GRID_CELLS = 2**24


class SymbolError(ValueError):
    pass


class ResolutionError(SymbolError):
    """Grid resolution too small for the requested spectral content."""


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _check_resolution(resolution: Sequence[int], dimension: int) -> tuple[int, ...]:
    res = tuple(int(g) for g in resolution)
    if len(res) != dimension:
        raise SymbolError(f"resolution has {len(res)} axes, symbol has {dimension}")
    if any(not _is_pow2(g) for g in res):
        raise SymbolError(f"resolutions must be powers of two >= 2, got {res}")
    if math.prod(res) > MAX_GRID_CELLS:
        raise SymbolError(f"grid {res} has more than {MAX_GRID_CELLS} cells")
    return res


@dataclass(frozen=True)
class GridSampling:
    """Pointwise values of a symbol on the uniform grid."""

    resolution: tuple[int, ...]
    samples: np.ndarray

    @property
    def size(self) -> int:
        return int(np.prod(self.resolution))


@dataclass(frozen=True)
class UnitModulusSet:
    """Grid mask approximating E = {x : |f(x)| = 1} and its measure."""

    sampling: GridSampling
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

    def max_index(self) -> tuple[int, ...]:
        if self.spectrum is None:
            return (0,) * self.dimension
        out = [0] * self.dimension
        for xi, _ in self.spectrum:
            for i, v in enumerate(xi):
                out[i] = max(out[i], abs(v))
        return tuple(out)

    def min_resolution(self) -> tuple[int, ...]:
        return tuple(max(2, 2 * m + 2) for m in self.max_index())

    def vanishes_on(self, halfspace: HalfSpace, tol: float = 0.0) -> bool:
        """True iff every Fourier coefficient supported in the half-space
        has modulus at most tol."""
        if halfspace.dimension != self.dimension:
            raise SymbolError("half-space dimension mismatch")
        if self.spectrum is not None:
            return all(
                abs(c) <= tol for xi, c in self.spectrum if halfspace.contains(xi)
            )
        if self.family == "blaschke":
            # analytic on the disk: spectrum is {0, 1, 2, ...}.  A half-space
            # of Z is one of the two open rays, so it never holds 0.
            return not halfspace.contains((1,))
        return True  # constants have spectrum {0}

    # -- evaluation ----------------------------------------------------------

    def evaluate_on_grid(self, resolution: Sequence[int] | int) -> GridSampling:
        if isinstance(resolution, int):
            resolution = (resolution,) * self.dimension
        res = _check_resolution(resolution, self.dimension)
        if self.spectrum is not None:
            need = self.min_resolution()
            if any(g < n for g, n in zip(res, need)):
                raise ResolutionError(
                    f"resolution {res} below spectral Nyquist bound {need}"
                )
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
        return GridSampling(resolution=res, samples=samples)

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


def fourier_coefficient(sampling: GridSampling, xi: Sequence[int]) -> complex:
    """Discrete approximation of the Fourier coefficient at lattice index xi.

    Exact (to rounding) when the sampled function is a trig polynomial
    resolved by the grid.
    """
    p = as_point(xi if isinstance(xi, (tuple, list, np.ndarray)) else (xi,))
    if len(p) != len(sampling.resolution):
        raise SymbolError("index dimension mismatch")
    if any(abs(v) >= g / 2 for v, g in zip(p, sampling.resolution)):
        raise ResolutionError(f"index {p} beyond Nyquist for grid {sampling.resolution}")
    phase = grid_phase(sampling.resolution, p)
    vals = sampling.samples * np.exp(-2j * np.pi * phase)
    return csum(vals.ravel()) / sampling.size


def sup_norm(sampling: GridSampling) -> float:
    return float(np.abs(sampling.samples).max())


def unit_modulus_set(sampling: GridSampling, tol: float = DEFAULT_E_TOL) -> UnitModulusSet:
    # below 1, so that f/|f| is defined on E
    if not 0 < tol < 1:
        raise SymbolError(f"E-detection tolerance must lie in (0, 1), got {tol}")
    mask = np.abs(np.abs(sampling.samples) - 1.0) <= tol
    measure = float(np.count_nonzero(mask)) / sampling.size
    return UnitModulusSet(sampling=sampling, mask=mask, tol=tol, measure=measure)
