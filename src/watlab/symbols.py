"""Bounded symbols on the d-torus, one class per family under TrigSymbol.

Spectrum is a finite trigonometric polynomial (a map from lattice indices to
coefficients), Blaschke a finite Blaschke product on the circle, evaluated from
the closed formula so its boundary modulus stays 1 to rounding, and Constant a
constant.  Each gives its spectral data, samples, describe and log_mean (the
integral of log|f|, exact per family: Jensen's formula for a Spectrum).  A grid
has uniform nodes x_j = j/G and power-of-two sides, a sampling is its array; the
uniform-node average is spectrally exact for resolved trig polynomials.  The one
grid rule: b_{n,n-k} is exact on a grid that resolves f (min_resolution) and the
characters (n-k) nu (required_resolution); required_grid takes both, and
fit_grid refuses a grid below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .accum import csum, csum_rows, gauss_legendre
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
# Jensen's crossings count |rho| > 1 + ROOT_TOL: a root on |z| = 1 reads 1 +- 2e-8 if double.
ROOT_TOL = 1e-7
JENSEN_BLOCK_CELLS = 2**16  # companion-matrix cells of one batch of Jensen slices


class SymbolError(ValueError):
    pass


class ResolutionError(SymbolError):
    """Grid resolution too small for the requested spectral content."""


class HypothesisViolation(ValueError):
    """A precondition of the verified inequality fails for this input."""


def check_resolution(resolution: Sequence[int] | int, dimension: int) -> tuple[int, ...]:
    """The per-axis resolution of a grid given by one side or one per axis;
    raises SymbolError unless it has ``dimension`` power-of-two axes and at
    most MAX_GRID_CELLS cells."""
    res = (int(resolution),) * dimension if isinstance(resolution, int) else tuple(map(int, resolution))
    if len(res) != dimension:
        raise SymbolError(f"resolution has {len(res)} axes, symbol has {dimension}")
    if any(g < 2 or g & (g - 1) for g in res):
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
    axes = np.ix_(*(np.arange(g) / g for g in res))  # axis i's coordinates, along axis i
    return sum((x * coords for x, coords in zip(xi, axes)), np.zeros(res))


@dataclass(frozen=True)
class TrigSymbol:
    """A bounded symbol f on T^d with sup norm at most 1.  Only the base defines sampling_grid
    and evaluate_on_grid, which perfbench wraps here; a family gives _samples on a checked grid."""

    dimension: int

    @classmethod
    def trig_polynomial(cls, dimension: int, coeffs: Mapping[Sequence[int], complex]) -> "Spectrum":
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
        return Spectrum(dimension, tuple(sorted(spec, key=lambda item: item[0])))

    @classmethod
    def blaschke(cls, zeros: Sequence[complex]) -> "Blaschke":
        zs = tuple(complex(a) for a in zeros)
        if not zs:
            raise SymbolError("Blaschke family needs at least one parameter")
        if any(abs(a) >= 1 for a in zs):
            raise SymbolError("Blaschke parameters must satisfy |a| < 1")
        return Blaschke(1, zs)

    @classmethod
    def constant(cls, value: complex, dimension: int = 1) -> "Constant":
        c = complex(value)
        if abs(c) > 1:
            raise SymbolError("constant symbol must satisfy |c| <= 1")
        return Constant(dimension, c)

    def min_resolution(self) -> tuple[int, ...]:
        """The fewest points per axis a sampling of f takes: 2 but for a Spectrum."""
        return (2,) * self.dimension

    def sampling_grid(self, resolution: Sequence[int] | int) -> tuple[int, ...]:
        """The per-axis resolution of a grid that resolves f, else SymbolError."""
        res = check_resolution(resolution, self.dimension)
        fit_grid(res, self.min_resolution(), "the spectrum of f")
        return res

    def evaluate_on_grid(self, resolution: Sequence[int] | int) -> np.ndarray:
        """The samples of f on the uniform grid, an array shaped like it."""
        return self._samples(self.sampling_grid(resolution))


@dataclass(frozen=True)
class Spectrum(TrigSymbol):
    """A trigonometric polynomial: its nonzero terms (xi, c), sorted by xi."""

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def coefficient_at_zero(self) -> complex:
        return next((c for xi, c in self.terms if not any(xi)), 0j)

    def min_resolution(self) -> tuple[int, ...]:
        """The spectral Nyquist bound: 2 max |xi_i| + 2 points on axis i."""
        return tuple(2 * max(abs(xi[i]) for xi, _ in self.terms) + 2 for i in range(self.dimension))

    def vanishes_on(self, halfspace: HalfSpace) -> bool:
        """True iff every Fourier coefficient supported in the half-space is zero."""
        return all(c == 0 for xi, c in self.terms if halfspace.contains(xi))

    def _samples(self, res: tuple[int, ...]) -> np.ndarray:
        samples = np.zeros(res, dtype=np.complex128)
        for xi, c in self.terms:
            samples += c * np.exp(2j * np.pi * grid_phase(res, xi))
        return samples

    def describe(self) -> dict:
        return {"dimension": self.dimension, "spectrum": [
            {"index": list(xi), "re": c.real, "im": c.imag} for xi, c in self.terms]}

    def _jensen_slices(self, outer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """At each row x' of ``outer``, Jensen's log|c_top| + sum log max(1, |rho|) over the roots
        rho of f(x', .) as a polynomial in e^{2 pi i x_d} (the integral of log|f(x', .)|), and how
        many have |rho| > 1 + ROOT_TOL: companion-matrix eigenvalues, JENSEN_BLOCK_CELLS at a time."""
        xi = np.array([p for p, _ in self.terms])
        low, m = xi[:, -1].min(), int(np.ptp(xi[:, -1]))
        onehot, cs = np.eye(m + 1)[xi[:, -1] - low], np.array([c for _, c in self.terms])
        step, logs, counts = max(1, JENSEN_BLOCK_CELLS // max(m * m, len(xi))), [], []
        for s in range(0, len(outer), step):
            terms = cs * np.exp(2j * np.pi * (outer[s:s + step] @ xi[:, :-1].T))
            coeffs = terms.real @ onehot + 1j * (terms.imag @ onehot)  # complex @ pages in 0.3 MiB more
            if not coeffs[:, m].all():  # a degree drop: the companion matrix is undefined
                raise SymbolError("f's top term along the last axis cancels at an outer node")
            comp = np.zeros((len(coeffs), m, m), dtype=np.complex128)
            comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            comp[:, :, -1:] = -(coeffs[:, :m] / coeffs[:, m:])[:, :, None]
            mods = np.abs(np.linalg.eigvals(comp))
            logs.append(np.log(np.abs(coeffs[:, m])) + csum_rows(np.log(np.maximum(1.0, mods))))
            counts.append(np.count_nonzero(mods > 1 + ROOT_TOL, axis=1))
        return np.concatenate(logs), np.concatenate(counts)

    def log_mean(self, resolution: Sequence[int] | int) -> tuple[float, str, int]:
        """Integral of log |f|, its method, and how many Jensen slices its rule sums: Jensen's
        formula in d = 1; in d >= 2 Jensen along the last axis (Boyd, Canad. Math. Bull. 24,
        1981) averaged over the nodes of the grid's outer axes, geometric in G on a smooth
        periodic integrand, but for 16-point Gauss-Legendre panels, one per 16 nodes, cut
        where in d = 2 a root crosses |z| = 1 (a kink)."""
        res = self.sampling_grid(resolution) if self.dimension > 1 else check_resolution(resolution, 1)
        # cell midpoints: at x' = 0 every phase is 0, where a sum like 1 - e^{2 pi i x} cancels
        outer = (np.indices(res[:-1]).reshape(self.dimension - 1, math.prod(res[:-1])).T + 0.5) / res[:-1]
        logs, count = self._jensen_slices(outer)  # d = 1: one point, no coordinates
        j = np.flatnonzero(count != np.roll(count, -1))  # in d = 2: a crossing in (j + 1/2, j + 3/2) / G
        if self.dimension != 2 or not j.size:
            return csum(logs) / len(outer), "roots" if self.dimension == 1 else "jensen", len(outer)
        hi = (j + 1.5) / res[0]  # each crossing lies in (hi - 1/G, hi]
        for w in 0.5 ** np.arange(1, 54) / res[0]:  # bisect down to 2^-53 / G
            past = self._jensen_slices((hi - w)[:, None] % 1)[1] != count[j]
            hi = np.where(past, hi - w, hi)
        edges = np.sort(np.concatenate([np.linspace(0, 1, max(1, res[0] // 16) + 1), hi % 1]))
        x, dp = gauss_legendre(16)
        half = np.diff(edges)[:, None] / 2
        nodes = edges[:-1, None] + half * (1 + x)
        logs = self._jensen_slices(nodes.reshape(-1, 1))[0].reshape(nodes.shape)
        return csum(logs * half * 2 / ((1 - x * x) * dp * dp)), "jensen", nodes.size


@dataclass(frozen=True)
class Blaschke(TrigSymbol):
    """The Blaschke product of ``zeros`` a on the circle: the product of (z + a)/(1 + conj(a) z)."""

    zeros: tuple[complex, ...]

    def coefficient_at_zero(self) -> complex:
        return math.prod(self.zeros, start=1 + 0j)

    def vanishes_on(self, halfspace: HalfSpace) -> bool:
        # analytic on the disk: its spectrum {0, 1, 2, ...} avoids S iff S is the open ray n < 0
        return not halfspace.contains((1,))

    def _samples(self, res: tuple[int, ...]) -> np.ndarray:
        z = np.exp(2j * np.pi * np.arange(res[0]) / res[0])
        samples = np.ones(res[0], dtype=np.complex128)
        for a in self.zeros:
            samples *= (z + a) / (1 + np.conj(a) * z)
        return samples

    def describe(self) -> dict:
        return {"dimension": 1, "family": "blaschke",
                "params": {"zeros": [[a.real, a.imag] for a in self.zeros]}}

    def log_mean(self, resolution: Sequence[int] | int) -> tuple[float, str, int]:
        """0, by the method "inner": |f| = 1 on the circle."""
        self.sampling_grid(resolution)
        return 0.0, "inner", 0


@dataclass(frozen=True)
class Constant(TrigSymbol):
    """The constant ``value`` on T^d."""

    value: complex

    def coefficient_at_zero(self) -> complex:
        return self.value

    def vanishes_on(self, halfspace: HalfSpace) -> bool:
        return not halfspace.contains((0,) * self.dimension)  # the spectrum is {0}, never in S

    def _samples(self, res: tuple[int, ...]) -> np.ndarray:
        return np.full(res, self.value, dtype=np.complex128)

    def describe(self) -> dict:
        return {"dimension": self.dimension, "family": "constant",
                "params": {"value": [self.value.real, self.value.imag]}}

    def log_mean(self, resolution: Sequence[int] | int) -> tuple[float, str, int]:
        """log|c|, by the method "constant"; c = 0 is refused: log|f| is not integrable."""
        self.sampling_grid(resolution)
        if self.value == 0:
            raise HypothesisViolation("log|f| is not integrable: f = 0")
        return math.log(abs(self.value)), "constant", 0


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
        raise ResolutionError(f"grid {res} cannot resolve {what}; required per-axis resolution: "
                              f"{need}; smallest usable power-of-two grid: {fits}")


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
