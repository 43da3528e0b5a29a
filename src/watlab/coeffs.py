"""Diagonal coefficient tables and their brute-force oracle.

The paper's b_{n,n-k} integrates f^n e^{-2 pi i (n-k) nu . x} over
E = {|f| = 1}.  On a grid E is the mask {||f| - 1| <= e_tol}
(symbols.unit_modulus_set), and the integrand there takes f/|f| in place of
f.  (f/|f|)^n equals f^n on the true E and differs from it by about
|n| max_E ||f| - 1| per cell.  _masked_geometry alone turns a sampling and
its mask into per-cell data on E.  With theta = arg f - 2 pi nu . x,
b_{n,n-k} = G^{-1} sum_{x in E} e^{i n theta(x)} e^{2 pi i k nu . x}, so each
diagonal k, over all n (negative n included) and in any dimension, is one
type-1 nonuniform FFT in the scalar phase theta.  It is computed by Gaussian
gridding (Greengard & Lee, SIAM Rev. 46, 2004; Dutt & Rokhlin, SIAM J. Sci.
Comput. 14, 1993): spread onto an oversampled periodic grid, one FFT per
diagonal, then deconvolve.  np.bincount and np.fft reduce in a fixed order,
so tables are bit-identical across runs.  brute_force_b sums the same
integrand cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accum import csum, csum_rows
from .symbols import (
    ResolutionError,
    TrigSymbol,
    UnitModulusSet,
    grid_phase,
    unit_modulus_set,
)

# A true unit-modulus set of measure zero shows up on a grid as a lower
# dimensional slice with mask fraction O(1/G); below this fraction the table
# is declared degenerate and forced to exact zeros.
DEGENERATE_MEASURE_FACTOR = 8.0

ENTRY_BOUND_SLACK = 1e-12

# Table entries, rows x diagonals: 256 MiB of complex values, and the NUFFT
# grids take twice that.  Larger tables are refused before they are allocated.
MAX_TABLE_ENTRIES = 2**24

# Gaussian-gridding NUFFT: grid oversampling, kernel grid points on each side
# of a source, and sources spread per pass.  With 14 points the tables stay
# within 3e-13 of brute_force_b (the worst case, an edge row of a two-row
# table, is set by aliasing, ~exp(-14 pi / 1.5) |E|); 10 points already give
# ~1e-11 and 6 points ~1e-7.  Chunks of 2048 sources keep the kernel scratch
# to a few MiB.
NUFFT_OVERSAMPLING = 2
NUFFT_HALF_WIDTH = 14
NUFFT_CHUNK = 2048


class TableError(ValueError):
    pass


def default_degenerate_tol(resolution: Sequence[int]) -> float:
    return DEGENERATE_MEASURE_FACTOR / min(resolution)


def k_values_for_window(k_window) -> tuple[int, ...]:
    if isinstance(k_window, int):
        if k_window < 0:
            raise TableError("k window must be >= 0")
        return tuple(range(-k_window, k_window + 1))
    return tuple(int(k) for k in k_window)


def required_resolution(nu: Sequence[int], n_abs_max: int, k_abs_max: int) -> tuple[int, ...]:
    """Per-axis resolution needed for spectral exactness of the characters."""
    return tuple(2 * abs(int(v)) * (n_abs_max + k_abs_max) + 2 for v in nu)


@dataclass
class DiagonalTable:
    """Values b_{n,n-k} for n in a range and k in a window, plus grid metadata."""

    nu: tuple[int, ...]
    n_min: int
    n_max: int
    k_values: tuple[int, ...]
    values: np.ndarray  # shape (n_max - n_min + 1, len(k_values))
    resolution: tuple[int, ...]
    e_tol: float
    e_measure: float
    degenerate: bool

    def row_index(self, n: int) -> int:
        if not self.n_min <= n <= self.n_max:
            raise TableError(f"n={n} outside table range [{self.n_min}, {self.n_max}]")
        return n - self.n_min

    def entry(self, n: int, k: int) -> complex:
        try:
            kj = self.k_values.index(k)
        except ValueError:
            raise TableError(f"k={k} outside table window {self.k_values}") from None
        return complex(self.values[self.row_index(n), kj])

    def abs2_column(self, k: int) -> np.ndarray:
        kj = self.k_values.index(k)
        return np.abs(self.values[:, kj]) ** 2

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def write_csv(self, path, meta: dict | None = None) -> None:
        lines = ["# watlab diagonal table"]
        for key, val in (meta or {}).items():
            lines.append(f"# {key}: {val}")
        lines.append(f"# nu: {list(self.nu)}")
        lines.append(f"# grid: {list(self.resolution)}")
        lines.append(f"# e_tol: {self.e_tol!r}")
        lines.append(f"# e_measure: {self.e_measure!r}")
        lines.append(f"# degenerate: {self.degenerate}")
        lines.append(
            f"# engine: nufft-gauss oversampling={NUFFT_OVERSAMPLING} "
            f"half_width={NUFFT_HALF_WIDTH}"
        )
        lines.append("n,k,re,im,abs2")
        for i, n in enumerate(range(self.n_min, self.n_max + 1)):
            for j, k in enumerate(self.k_values):
                v = self.values[i, j]
                re, im = float(v.real), float(v.imag)
                lines.append(f"{n},{k},{re!r},{im!r},{re * re + im * im!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _masked_geometry(E: UnitModulusSet, nu: Sequence[int]):
    """Per-cell data on E, in grid order: the unit samples f/|f|, nu . x, and
    the phase theta = arg f - 2 pi nu . x that the table engine transforms."""
    idx = np.flatnonzero(E.mask)
    samples = E.sampling.samples.ravel()[idx]
    phase = grid_phase(E.sampling.resolution, nu).ravel()[idx]
    theta = np.angle(samples) - 2 * np.pi * phase
    return samples / np.abs(samples), phase, theta


def masked_integrand(E: UnitModulusSet, nu: Sequence[int], n: int, k: int):
    """The unit samples and nu . x on E, and the integrand of b_{n,n-k} there,
    the table engine's source term u = e^{i n theta} e^{2 pi i k nu . x}
    = (f/|f|)^n e^{-2 pi i (n-k) nu . x}."""
    unit, phase, theta = _masked_geometry(E, nu)
    return unit, phase, np.exp(1j * n * theta) * np.exp(2j * np.pi * k * phase)


def _nufft_type1(
    theta: np.ndarray, phase: np.ndarray, k_values: Sequence[int], n_min: int, n_max: int
) -> np.ndarray:
    """S[n - n_min, j] = sum_s exp(i n theta_s) exp(2 pi i k_j phase_s) for
    n_min <= n <= n_max, by one type-1 NUFFT per k_j (Gaussian gridding)."""
    r, width = NUFFT_OVERSAMPLING, NUFFT_HALF_WIDTH
    modes = n_max - n_min + 1
    n_c, size = n_min + modes // 2, r * modes
    # Greengard & Lee's kernel variance for oversampling r, `width` points a side
    tau = np.pi * width / (modes**2 * r * (r - 0.5))
    h = 2 * np.pi / size
    offsets = np.arange(1 - width, width + 1)
    theta = np.mod(theta, 2 * np.pi)
    grids = np.zeros((len(k_values), size), dtype=np.complex128)
    for lo in range(0, theta.size, NUFFT_CHUNK):
        t = theta[lo:lo + NUFFT_CHUNK]
        near = np.floor(t / h).astype(np.int64)[:, None] + offsets
        dist = near * h - t[:, None]
        kernel = np.exp(-dist * dist / (4 * tau))
        cells = np.mod(near, size).ravel()
        shifted = np.exp(1j * n_c * t)
        for j, k in enumerate(k_values):
            c = shifted * np.exp(2j * np.pi * k * phase[lo:lo + NUFFT_CHUNK])
            grids[j].real += np.bincount(cells, (kernel * c.real[:, None]).ravel(), size)
            grids[j].imag += np.bincount(cells, (kernel * c.imag[:, None]).ravel(), size)
    m = np.arange(n_min, n_max + 1) - n_c
    spectrum = np.fft.ifft(grids, axis=1)[:, m % size]
    return (spectrum * (np.sqrt(np.pi / tau) * np.exp(tau * m * m))).T


def compute_b_table(
    f: TrigSymbol,
    E: UnitModulusSet,
    nu: Sequence[int],
    n_range: tuple[int, int],
    k_window,
    degenerate_tol: float | None = None,
) -> DiagonalTable:
    nu = tuple(int(v) for v in nu)
    if len(nu) != f.dimension:
        raise TableError("nu dimension mismatch")
    n_min, n_max = int(n_range[0]), int(n_range[1])
    if n_min > n_max:
        raise TableError("empty n range")
    k_values = k_values_for_window(k_window)
    rows = n_max - n_min + 1
    if rows * len(k_values) > MAX_TABLE_ENTRIES:
        raise TableError(f"{rows} x {len(k_values)} table entries exceed {MAX_TABLE_ENTRIES}")
    res = E.sampling.resolution
    k_abs = max((abs(k) for k in k_values), default=0)
    need = required_resolution(nu, max(abs(n_min), abs(n_max)), k_abs)
    if any(g < r for g, r in zip(res, need)):
        raise ResolutionError(
            f"grid {res} cannot resolve characters up to (n-k)nu; "
            f"required per-axis resolution: {need}"
        )

    if degenerate_tol is None:
        degenerate_tol = default_degenerate_tol(res)
    degenerate = E.measure <= degenerate_tol
    if degenerate:
        values = np.zeros((rows, len(k_values)), dtype=np.complex128)
    else:
        _, phase, theta = _masked_geometry(E, nu)
        values = _nufft_type1(theta, phase, k_values, n_min, n_max) / E.sampling.size
        peak = float(np.abs(values).max()) if values.size else 0.0
        if peak > E.measure + ENTRY_BOUND_SLACK:
            raise TableError(
                f"entry bound violated: max |b| = {peak} > measure(E) = {E.measure}"
            )
    return DiagonalTable(
        nu=nu, n_min=n_min, n_max=n_max, k_values=k_values, values=values,
        resolution=res, e_tol=E.tol, e_measure=E.measure, degenerate=degenerate,
    )


def brute_force_b(
    f: TrigSymbol,
    nu: Sequence[int],
    n: int,
    k: int,
    resolution: Sequence[int] | int,
    e_tol: float = 1e-9,
) -> complex:
    """The table's integrand on E (masked_integrand), evaluated cell by cell
    on a fresh sampling and summed directly with a compensated sum: no NUFFT."""
    nu = tuple(int(v) for v in nu)
    sampling = f.evaluate_on_grid(resolution)
    if any(
        abs((n - k) * v) >= g / 2 for v, g in zip(nu, sampling.resolution)
    ):
        need = required_resolution(nu, abs(n), abs(k))
        raise ResolutionError(
            f"grid {sampling.resolution} cannot resolve character (n-k)nu; "
            f"required per-axis resolution: {need}"
        )
    E = unit_modulus_set(sampling, e_tol)
    if E.measure == 0.0:
        return 0j
    return csum(masked_integrand(E, nu, n, k)[2]) / sampling.size


@dataclass
class MatrixSlab:
    """Composition-matrix rows c_{n,beta} on the full circle (d=1)."""

    n_min: int
    n_max: int
    beta_values: tuple[int, ...]
    values: np.ndarray
    resolution: int

    def entry(self, n: int, beta: int) -> complex:
        return complex(
            self.values[n - self.n_min, self.beta_values.index(beta)]
        )

    def row_power(self, n: int) -> float:
        """Sum of |c_{n,beta}|^2 over the stored betas (at most 1)."""
        row = self.values[n - self.n_min]
        return float(math.fsum((np.abs(row) ** 2).tolist()))


def compute_c_table(
    phi: TrigSymbol,
    n_range: tuple[int, int],
    beta_range: tuple[int, int],
    resolution: int,
) -> MatrixSlab:
    if phi.dimension != 1:
        raise TableError("c tables are defined on the circle (d=1)")
    n_min, n_max = int(n_range[0]), int(n_range[1])
    if n_min < 0:
        raise TableError("c table rows require n >= 0")
    b_min, b_max = int(beta_range[0]), int(beta_range[1])
    betas = tuple(range(b_min, b_max + 1))
    sampling = phi.evaluate_on_grid(resolution)
    g = sampling.resolution[0]
    if max(abs(b_min), abs(b_max)) >= g / 2:
        raise ResolutionError(f"beta range {beta_range} beyond Nyquist for grid {g}")
    x = np.arange(g) / g
    chars = np.exp(-2j * np.pi * np.outer(np.asarray(betas), x))
    prod = np.empty_like(chars)
    values = np.zeros((n_max - n_min + 1, len(betas)), dtype=np.complex128)
    w = np.ones(g, dtype=np.complex128)
    samples = sampling.samples

    def emit(n: int) -> None:
        np.multiply(chars, w, out=prod)
        row = csum_rows(prod) / g
        values[n - n_min, :] = row

    if n_min == 0:
        emit(0)
    for n in range(1, n_max + 1):
        w = w * samples
        if n >= n_min:
            emit(n)
    slab = MatrixSlab(
        n_min=n_min, n_max=n_max, beta_values=betas, values=values, resolution=g
    )
    for n in range(n_min, n_max + 1):
        if slab.row_power(n) > 1.0 + 1e-9:
            raise TableError(f"row Parseval bound violated at n={n}")
    return slab
