"""Diagonal coefficient tables and their brute-force oracle.

The paper's b_{n,n-k} integrates f^n e^{-2 pi i (n-k) nu . x} over
E = {|f| = 1}.  On a grid E is the mask {||f| - 1| <= e_tol}
(symbols.unit_modulus_set), and the integrand there takes f/|f| in place of
f.  (f/|f|)^n equals f^n on the true E and differs from it by about
|n| max_E ||f| - 1| per cell.  masked_geometry alone turns a sampling and
its mask into per-cell data on E.  With theta = arg f - 2 pi nu . x,
b_{n,n-k} = G^{-1} sum_{x in E} e^{i n theta(x)} e^{2 pi i k nu . x}, so each
diagonal k, over all n (negative n included) and in any dimension, is one
type-1 nonuniform FFT in the scalar phase theta: spread onto an oversampled
periodic grid with the "exponential of semicircle" kernel
exp(beta (sqrt(1 - z^2) - 1)) of Barnett, Magland & af Klinteberg (SIAM J.
Sci. Comput. 41, 2019), one FFT per diagonal, then divide by the kernel's
Fourier transform, found by Gauss-Legendre quadrature.  np.bincount and
np.fft reduce in a fixed order, so tables are bit-identical across runs.
brute_force_b sums the same integrand cell by cell.  Both refuse a grid
that cannot resolve f and the characters (n-k) nu, by the one rule
symbols.fit_grid(required_grid(...)): the table in check_table, which a run
asks before it samples, the oracle before it samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# perfbench/tracing.py wraps coeffs.csum_rows by name; nothing here calls it.
from .accum import csum, csum_rows, gauss_legendre
from .symbols import (
    DEFAULT_E_TOL,
    TrigSymbol,
    UnitModulusSet,
    check_resolution,
    fit_grid,
    grid_phase,
    required_grid,
    unit_modulus_set,
)

ENTRY_BOUND_SLACK = 1e-12

# Table entries, rows x diagonals: 256 MiB of complex values, and the NUFFT
# grids take twice that.  Larger tables are refused before they are allocated.
MAX_TABLE_ENTRIES = 2**24

# NUFFT: grid oversampling, kernel grid points on each side of a source, and
# sources spread per pass.  The kernel's shape parameter is
# beta = 2.30 * 2 * NUFFT_HALF_WIDTH, Barnett et al.'s value for 2x
# oversampling.  With 8 points a side (16 per source) the tables stay within
# about 2e-14 of brute_force_b on one- and two-row tables, negative rows and
# partial E; 5 points give ~1e-11 and 3 points ~1e-7.  Chunks of 2048
# sources keep the kernel scratch near 1 MiB.
NUFFT_OVERSAMPLING = 2
NUFFT_HALF_WIDTH = 8
NUFFT_CHUNK = 2048
# modes per block of the deconvolution's quadrature (modes x nodes scratch)
KERNEL_TRANSFORM_BLOCK = 512

# Rows of table.csv formatted per write, so the text of a long table is
# never held whole.
CSV_BLOCK_ROWS = 256


class TableError(ValueError):
    pass


def abs2(z):
    """|z|^2 = re^2 + im^2, the one rule for |b|^2: table.csv's abs2 column
    and every check that sums |b|^2 take it from here."""
    return z.real * z.real + z.imag * z.imag


def k_values_for_window(k_window) -> tuple[int, ...]:
    if isinstance(k_window, int):
        if k_window < 0:
            raise TableError("k window must be >= 0")
        return tuple(range(-k_window, k_window + 1))
    return tuple(int(k) for k in k_window)


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
    degenerate: bool  # E is empty, a null set on this grid (unit_modulus_set)

    def row_index(self, n: int) -> int:
        if not self.n_min <= n <= self.n_max:
            raise TableError(f"n={n} outside table range [{self.n_min}, {self.n_max}]")
        return n - self.n_min

    def column(self, k: int) -> np.ndarray:
        """The diagonal k: b_{n,n-k} for every n of the table."""
        if k not in self.k_values:
            raise TableError(f"k={k} outside table window {self.k_values}")
        return self.values[:, self.k_values.index(k)]

    def entry(self, n: int, k: int) -> complex:
        return complex(self.column(k)[self.row_index(n)])

    def abs2_column(self, k: int) -> np.ndarray:
        return abs2(self.column(k))

    def block_sum(self, M: int, p: int, k: int) -> float:
        """sum_{n=M}^{M+p} |b_{n,n-k}|^2."""
        i0, i1 = self.row_index(M), self.row_index(M + p)
        return float(csum(abs2(self.column(k)[i0:i1 + 1])))

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
            f"# engine: nufft-es oversampling={NUFFT_OVERSAMPLING} "
            f"half_width={NUFFT_HALF_WIDTH}"
        )
        lines.append("n,k,re,im,abs2")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            for lo in range(0, len(self.values), CSV_BLOCK_ROWS):
                block = []
                # floats are listed a row at a time: on a 65-diagonal table,
                # lists of a whole block's floats raised the peak RSS by 0.7 MiB
                for n, row in enumerate(self.values[lo:lo + CSV_BLOCK_ROWS], self.n_min + lo):
                    cols = zip(self.k_values, row.real.tolist(), row.imag.tolist(), abs2(row).tolist())
                    block.extend(f"{n},{k},{re!r},{im!r},{a2!r}\n" for k, re, im, a2 in cols)
                fh.write("".join(block))


def masked_geometry(E: UnitModulusSet, nu: Sequence[int]):
    """Per-cell data on E, in grid order: nu . x and the phase
    theta = arg f - 2 pi nu . x that the table engine transforms."""
    idx = np.flatnonzero(E.mask)
    samples = E.sampling.ravel()[idx]
    phase = grid_phase(E.sampling.shape, nu).ravel()[idx]
    theta = np.angle(samples) - 2 * np.pi * phase
    return phase, theta


def masked_integrand(geometry, n: int, k: int) -> np.ndarray:
    """The integrand of b_{n,n-k} on E, the table engine's source term
    u = e^{i n theta} e^{2 pi i k nu . x} = (f/|f|)^n e^{-2 pi i (n-k) nu . x},
    from the per-cell data ``geometry`` = masked_geometry(E, nu)."""
    phase, theta = geometry
    return np.exp(1j * n * theta) * np.exp(2j * np.pi * k * phase)


def _es_kernel(z: np.ndarray, width: int) -> np.ndarray:
    """The kernel phi(z) = exp(beta (sqrt(1 - z^2) - 1)), beta = 2.30 * 2
    width (Barnett et al.'s value for 2x oversampling), computed in place in
    z.  |z| <= 1 up to rounding, so 1 - z^2 is clipped at 0."""
    np.multiply(z, z, out=z)
    np.subtract(1, z, out=z)
    np.maximum(z, 0, out=z)
    np.sqrt(z, out=z)
    z -= 1
    z *= 2.30 * 2 * width
    return np.exp(z, out=z)


@lru_cache(maxsize=None)
def _es_quadrature(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights, each times phi(z), of the (4 width + 4)-point
    Gauss-Legendre rule on [0, 1], read-only since every caller shares them."""
    x, dp = gauss_legendre(4 * width + 4)
    z = (1 + x) / 2
    # the Legendre weight 2 / ((1 - x^2) P'(x)^2), halved for the map to [0, 1]
    weights = _es_kernel(z.copy(), width) / ((1 - x * x) * dp * dp)
    z.flags.writeable = weights.flags.writeable = False
    return z, weights


def _kernel_transform(m: np.ndarray, h: float, width: int) -> np.ndarray:
    """The Fourier transform 2 int_0^{width h} kappa(y) cos(m y) dy of the
    spreading kernel kappa(y) = phi(y / (width h)) at the integer modes m,
    by quadrature over blocks of modes, so memory stays O(len(m))."""
    z, weights = _es_quadrature(width)
    scale = width * h
    total = np.empty(m.shape)
    for lo in range(0, m.size, KERNEL_TRANSFORM_BLOCK):
        block = m[lo:lo + KERNEL_TRANSFORM_BLOCK]
        cosines = np.cos(np.multiply.outer(block * scale, z))
        total[lo:lo + block.size] = (cosines * weights).sum(axis=1)
    return 2 * scale * total


def _nufft_type1(
    theta: np.ndarray, phase: np.ndarray, k_values: Sequence[int], n_min: int, n_max: int
) -> np.ndarray:
    """S[n - n_min, j] = sum_s exp(i n theta_s) exp(2 pi i k_j phase_s) for
    n_min <= n <= n_max, by one type-1 NUFFT per k_j."""
    r, width = NUFFT_OVERSAMPLING, NUFFT_HALF_WIDTH
    modes = n_max - n_min + 1
    n_c, size = n_min + modes // 2, r * modes
    h = 2 * np.pi / size
    offsets = np.arange(1 - width, width + 1)
    grids = np.zeros((len(k_values), size), dtype=np.complex128)
    # the per-chunk scratch is reused in place, to keep the peak memory low
    for lo in range(0, theta.size, NUFFT_CHUNK):
        t = np.mod(theta[lo:lo + NUFFT_CHUNK], 2 * np.pi)
        near = np.floor(t / h).astype(np.int64)[:, None] + offsets
        z = near * h
        z -= t[:, None]
        z *= 1 / (width * h)
        kernel = _es_kernel(z, width)
        cells = np.mod(near, size, out=near).ravel()
        shifted = np.exp(1j * n_c * t)
        for j, k in enumerate(k_values):
            c = shifted * np.exp(2j * np.pi * k * phase[lo:lo + NUFFT_CHUNK])
            grids[j].real += np.bincount(cells, (kernel * c.real[:, None]).ravel(), size)
            grids[j].imag += np.bincount(cells, (kernel * c.imag[:, None]).ravel(), size)
    m = np.arange(n_min, n_max + 1) - n_c
    spectrum = np.fft.ifft(grids, axis=1)[:, m % size]
    return (spectrum * (2 * np.pi / _kernel_transform(m, h, width))).T


def check_table(f: TrigSymbol, nu, n_range, k_window, resolution) -> tuple:
    """Judge a table request before anything is sampled (TableError, or
    ResolutionError for a grid too coarse); returns nu, n_min, n_max, k values."""
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
    n_abs, k_abs = max(abs(n_min), abs(n_max)), max(map(abs, k_values), default=0)
    fit_grid(resolution, required_grid(f, nu, n_abs, k_abs), "characters up to (n-k)nu")
    return nu, n_min, n_max, k_values


def compute_b_table(
    f: TrigSymbol,
    E: UnitModulusSet,
    nu: Sequence[int],
    n_range: tuple[int, int],
    k_window,
) -> DiagonalTable:
    res = E.sampling.shape
    nu, n_min, n_max, k_values = check_table(f, nu, n_range, k_window, res)
    phase, theta = masked_geometry(E, nu)
    values = _nufft_type1(theta, phase, k_values, n_min, n_max) / E.sampling.size
    peak = float(np.abs(values).max()) if values.size else 0.0
    if peak > E.measure + ENTRY_BOUND_SLACK:
        raise TableError(f"entry bound violated: max |b| = {peak} > measure(E) = {E.measure}")
    return DiagonalTable(
        nu=nu, n_min=n_min, n_max=n_max, k_values=k_values, values=values,
        resolution=res, e_tol=E.tol, e_measure=E.measure, degenerate=E.measure == 0.0,
    )


def brute_force_b(
    f: TrigSymbol,
    nu: Sequence[int],
    n: int,
    k: int,
    resolution: Sequence[int] | int,
    e_tol: float = DEFAULT_E_TOL,
) -> complex:
    """The table's integrand on E (masked_integrand), evaluated cell by cell
    on a fresh sampling and summed directly with csum: no NUFFT."""
    res = check_resolution(resolution, f.dimension)
    fit_grid(res, required_grid(f, nu, abs(n), abs(k)), "character (n-k)nu")
    sampling = f.evaluate_on_grid(res)
    E = unit_modulus_set(sampling, e_tol)
    return csum(masked_integrand(masked_geometry(E, nu), n, k)) / sampling.size
