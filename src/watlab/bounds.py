"""Verifiers for the decay inequalities and proof identities.

Every verifier returns a self-contained BoundReport: identifiers,
parameters, both sides of the inequality, the margin, and truncation or
quadrature metadata.  Truncated series of nonnegative terms are reported as
lower bounds of the infinite sum, so a truncated pass is necessary but not
sufficient; the report labels this explicitly.

The double-grid checks (log-integral bound, Abel series, identity) walk
their pair grid in row blocks of about PAIR_BLOCK_CELLS cells into a
``StreamingSum``, in the same compensated order as ``csum`` of the whole
grid, so they never hold it and their values match that sum to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .accum import NeumaierSum, StreamingSum, csum
from .coeffs import DiagonalTable, compute_b_table, masked_integrand, required_resolution
from .iterlog import IteratedLogParams, big_l, find_constants, log_iter
from .lattice import HalfSpace
from .symbols import SymbolError, TrigSymbol, grid_phase, unit_modulus_set

DEFAULT_ENTRY_TOL = 1e-9
DEFAULT_SZEGO_TOL = 1e-6
DEFAULT_QUAD_RELTOL = 1e-8
DEFAULT_LOG_BOUND_TOL = 5e-2
LOG_FLOOR = 1e-300
# Grid nodes that land on the zero set of f evaluate to rounding noise
# (~1e-16), not exact zero; treating them as interior values would bias the
# log integral by O(37/G) per node.  Moduli below this level are excluded
# from the log|f| quadrature and counted.
ZERO_NODE_FLOOR = 1e-12
MAX_DOUBLE_GRID_POINTS = 2048
# Pair-grid cells held at once: 4 MiB of complex values per block, where the
# whole pair grid of a MAX_DOUBLE_GRID_POINTS-cell check takes 64 MiB.
PAIR_BLOCK_CELLS = 2**18


class HypothesisViolation(ValueError):
    """A precondition of the verified inequality fails for this input."""


@dataclass
class BoundReport:
    check_id: str
    params: dict
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "details": self.details,
        }


def theorem_constant(f0hat: complex) -> float:
    """The constant log(16 / |f-hat(0)|^4) controlling all the mean bounds."""
    mod = abs(f0hat)
    if mod == 0.0:
        raise HypothesisViolation("constant undefined: f-hat(0) = 0")
    return math.log(16.0 / mod**4)


def _abs2_column(table: DiagonalTable, k: int) -> np.ndarray:
    if k not in table.k_values:
        raise HypothesisViolation(f"k={k} outside table window {table.k_values}")
    return table.abs2_column(k)


def check_weighted_series(
    table: DiagonalTable, N: int, k: int, C: float, tol: float = DEFAULT_ENTRY_TOL
) -> BoundReport:
    """Truncated form of sum_{m != N} |b_{m,m-k}|^2 / |m - N| <= C.

    Terms are nonnegative, so the truncated sum is a lower bound of the
    infinite series and must itself satisfy the bound.
    """
    abs2 = _abs2_column(table, k)
    m = table.n_values
    keep = m != N
    terms = abs2[keep] / np.abs(m[keep] - N)
    lhs = float(csum(terms))
    passed = lhs <= C + tol
    return BoundReport(
        check_id="weighted_series",
        params={"N": N, "k": k},
        lhs=lhs,
        rhs=float(C),
        tolerance=tol,
        passed=passed,
        details={
            "m_range": [table.n_min, table.n_max],
            "truncated_lower_bound": True,
            "negative_m_convention": "conjugate-power" if table.n_min < 0 else "m >= n_min only",
        },
    )


def _block_sum(table: DiagonalTable, M: int, p: int, k: int) -> float:
    if M < 1 or p < 1:
        raise HypothesisViolation("mean bounds require M >= 1 and p >= 1")
    if table.n_min > M or table.n_max < M + p:
        raise HypothesisViolation(
            f"table range [{table.n_min}, {table.n_max}] does not cover [M, M+p]"
        )
    abs2 = _abs2_column(table, k)
    i0 = table.row_index(M)
    return float(csum(abs2[i0 : i0 + p + 1]))


def check_mean_bound_ii(
    table: DiagonalTable, M: int, p: int, k: int, C: float, tol: float = DEFAULT_ENTRY_TOL
) -> BoundReport:
    """Block mean of |b|^2 against C / log(p+1)."""
    s = _block_sum(table, M, p, k)
    lhs = s / (p + 1)
    rhs = C / math.log(p + 1)
    return BoundReport(
        check_id="mean_ii",
        params={"M": M, "p": p, "k": k},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        passed=lhs <= rhs + tol,
        details={"block_sum": s},
    )


def check_mean_bound_iii(
    table: DiagonalTable,
    q: int,
    alpha: float,
    gamma: float,
    M: int,
    p: int,
    k: int,
    C: float,
    quad_reltol: float = DEFAULT_QUAD_RELTOL,
    tol: float = DEFAULT_ENTRY_TOL,
) -> BoundReport:
    """Weighted block bound with g = L_q:
    (integral_1^{p+1} dt / (t g(t+gamma))) * sum <= C/(1-alpha) * (p+gamma)/g(p+gamma)."""
    # Imported here, not at module top: loading scipy.integrate takes about
    # 0.6 s and 50 MiB, and only this check and cauchy_mvt integrate.
    from scipy.integrate import quad

    if not 0 < alpha < 1:
        raise HypothesisViolation("alpha must lie in (0, 1)")
    s = _block_sum(table, M, p, k)
    integral, abserr = quad(
        lambda t: 1.0 / (t * big_l(q, t + gamma)),
        1.0,
        p + 1.0,
        epsrel=quad_reltol,
        limit=500,
    )
    lhs = integral * s
    rhs = (C / (1.0 - alpha)) * (p + gamma) / big_l(q, p + gamma)
    return BoundReport(
        check_id="mean_iii",
        params={"q": q, "alpha": alpha, "gamma": gamma, "M": M, "p": p, "k": k},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        passed=lhs <= rhs + tol,
        details={"block_sum": s, "integral": integral, "quad_abserr": abserr},
    )


def mean_bound_iv_rhs(q: int, p: int, C: float, params: IteratedLogParams) -> float:
    gamma = params.gamma
    denom = big_l(q, p + gamma) * (
        log_iter(q + 1, p + 1 + gamma) - log_iter(q + 1, 1 + gamma)
    )
    if denom <= 0:
        raise HypothesisViolation(f"p={p} too small for log_{q+1} positivity")
    return (C / (1.0 - params.alpha)) / denom


def closed_form_rhs_q1(p: int, C: float) -> float:
    """q = 1 right-hand side in its explicit shape with gamma = 3,
    alpha = 1/log 3."""
    return (C / (1.0 - 1.0 / math.log(3.0))) / (
        math.log(p + 3.0) * (math.log(math.log(p + 4.0)) - math.log(math.log(4.0)))
    )


def check_mean_bound_iv(
    table: DiagonalTable,
    q: int,
    M: int,
    p: int,
    k: int,
    C: float,
    params: IteratedLogParams | None = None,
    tol: float = DEFAULT_ENTRY_TOL,
) -> BoundReport:
    """Block mean of |b|^2 against the iterated-log rate for L_q."""
    if params is None:
        params = find_constants(q)
    s = _block_sum(table, M, p, k)
    lhs = s / (p + params.gamma)
    rhs = mean_bound_iv_rhs(q, p, C, params)
    return BoundReport(
        check_id="mean_iv",
        params={
            "q": q,
            "alpha": params.alpha,
            "gamma": params.gamma,
            "M": M,
            "p": p,
            "k": k,
        },
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        passed=lhs <= rhs + tol,
        details={"block_sum": s},
    )


# -- geometric-mean inequality ------------------------------------------------


def log_modulus_integral(
    f: TrigSymbol, resolution: Sequence[int] | int
) -> tuple[float, str, int]:
    """Integral of log |f| over the torus.

    For one-dimensional finite-spectrum symbols the integral is evaluated
    exactly through the roots of the associated algebraic polynomial (a grid
    cannot resolve the log singularities at boundary zeros to better than
    O(log G / G)).  Families and higher dimensions fall back to grid
    quadrature with an underflow floor; excluded nodes are counted.
    """
    if f.dimension == 1 and f.spectrum is not None:
        indices = [xi[0] for xi, _ in f.spectrum]
        m_min, m_max = min(indices), max(indices)
        coeffs = np.zeros(m_max - m_min + 1, dtype=np.complex128)
        for xi, c in f.spectrum:
            coeffs[xi[0] - m_min] = c
        if coeffs.size == 1:
            return math.log(abs(coeffs[0])), "roots", 0
        roots = np.roots(coeffs[::-1])
        val = math.log(abs(coeffs[-1])) + math.fsum(
            math.log(max(1.0, abs(r))) for r in roots
        )
        return val, "roots", 0
    sampling = f.evaluate_on_grid(resolution)
    mods = np.abs(sampling.samples).ravel()
    keep = mods >= ZERO_NODE_FLOOR
    excluded = int(mods.size - np.count_nonzero(keep))
    val = float(csum(np.log(mods[keep]))) / sampling.size
    return val, "grid", excluded


def szego_check(
    f: TrigSymbol,
    halfspace: HalfSpace,
    resolution: Sequence[int] | int,
    tol: float = DEFAULT_SZEGO_TOL,
) -> BoundReport:
    """Geometric-mean inequality: integral of log|f| >= log |f-hat(0)| for a
    symbol whose spectrum avoids the half-space."""
    if not f.vanishes_on(halfspace):
        raise HypothesisViolation("spectrum does not vanish on the half-space")
    f0 = f.coefficient_at_zero()
    if f0 == 0:
        raise HypothesisViolation("f-hat(0) = 0")
    lhs = math.log(abs(f0))
    rhs, method, excluded = log_modulus_integral(f, resolution)
    return BoundReport(
        check_id="szego",
        params={"resolution": resolution if isinstance(resolution, int) else list(resolution)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        passed=rhs >= lhs - tol,
        details={"method": method, "excluded_nodes": excluded},
    )


# -- double-integral machinery -------------------------------------------------


def _cap_double_grid(cells: int) -> None:
    if cells > MAX_DOUBLE_GRID_POINTS:
        raise SymbolError(f"double-grid check needs <= {MAX_DOUBLE_GRID_POINTS} cells, got {cells}")


def _row_blocks(n: int, m: int):
    """Slices of consecutive rows of an n x m pair grid, each about
    PAIR_BLOCK_CELLS cells, in order."""
    step = max(1, PAIR_BLOCK_CELLS // max(m, 1))
    return (slice(i, i + step) for i in range(0, n, step))


def _kernel_modulus(vals: np.ndarray, phase: np.ndarray, r: float, rows: slice) -> np.ndarray:
    """|F(x, y)| for F(x, y) = e^{2 pi i nu.(x-y)} - r f(x) conj(f(y)), x in
    the cells ``rows`` and y in all cells, with values ``vals`` and phases
    nu . x ``phase``."""
    e = np.exp(2j * np.pi * phase)
    F = np.multiply.outer(e[rows], np.conj(e))
    rf = np.multiply.outer(vals[rows], np.conj(vals))
    np.multiply(rf, r, out=rf)
    np.subtract(F, rf, out=F)
    return np.abs(F)


def log_integral_bound_check(
    f: TrigSymbol,
    nu: Sequence[int],
    r: float,
    resolution: Sequence[int] | int,
    e_tol: float = DEFAULT_ENTRY_TOL,
    tol: float = DEFAULT_LOG_BOUND_TOL,
) -> BoundReport:
    """Double-grid quadrature of |log |F|| with
    F(x, y) = e^{2 pi i nu.(x-y)} - r f(x) conj(f(y)), against
    log(4 / (r |f-hat(0)|^2))."""
    if not 0 < r < 1:
        raise HypothesisViolation("r must lie in (0, 1)")
    f0 = f.coefficient_at_zero()
    if f0 == 0:
        raise HypothesisViolation("f-hat(0) = 0")
    nu = tuple(int(v) for v in nu)
    sampling = f.evaluate_on_grid(resolution)
    total = sampling.size
    _cap_double_grid(total)
    vals = sampling.samples.ravel()
    phase = grid_phase(sampling.resolution, nu).ravel()
    # restriction to E x E can only shrink the integral; recorded for reference
    mask = unit_modulus_set(sampling, e_tol).mask.ravel()
    full_E = bool(mask.all())  # then E x E is the whole grid, summed once
    whole, on_E = StreamingSum(), StreamingSum()
    excluded = 0
    for rows in _row_blocks(total, total):
        abslog = _kernel_modulus(vals, phase, r, rows)
        excluded += int(np.count_nonzero(abslog < LOG_FLOOR))
        np.clip(abslog, LOG_FLOOR, None, out=abslog)
        np.log(abslog, out=abslog)
        np.abs(abslog, out=abslog)
        whole.add(abslog)
        if not full_E:
            on_E.add(abslog[np.ix_(mask[rows], mask)])
    lhs = float(whole.value) / total**2
    lhs_restricted = lhs if full_E else float(on_E.value) / total**2
    rhs = math.log(4.0 / (r * abs(f0) ** 2))
    return BoundReport(
        check_id="log_integral_bound",
        params={"r": r, "resolution": resolution if isinstance(resolution, int) else list(resolution)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        passed=lhs <= rhs + tol,
        details={
            "excluded_nodes": excluded,
            "lhs_restricted_to_E": lhs_restricted,
            "floor": LOG_FLOOR,
        },
    )


def identity_check(
    f: TrigSymbol,
    nu: Sequence[int],
    n: int,
    k: int,
    resolution: Sequence[int] | int,
    e_tol: float = DEFAULT_ENTRY_TOL,
    tol: float = DEFAULT_ENTRY_TOL,
) -> BoundReport:
    """|b_{n,n-k}|^2 against its double-integral form over E x E.

    The double integral factors as a product of single integrals; both
    evaluation paths are computed and compared.
    """
    nu = tuple(int(v) for v in nu)
    sampling = f.evaluate_on_grid(resolution)
    E = unit_modulus_set(sampling, e_tol)
    table = compute_b_table(f, E, nu, (n, n), [k])
    b = table.entry(n, k)
    lhs = abs(b) ** 2
    if table.degenerate:
        return BoundReport(
            check_id="identity",
            params={"n": n, "k": k},
            lhs=0.0,
            rhs=0.0,
            tolerance=tol,
            passed=True,
            details={"degenerate": True, "two_sided": True},
        )
    u = masked_integrand(E, nu, n, k)[2]
    _cap_double_grid(u.size)
    u_conj = np.conj(u)
    acc = StreamingSum()
    for rows in _row_blocks(u.size, u.size):
        acc.add(np.multiply.outer(u[rows], u_conj))
    integral = acc.value / sampling.size**2
    rhs = float(integral.real)
    diff = abs(lhs - rhs)
    return BoundReport(
        check_id="identity",
        params={"n": n, "k": k},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        passed=diff <= tol,
        details={
            "two_sided": True,
            "abs_difference": diff,
            "double_integral_imag": float(integral.imag),
        },
    )


def abel_series_check(
    f: TrigSymbol,
    nu: Sequence[int],
    N: int,
    k: int,
    r: float,
    n_trunc: int,
    resolution: Sequence[int] | int,
    e_tol: float = DEFAULT_ENTRY_TOL,
    base_tol: float = 1e-8,
) -> BoundReport:
    """Truncated series sum_{n>=1} (|b_{n+N,.}|^2 + |b_{-n+N,.}|^2) r^n / n
    against its closed double-integral form with weight log(1/|F|), plus the
    partial-sum bound log(16 / (r^2 |f-hat(0)|^4)).

    ``resolution`` sizes the double grid; the table side is computed on a
    grid fine enough to resolve all truncated characters.  On E, F takes
    f/|f| in place of f, as the table's integrand does, so the closed form
    holds on a tolerance-widened E too.
    """
    if not 0 < r < 1:
        raise HypothesisViolation("r must lie in (0, 1)")
    f0 = f.coefficient_at_zero()
    if f0 == 0:
        raise HypothesisViolation("f-hat(0) = 0")
    nu = tuple(int(v) for v in nu)
    sampling = f.evaluate_on_grid(resolution)
    E = unit_modulus_set(sampling, e_tol)
    res = sampling.resolution
    need = required_resolution(nu, abs(N) + n_trunc, abs(k))
    table_res = tuple(
        max(g, 2 ** math.ceil(math.log2(max(r_i, 2)))) for g, r_i in zip(res, need)
    )
    E_table = unit_modulus_set(f.evaluate_on_grid(table_res), e_tol)
    table = compute_b_table(f, E_table, nu, (N - n_trunc, N + n_trunc), [k])
    series_bound = math.log(16.0 / (r**2 * abs(f0) ** 4))

    acc = NeumaierSum()
    max_partial = 0.0
    for n in range(1, n_trunc + 1):
        term = (
            abs(table.entry(n + N, k)) ** 2 + abs(table.entry(-n + N, k)) ** 2
        ) * r**n / n
        acc.add(term)
        max_partial = max(max_partial, acc.value)
    lhs = acc.value

    if table.degenerate:
        rhs = 0.0
    else:
        unit, phase, u = masked_integrand(E, nu, N, k)
        _cap_double_grid(u.size)
        u_conj = np.conj(u)
        acc = StreamingSum()
        for rows in _row_blocks(u.size, u.size):
            weight = _kernel_modulus(unit, phase, r, rows)
            np.clip(weight, LOG_FLOOR, None, out=weight)
            np.divide(1.0, weight, out=weight)
            np.log(weight, out=weight)
            pair = np.multiply.outer(u[rows], u_conj)
            np.multiply(pair, weight, out=pair)
            acc.add(pair)
        rhs = 2.0 * float(acc.value.real) / sampling.size**2

    tail = r ** (n_trunc + 1) / ((n_trunc + 1) * (1.0 - r))
    tolerance = base_tol + tail
    diff = abs(lhs - rhs)
    passed = diff <= tolerance and max_partial <= series_bound + base_tol
    return BoundReport(
        check_id="abel_series",
        params={"N": N, "k": k, "r": r, "n_trunc": n_trunc},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        passed=passed,
        details={
            "two_sided": True,
            "abs_difference": diff,
            "tail_bound": tail,
            "max_partial_sum": max_partial,
            "partial_sum_bound": series_bound,
            "degenerate": table.degenerate,
        },
    )


# -- elementary summation/comparison lemmas ------------------------------------


def harmonic_block_bound(M: int, p: int) -> float:
    """Harmonic number H_p, checked against the double-sided sums
    sum_{N != m} 1/|m-N| >= H_p >= log(p+1) for every m in [M, M+p]."""
    if p < 1:
        raise HypothesisViolation("p must be >= 1")
    inv = 1.0 / np.arange(1, p + 1)
    cum = np.concatenate(([0.0], np.cumsum(inv)))
    h_p = float(math.fsum(inv.tolist()))
    # m - M runs over 0..p; the double-sided sum is H_{m-M} + H_{M+p-m}
    double_sided = cum + cum[::-1]
    if double_sided.min() < h_p - 1e-12:
        raise HypothesisViolation("double-sided harmonic comparison failed")
    if h_p < math.log(p + 1):
        raise HypothesisViolation("harmonic lower bound failed")
    return h_p


def cauchy_mvt_bound_check(
    q: int,
    alpha: float,
    gamma: float,
    x_samples: Sequence[float],
    quad_reltol: float = DEFAULT_QUAD_RELTOL,
) -> BoundReport:
    """1/g(gamma) + integral_0^{x-gamma} dt/g(t+gamma) < x / ((1-alpha) g(x))
    for g = L_q, at each sampled x > gamma."""
    from scipy.integrate import quad  # see check_mean_bound_iii

    if not 0 < alpha < 1:
        raise HypothesisViolation("alpha must lie in (0, 1)")
    worst = math.inf
    worst_x = None
    rows = []
    for x in x_samples:
        if x <= gamma:
            raise HypothesisViolation(f"sample x={x} must exceed gamma={gamma}")
        integral, _ = quad(
            lambda t: 1.0 / big_l(q, t + gamma),
            0.0,
            x - gamma,
            epsrel=quad_reltol,
            limit=500,
        )
        left = 1.0 / big_l(q, gamma) + integral
        right = x / ((1.0 - alpha) * big_l(q, x))
        rows.append({"x": x, "lhs": left, "rhs": right})
        if right - left < worst:
            worst = right - left
            worst_x = x
    passed = worst > 0.0
    worst_row = next(row for row in rows if row["x"] == worst_x)
    return BoundReport(
        check_id="cauchy_mvt",
        params={"q": q, "alpha": alpha, "gamma": gamma},
        lhs=worst_row["lhs"],
        rhs=worst_row["rhs"],
        tolerance=0.0,
        passed=passed,
        details={"samples": rows, "worst_x": worst_x},
    )
