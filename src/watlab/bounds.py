"""Verifiers for the decay inequalities and proof identities.

Every verifier returns self-contained BoundReports: identifiers, parameters,
both sides of the inequality, the margin, and truncation or quadrature metadata
(mean_iii and the Cauchy lemma integrate by accum.log_quad).  Truncated series
of nonnegative terms are reported, and labelled, as lower bounds of the
infinite sum, so a truncated pass is necessary but not sufficient.  A verifier
takes only what a run config sets; its tolerance is a constant of this module.
Every verdict but the strict Cauchy lemma's comes from one rule, _passes.
The grid checks that take a list (identity's n and k, log_integral's r) sample
their grid and find E once per call and return one report per point.  szego
samples none: it takes the symbol's own log_mean, exact per family.

The double-grid checks (log-integral bound, Abel series) sum functions of
a pair of cells that are symmetric in the pair, so they walk only the upper
triangle of their pair grid, in row blocks of at most PAIR_BLOCK_CELLS
cells, and count each cell right of the diagonal twice.
They add the ``csum`` of each block to a running total and never hold the
whole grid.  Their values depend on the block size only at rounding level.
One generator, _pair_sweep, walks a grid's blocks in one scratch, allocated
once per sweep and reused from block to block.  Their time grows with the
square of the grid, which the run config caps (config.MAX_DOUBLE_GRID_POINTS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .accum import csum, log_quad
from .coeffs import DiagonalTable, abs2, compute_b_table, masked_geometry, masked_integrand
from .iterlog import big_l, find_constants, log_iter, sample_ladder
from .lattice import HalfSpace
from .symbols import DEFAULT_E_TOL, HypothesisViolation, TrigSymbol, grid_phase, unit_modulus_set

DEFAULT_ENTRY_TOL = 1e-9
DEFAULT_SZEGO_TOL = 1e-6
DEFAULT_LOG_BOUND_TOL = 5e-2
# abel_series: the closed form's tolerance beyond the series tail bound
ABEL_BASE_TOL = 1e-8
LOG_FLOOR = 1e-300
# Cells of one triangle block of a pair grid: 512 KiB per real array.  The
# block size bounds a double-grid check's memory, one such array of scratch
# (two for abel) whatever its grid.  The block partition fixes which cells each
# csum adds, and so the last bits of every pair sum: another size would
# change lhs, rhs and the bytes of reports.jsonl at rounding level.
PAIR_BLOCK_CELLS = 2**16
# |F|^2 as one product of terms near 1 is off by a few eps, eps / |F|^2 relative,
# which passes 2e-8 below this level: those cells take |F| from np.hypot.
PAIR_CANCEL = 1e-8


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


def _passes(lhs: float, rhs: float, tolerance: float, two_sided: bool = False) -> bool:
    """The pass rule of every check but the Cauchy lemma: |lhs - rhs| <= tolerance
    for a two-sided form (an identity), lhs <= rhs + tolerance for an inequality."""
    return abs(lhs - rhs) <= tolerance if two_sided else lhs <= rhs + tolerance


def _report(check_id: str, params: dict, lhs: float, rhs: float, tolerance: float,
            details: dict) -> BoundReport:
    """A report judged by _passes, two-sided if its details say so."""
    passed = _passes(lhs, rhs, tolerance, details.get("two_sided", False))
    return BoundReport(check_id, params, lhs, rhs, tolerance, passed, details)


def theorem_constant(f0hat: complex) -> float:
    """The constant log(16 / |f-hat(0)|^4) controlling all the mean bounds,
    as log 16 - 4 log|f-hat(0)|: the quotient overflows for a tiny f-hat(0)."""
    mod = abs(f0hat)
    if mod == 0.0:
        raise HypothesisViolation("constant undefined: f-hat(0) = 0")
    return math.log(16.0) - 4.0 * math.log(mod)


def nonzero_f0(f: TrigSymbol) -> complex:
    """f-hat(0), refused if zero: the gate of a run's hypotheses and of
    szego_check, which takes its log."""
    f0 = f.coefficient_at_zero()
    if f0 == 0:
        raise HypothesisViolation("hypothesis violated: f-hat(0) = 0")
    return f0


def _check_r(r: float) -> None:
    if not 0 < r < 1:
        raise HypothesisViolation("r must lie in (0, 1)")


def check_weighted_series(table: DiagonalTable, N: int, k: int, C: float) -> BoundReport:
    """Truncated form of sum_{m != N} |b_{m,m-k}|^2 / |m - N| <= C.

    Terms are nonnegative, so the truncated sum is a lower bound of the
    infinite series and must itself satisfy the bound.
    """
    m = table.n_values
    keep = m != N
    terms = table.abs2_column(k)[keep] / np.abs(m[keep] - N)
    convention = "conjugate-power" if table.n_min < 0 else "m >= n_min only"
    return _report("weighted_series", {"N": N, "k": k}, float(csum(terms)), float(C),
                   DEFAULT_ENTRY_TOL, {"m_range": [table.n_min, table.n_max],
                                       "truncated_lower_bound": True,
                                       "negative_m_convention": convention})


def _block_sum(table: DiagonalTable, M: int, p: int, k: int) -> float:
    if M < 1 or p < 1:
        raise HypothesisViolation("mean bounds require M >= 1 and p >= 1")
    return table.block_sum(M, p, k)


def check_mean_bound_ii(table: DiagonalTable, M: int, p: int, k: int, C: float) -> BoundReport:
    """Block mean of |b|^2 against C / log(p+1)."""
    s = _block_sum(table, M, p, k)
    lhs = s / (p + 1)
    rhs = C / math.log(p + 1)
    return _report("mean_ii", {"M": M, "p": p, "k": k}, lhs, rhs, DEFAULT_ENTRY_TOL,
                   {"block_sum": s})


def check_mean_bound_iii(
    table: DiagonalTable, q: int, M: int, p: int, k: int, C: float
) -> BoundReport:
    """Weighted block bound with g = L_q and (alpha, gamma) = find_constants(q):
    (integral_1^{p+1} dt / (t g(t+gamma))) * sum <= C/(1-alpha) * (p+gamma)/g(p+gamma),
    the integral by accum.log_quad, whose error estimate is quad_abserr."""
    params = find_constants(q)
    alpha, gamma = params.alpha, params.gamma
    s = _block_sum(table, M, p, k)
    integral, abserr = log_quad(lambda t: 1.0 / (t * big_l(q, t + gamma)), 1.0, p + 1.0)
    lhs = integral * s
    rhs = (C / (1.0 - alpha)) * (p + gamma) / big_l(q, p + gamma)
    return _report("mean_iii", {"q": q, "alpha": alpha, "gamma": gamma, "M": M, "p": p, "k": k},
                   lhs, rhs, DEFAULT_ENTRY_TOL,
                   {"block_sum": s, "integral": integral, "quad_abserr": abserr})


def check_mean_bound_iv(
    table: DiagonalTable, q: int, M: int, p: int, k: int, C: float
) -> BoundReport:
    """Block mean of |b|^2 against the iterated-log rate for L_q, with
    (alpha, gamma) = find_constants(q)."""
    params = find_constants(q)
    alpha, gamma = params.alpha, params.gamma
    s = _block_sum(table, M, p, k)
    lhs = s / (p + gamma)
    denom = big_l(q, p + gamma) * (
        log_iter(q + 1, p + 1 + gamma) - log_iter(q + 1, 1 + gamma)
    )
    rhs = (C / (1.0 - alpha)) / denom
    return _report("mean_iv", {"q": q, "alpha": alpha, "gamma": gamma, "M": M, "p": p, "k": k},
                   lhs, rhs, DEFAULT_ENTRY_TOL, {"block_sum": s})


# -- geometric-mean inequality ------------------------------------------------


def szego_check(f: TrigSymbol, halfspace: HalfSpace, resolution: Sequence[int] | int) -> BoundReport:
    """Geometric-mean inequality: integral of log|f| >= log |f-hat(0)| for a
    symbol whose spectrum avoids the half-space."""
    if not f.vanishes_on(halfspace):
        raise HypothesisViolation("spectrum does not vanish on the half-space")
    lhs = math.log(abs(nonzero_f0(f)))
    rhs, method, slices = f.log_mean(resolution)
    res = resolution if isinstance(resolution, int) else list(resolution)
    return _report("szego", {"resolution": res}, lhs, rhs, DEFAULT_SZEGO_TOL,
                   {"method": method, "jensen_slices": slices})


# -- double-integral machinery -------------------------------------------------


def _triangle_blocks(n: int):
    """Row blocks (i0, i1) of the upper triangle of an n x n pair grid, in
    order: rows i0:i1 over columns i0:, each of at most PAIR_BLOCK_CELLS
    cells (one row if a row is longer).  A sum over the grid of a function
    symmetric in the pair takes each block's square part (columns i0:i1)
    once and the part to its right (columns i1:) twice."""
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, PAIR_BLOCK_CELLS // (n - i0)))
        yield i0, i1
        i0 = i1


def _pair_sweep(g: np.ndarray, r: float, u: np.ndarray | None = None):
    """Yield (i0, i1, logmod, floored, pair) for each _triangle_blocks block
    of the pair grid of ``g``: log max(|F|, LOG_FLOOR) on its rows i0:i1 and
    columns i0:, how many cells of the whole grid these rows and their mirror
    image hold with |F| < LOG_FLOOR, and Re(u(x) conj(u(y))) there (None
    without ``u``), in scratch that the next block overwrites.

    F(x, y) = e^{2 pi i nu.(x-y)} - r f(x) conj(f(y)) has the modulus of
    1 - r w, w = g(x) conj(g(y)), g = f e^{-2 pi i nu.x}, and
    |F|^2 = 1 - 2 r Re w + r^2 |g(x)|^2 |g(y)|^2 is one real matrix product
    of rank 4.  Cells where it falls below PAIR_CANCEL take |F| from the
    ``np.hypot`` of Re and Im of 1 - r w, computed for them alone; no block
    minimum is taken where 1 - r max|g|^2 shows that no cell falls that low.
    """
    n = g.size
    blocks = list(_triangle_blocks(n))
    cells = max(((i1 - i0) * (n - i0) for i0, i1 in blocks), default=0)
    cols = np.stack([np.ones(n), g.real, g.imag, abs2(g)])
    rows = (cols * np.array([[1], [-2 * r], [-2 * r], [r * r]])).T
    safe = 1 - r * cols[3].max(initial=0.0) > math.sqrt(2 * PAIR_CANCEL)  # |F| >= 1 - r |g|^2
    if u is not None:
        u_rows, u_cols = np.stack([u.real, u.imag], axis=1), np.stack([u.real, u.imag])
    # One array each, not one 2-row array: freeing a 2 MiB array raised glibc's
    # mmap threshold, and the preset-sweep benchmark's peak RSS by 1 MiB.
    scratch = [np.empty(cells) for _ in range(1 if u is None else 2)]  # for the largest block
    for i0, i1 in blocks:
        logmod, *pair = (a[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0) for a in scratch)
        np.matmul(rows[i0:i1], cols[:, i0:], out=logmod)
        tiny = None if safe or logmod.min() >= PAIR_CANCEL else np.flatnonzero(logmod < PAIR_CANCEL)
        np.log(logmod if tiny is None else np.maximum(logmod, PAIR_CANCEL, out=logmod), out=logmod)
        logmod *= 0.5
        floored = 0
        if tiny is not None:  # clamped above: a product of a few eps may be 0 or below
            x, y = np.divmod(tiny, n - i0)
            mod = np.abs(1 - r * (g[i0 + x] * np.conj(g[i0 + y])))  # np.hypot(re, im)
            logmod.ravel()[tiny] = np.log(np.maximum(mod, LOG_FLOOR))
            below = mod < LOG_FLOOR
            floored = int(np.count_nonzero(below) + np.count_nonzero(below & (y >= i1 - i0)))
        if pair:
            np.matmul(u_rows[i0:i1], u_cols[:, i0:], out=pair[0])
        yield i0, i1, logmod, floored, pair[0] if pair else None


def log_integral_bound_check(
    f: TrigSymbol,
    nu: Sequence[int],
    rs: Sequence[float],
    resolution: Sequence[int] | int,
    e_tol: float = DEFAULT_E_TOL,
) -> list[BoundReport]:
    """Double-grid quadrature of |log |F|| with
    F(x, y) = e^{2 pi i nu.(x-y)} - r f(x) conj(f(y)), against
    log(4 / (r |f-hat(0)|^2)), one report per r of ``rs``."""
    for r in rs:
        _check_r(r)
    C = theorem_constant(f.coefficient_at_zero())
    sampling = f.evaluate_on_grid(resolution)
    total = sampling.size
    phase = grid_phase(sampling.shape, nu).ravel()
    # The sweep takes E's cells first, then the rest, each in grid order, so the
    # E x E part (at most lhs, recorded for reference) is its leading corner.
    mask = unit_modulus_set(sampling, e_tol).mask.ravel()
    ne = int(np.count_nonzero(mask))
    g = (sampling.ravel() * np.exp(-2j * np.pi * phase))[np.argsort(~mask, kind="stable")]
    res = resolution if isinstance(resolution, int) else list(resolution)
    reports = []
    for r in rs:
        whole, on_E, excluded = 0.0, 0.0, 0
        for i0, i1, abslog, below, _ in _pair_sweep(g, r):
            excluded += below
            np.abs(abslog, out=abslog)
            abslog[:, i1 - i0:] *= 2.0
            c = max(0, ne - i0)  # this block's rows and columns in E
            on_E += (corner := csum(abslog[:c, :c]))
            whole = sum((csum(v) for v in (abslog[:c, c:], abslog[c:]) if v.size), whole + corner)
        lhs = whole / total**2
        rhs = C / 2 - math.log(r)
        details = {"excluded_nodes": excluded, "floor": LOG_FLOOR,
                   "lhs_restricted_to_E": on_E / total**2}
        reports.append(_report("log_integral_bound", {"r": r, "resolution": res}, lhs, rhs,
                               DEFAULT_LOG_BOUND_TOL, details))
    return reports


def identity_check(
    f: TrigSymbol,
    nu: Sequence[int],
    ns: Sequence[int],
    ks: Sequence[int],
    resolution: Sequence[int] | int,
    e_tol: float = DEFAULT_E_TOL,
) -> list[BoundReport]:
    """|b_{n,n-k}|^2 from the table against its double-integral form
    G^{-2} sum over E x E of u(x) conj(u(y)), u = masked_integrand, one
    report per (n, k) of ``ns`` x ``ks``.  The double sum factors (Fubini)
    as |G^{-1} sum over E of u|^2, so the rhs takes |E| adds, not |E|^2
    products, and no cap on |E| applies.  It is still a direct sum of the
    table's integrand on the same E, checked against the entries of one
    table over rows min(ns)..max(ns): its cost grows with that span.
    """
    sampling = f.evaluate_on_grid(resolution)
    E = unit_modulus_set(sampling, e_tol)
    geometry = masked_geometry(E, nu)
    table = compute_b_table(f, E, nu, (min(ns), max(ns)), ks)
    reports = []
    for n in ns:
        for k in ks:
            lhs = abs2(table.entry(n, k))
            rhs = abs2(csum(masked_integrand(geometry, n, k)) / sampling.size)
            reports.append(_report("identity", {"n": n, "k": k}, lhs, rhs, DEFAULT_ENTRY_TOL,
                                   {"two_sided": True, "abs_difference": abs(lhs - rhs)}))
    return reports


def abel_series_check(
    f: TrigSymbol,
    nu: Sequence[int],
    N: int,
    k: int,
    r: float,
    n_trunc: int,
    resolution: Sequence[int] | int,
    e_tol: float = DEFAULT_E_TOL,
) -> BoundReport:
    """Truncated series sum_{n>=1} (|b_{n+N,.}|^2 + |b_{-n+N,.}|^2) r^n / n
    against its closed double-integral form with weight log(1/|F|), plus the
    partial-sum bound log(16 / (r^2 |f-hat(0)|^4)).

    The table rows N - n_trunc .. N + n_trunc and the double sum share one
    E on the grid ``resolution``, so the two sides differ by the series tail
    and rounding only.  A grid too coarse for the table's characters raises
    its ResolutionError.  On E, F takes f/|f| in place of f, as the table's
    integrand does, so the closed form holds on a tolerance-widened E too.
    """
    _check_r(r)
    C = theorem_constant(f.coefficient_at_zero())
    sampling = f.evaluate_on_grid(resolution)
    E = unit_modulus_set(sampling, e_tol)
    geometry = masked_geometry(E, nu)
    table = compute_b_table(f, E, nu, (N - n_trunc, N + n_trunc), [k])
    series_bound = C - 2.0 * math.log(r)

    # rows N - n_trunc .. N + n_trunc; n = 1..n_trunc pairs row N + n with N - n
    col = table.abs2_column(k)
    n = np.arange(1, n_trunc + 1)
    partials = np.cumsum((col[n_trunc + 1:] + col[:n_trunc][::-1]) * r**n / n)
    lhs = float(partials[-1]) if partials.size else 0.0
    max_partial = float(partials.max(initial=0.0))

    u = masked_integrand(geometry, N, k)
    g = masked_integrand(geometry, 1, 0)  # f/|f| e^{-2 pi i nu.x}, the integrand of b_{1,1}
    total = 0.0
    for i0, i1, logmod, _, pair in _pair_sweep(g, r, u):
        pair *= logmod
        pair[:, i1 - i0:] *= 2.0
        total -= csum(pair)
    rhs = 2.0 * total / sampling.size**2

    tail = r ** (n_trunc + 1) / ((n_trunc + 1) * (1.0 - r))
    tolerance = ABEL_BASE_TOL + tail
    passed = (_passes(lhs, rhs, tolerance, True)
              and _passes(max_partial, series_bound, ABEL_BASE_TOL))
    details = {"two_sided": True, "abs_difference": abs(lhs - rhs), "tail_bound": tail,
               "max_partial_sum": max_partial, "partial_sum_bound": series_bound,
               "degenerate": table.degenerate}
    return BoundReport("abel_series", {"N": N, "k": k, "r": r, "n_trunc": n_trunc}, lhs, rhs,
                       tolerance, passed, details)


# -- the Cauchy mean-value lemma behind the constants (alpha_q, gamma_q) -------


def cauchy_mvt_bound_check(q: int) -> BoundReport:
    """1/g(gamma) + integral_gamma^x ds/g(s) (accum.log_quad) < x / ((1-alpha) g(x))
    for g = L_q and (alpha, gamma) = find_constants(q), at each x of
    sample_ladder(gamma) above gamma."""
    params = find_constants(q)
    alpha, gamma = params.alpha, params.gamma
    rows = []
    for x in sample_ladder(gamma)[1:]:
        left = 1.0 / big_l(q, gamma) + log_quad(lambda s: 1.0 / big_l(q, s), gamma, x)[0]
        right = x / ((1.0 - alpha) * big_l(q, x))
        rows.append({"x": x, "lhs": left, "rhs": right})
    worst = min(rows, key=lambda row: row["rhs"] - row["lhs"])
    # the lemma is strict, so not _passes: equality fails it
    return BoundReport("cauchy_mvt", {"q": q, "alpha": alpha, "gamma": gamma}, worst["lhs"],
                       worst["rhs"], 0.0, worst["rhs"] > worst["lhs"],
                       {"samples": rows, "worst_x": worst["x"]})
