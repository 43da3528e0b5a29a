import math

import numpy as np
import pytest

from watlab import bounds, coeffs
from watlab.bounds import (
    LOG_FLOOR,
    HypothesisViolation,
    abel_series_check,
    cauchy_mvt_bound_check,
    check_mean_bound_ii,
    check_mean_bound_iii,
    check_mean_bound_iv,
    check_weighted_series,
    identity_check,
    log_integral_bound_check,
    log_modulus_integral,
    szego_check,
    theorem_constant,
)
from watlab.coeffs import TableError, abs2, brute_force_b, compute_b_table, masked_integrand
from watlab.iterlog import find_constants
from watlab.symbols import ResolutionError, TrigSymbol, grid_phase, sup_norm, unit_modulus_set

EQUALITY_SYMBOL = TrigSymbol.trig_polynomial(1, {(0,): 0.5, (1,): 0.5})


def make_table(f, nu, n_range, k_window, grid):
    E = unit_modulus_set(f.evaluate_on_grid(grid), 1e-9)
    return compute_b_table(f, E, nu, n_range, k_window)


def test_theorem_constant_values():
    assert theorem_constant(1.0) == pytest.approx(math.log(16))
    assert theorem_constant(0.5) == pytest.approx(math.log(256))
    assert theorem_constant(0.9) < theorem_constant(0.5)
    with pytest.raises(HypothesisViolation):
        theorem_constant(0.0)


def test_weighted_series_on_delta_table():
    tab = make_table(TrigSymbol.constant(1j), (1,), (0, 8), 4, 64)
    C = math.log(16)
    for N in (5, 7):
        for k in (0, 2):
            rep = check_weighted_series(tab, N, k, C)
            assert rep.passed
            assert rep.lhs == pytest.approx(1 / abs(k - N), abs=1e-12)


@pytest.mark.parametrize("two_sided", [False, True])
def test_pass_rule_boundary(two_sided):
    """_passes accepts lhs at rhs + tolerance exactly (two-sided, also at
    rhs - tolerance) and refuses the next float beyond; the values are
    chosen so that lhs - rhs is exact."""
    rhs, tol = 1.0, 0.25
    edges = [(1.25, math.inf), (0.75, -math.inf)] if two_sided else [(1.25, math.inf)]
    for edge, beyond in edges:
        assert bounds._passes(edge, rhs, tol, two_sided)
        assert not bounds._passes(np.nextafter(edge, beyond), rhs, tol, two_sided)
    assert bounds._passes(-1e300, rhs, tol, two_sided) is not two_sided


def test_report_reads_two_sided_from_details():
    assert bounds._report("x", {}, 0.5, 1.0, 0.25, {}).passed
    assert not bounds._report("x", {}, 0.5, 1.0, 0.25, {"two_sided": True}).passed


def test_verifiers_report_failure():
    """A table-side verifier fails when its bound is below lhs by more than
    its tolerance, and passes at the bound."""
    tab = make_table(TrigSymbol.constant(1j), (1,), (0, 8), 4, 64)
    lhs = check_weighted_series(tab, 5, 1, 1.0).lhs
    assert check_weighted_series(tab, 5, 1, lhs).passed
    assert not check_weighted_series(tab, 5, 1, lhs - 2 * bounds.DEFAULT_ENTRY_TOL).passed
    assert check_mean_bound_ii(tab, 1, 7, 3, 1.0).lhs == pytest.approx(1 / 8)
    assert not check_mean_bound_ii(tab, 1, 7, 3, 0.25).passed


def test_weighted_series_truncation_monotone(blaschke_half):
    C = theorem_constant(0.5)
    small = make_table(blaschke_half, (1,), (1, 64), 2, 1024)
    large = make_table(blaschke_half, (1,), (1, 256), 2, 1024)
    for k in (-2, 0, 1):
        a = check_weighted_series(small, 0, k, C).lhs
        b = check_weighted_series(large, 0, k, C).lhs
        assert b >= a


def test_mean_ii(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 128), 2, 1024)
    C = theorem_constant(0.5)
    rep = check_mean_bound_ii(tab, 1, 100, 0, C)
    assert rep.passed
    rep1 = check_mean_bound_ii(tab, 1, 1, 0, C)
    assert rep1.rhs == pytest.approx(C / math.log(2))
    assert rep1.lhs <= 1.0


def test_mean_iii_integral_lower_bound(blaschke_half):
    # q = 1, gamma = 3: integral_1^{p+1} dt / (t log(t+3)) >= loglog(p+4) - loglog(4)
    tab = make_table(blaschke_half, (1,), (1, 1001), 0, 4096)
    for p in (10, 1000):
        rep = check_mean_bound_iii(tab, 1, 1, p, 0, theorem_constant(0.5))
        assert rep.params["gamma"] == 3.0
        lower = math.log(math.log(p + 4)) - math.log(math.log(4))
        assert rep.details["integral"] >= lower


def test_mean_iii(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 128), 2, 1024)
    C = theorem_constant(0.5)
    rep = check_mean_bound_iii(tab, 1, 1, 100, 0, C)
    assert rep.passed


def test_mean_iv_matches_closed_form(blaschke_half, closed_form_rhs_q1):
    tab = make_table(blaschke_half, (1,), (1, 128), 2, 1024)
    C = theorem_constant(0.5)
    for p in (10, 100):
        rep = check_mean_bound_iv(tab, 1, 1, p, 0, C)
        assert rep.passed
        assert abs(rep.rhs - closed_form_rhs_q1(p, C)) <= 1e-12


def test_mean_bounds_on_zero_table(torus2_degenerate):
    tab = make_table(torus2_degenerate, (1, 1), (1, 64), 2, (256, 256))
    C = theorem_constant(0.5)
    assert check_mean_bound_ii(tab, 1, 10, 0, C).lhs == 0.0
    assert check_mean_bound_iv(tab, 1, 1, 10, 0, C).passed


def test_mean_bounds_require_coverage(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 32), 2, 1024)
    C = theorem_constant(0.5)
    with pytest.raises(TableError):
        check_mean_bound_ii(tab, 1, 100, 0, C)


# -- geometric-mean inequality ---------------------------------------------


def test_szego_equality_symbol(neg_halfline):
    rep = szego_check(EQUALITY_SYMBOL, neg_halfline, 16384)
    assert rep.passed
    assert rep.lhs == pytest.approx(-math.log(2), abs=1e-12)
    assert rep.rhs == pytest.approx(-math.log(2), abs=1e-12)


def test_szego_constant(neg_halfline):
    rep = szego_check(TrigSymbol.constant(0.7), neg_halfline, 256)
    assert rep.passed
    assert rep.rhs == pytest.approx(math.log(0.7), abs=1e-12)


def test_szego_blaschke(neg_halfline, blaschke_half):
    rep = szego_check(blaschke_half, neg_halfline, 4096)
    assert rep.passed
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)  # inner: log|f| = 0


def test_szego_random_polynomials(neg_halfline):
    rng = np.random.default_rng(7)
    for _ in range(8):
        deg = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(coeffs[0]) < 1e-2:
            coeffs[0] += 0.5
        f = TrigSymbol.trig_polynomial(1, {(j,): c for j, c in enumerate(coeffs)})
        norm = sup_norm(f.evaluate_on_grid(16384))
        f = TrigSymbol.trig_polynomial(
            1, {(j,): c / (norm * (1 + 1e-12)) for j, c in enumerate(coeffs)}
        )
        rep = szego_check(f, neg_halfline, 16384)
        assert rep.passed
        assert rep.rhs >= rep.lhs - 1e-6


def test_szego_hypothesis_gates(neg_halfline):
    non_vanishing = TrigSymbol.trig_polynomial(1, {(0,): 0.5, (-1,): 0.5})
    with pytest.raises(HypothesisViolation):
        szego_check(non_vanishing, neg_halfline, 256)
    no_mean = TrigSymbol.trig_polynomial(1, {(1,): 1.0})
    with pytest.raises(HypothesisViolation):
        szego_check(no_mean, neg_halfline, 256)


def test_log_modulus_integral_equality_case():
    val, method, excluded = log_modulus_integral(EQUALITY_SYMBOL, 256)
    assert method == "roots"
    assert excluded == 0
    assert val == pytest.approx(-math.log(2), abs=1e-12)


# -- double-integral checks --------------------------------------------------


def test_log_integral_bound_constant_symbol():
    (rep,) = log_integral_bound_check(TrigSymbol.constant(1.0), (1,), [0.5], 128)
    assert rep.passed
    assert rep.rhs == pytest.approx(math.log(8))
    assert rep.details["lhs_restricted_to_E"] <= rep.lhs + 1e-15


def test_log_integral_bound_blaschke(blaschke_half):
    for rep in log_integral_bound_check(blaschke_half, (1,), [0.5, 0.9], 128):
        assert rep.passed


def test_log_integral_bound_r_rejected(blaschke_half):
    with pytest.raises(HypothesisViolation):
        log_integral_bound_check(blaschke_half, (1,), [1.5], 128)


def test_identity_constant_symbol():
    for n in (1, 3):
        for k in (0, 1, 3):
            (rep,) = identity_check(TrigSymbol.constant(1.0), (1,), [n], [k], 128)
            assert rep.passed
            expected = 1.0 if n == k else 0.0
            assert rep.lhs == pytest.approx(expected, abs=1e-12)


def test_identity_blaschke(blaschke_half):
    (rep,) = identity_check(blaschke_half, (1,), [3], [1], 256)
    assert rep.passed
    assert rep.details["abs_difference"] <= 1e-10


def test_identity_sweep(blaschke_half):
    for rep in identity_check(blaschke_half, (1,), [-2, 1, 4, 9, 16], [-3, 0, 2], 256):
        assert rep.details["abs_difference"] <= 1e-10


@pytest.mark.parametrize("name, e_tol", [("blaschke", 1e-9), ("arc", 0.05)])
def test_identity_sparse_n_list(name, e_tol):
    """A sparse, sign-mixed n list: lhs comes from one table over rows
    -2..16, within 1e-14 of each n's one-row table and of brute_force_b;
    rhs is G^{-1} sum over E of the integrand, summed for each point alone,
    to the last bit."""
    f, ns, ks, grid = PAIR_SYMBOLS[name], [-2, 1, 4, 9, 16], [-3, 0, 2], 256
    sampling = f.evaluate_on_grid(grid)
    E = unit_modulus_set(sampling, e_tol)
    mask = E.mask.ravel()
    phase = grid_phase(sampling.shape, (1,)).ravel()[mask]
    theta = np.angle(sampling.ravel()[mask]) - 2 * np.pi * phase
    reports = identity_check(f, (1,), ns, ks, grid, e_tol=e_tol)
    assert [(rep.params["n"], rep.params["k"]) for rep in reports] == [(n, k) for n in ns for k in ks]
    for rep in reports:
        n, k = rep.params["n"], rep.params["k"]
        u = np.exp(1j * n * theta) * np.exp(2j * np.pi * k * phase)
        assert rep.rhs == abs2(np.sum(u).item() / grid)
        one_row = compute_b_table(f, E, (1,), (n, n), [k]).entry(n, k)
        for reference in (one_row, brute_force_b(f, (1,), n, k, grid, e_tol)):
            assert rep.lhs == pytest.approx(abs2(reference), rel=0, abs=1e-14)
        assert rep.passed


def test_identity_degenerate(torus2_degenerate):
    """On a null E both sides are sums over no cells, exactly 0."""
    (rep,) = identity_check(torus2_degenerate, (1, 1), [3], [1], (256, 256))
    assert rep.passed
    assert rep.lhs == rep.rhs == 0.0
    assert rep.details == {"two_sided": True, "abs_difference": 0.0}


def test_abel_constant_symbol():
    rep = abel_series_check(TrigSymbol.constant(1.0), (1,), 0, 0, 0.5, 50, 128)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_abel_blaschke(blaschke_half):
    rep = abel_series_check(blaschke_half, (1,), 0, 0, 0.9, 200, 512)
    assert rep.passed
    assert rep.details["abs_difference"] <= rep.tolerance
    assert rep.details["max_partial_sum"] <= rep.details["partial_sum_bound"]


def test_abel_fails_above_its_partial_sum_bound(blaschke_half, monkeypatch):
    """abel fails when a partial sum exceeds log(16 / (r^2 |f-hat(0)|^4)),
    though its two sides agree: here that bound is lowered below zero."""
    monkeypatch.setattr(bounds, "theorem_constant", lambda f0: -1.0)
    rep = abel_series_check(blaschke_half, (1,), 0, 0, 0.9, 200, 512)
    assert rep.details["abs_difference"] <= rep.tolerance
    assert rep.details["max_partial_sum"] > rep.details["partial_sum_bound"]
    assert not rep.passed


def test_abel_r_rejected(blaschke_half):
    with pytest.raises(HypothesisViolation):
        abel_series_check(blaschke_half, (1,), 0, 0, 1.0, 10, 128)


def test_abel_table_shares_its_grid():
    """The table and the closed form are sums over one E, so on the arc they
    agree to far below the series tail (2.4e-6); a grid too coarse for the
    table's rows 1 - 100 .. 1 + 100 is refused with the grid that works."""
    rep = abel_series_check(EQUALITY_SYMBOL, (1,), 1, 0, 0.9, 100, 256, e_tol=0.05)
    assert rep.passed
    assert rep.details["abs_difference"] <= 1e-9
    with pytest.raises(ResolutionError, match=r"smallest usable power-of-two grid: 256$"):
        abel_series_check(EQUALITY_SYMBOL, (1,), 1, 0, 0.9, 100, 128, e_tol=0.05)


# -- the pair grid walked in triangle blocks against the whole outer product --

# |f| = |cos(pi x)|: E at e_tol 0.05 is the arc |x| <= acos(0.95)/pi, a fifth
# of the circle; the Blaschke product has E = the whole circle.  On the torus,
# |f| = |cos(pi (x1 + 2 x2))|, and E at e_tol 0.5 is the band where
# x1 + 2 x2 lies within 1/3 of an integer, 11/16 of the 16 x 16 grid.
PAIR_SYMBOLS = {
    "blaschke": TrigSymbol.blaschke([0.5]),
    "arc": EQUALITY_SYMBOL,
    "band": TrigSymbol.trig_polynomial(2, {(0, 0): 0.5, (1, 2): 0.5}),
}
PAIR_CASES = [
    pytest.param("blaschke", (1,), 256, 1e-9, id="blaschke-1e-09"),
    pytest.param("arc", (1,), 256, 0.05, id="arc-0.05"),
    pytest.param("blaschke", (2,), 256, 1e-9, id="blaschke-nu2"),
    pytest.param("arc", (2,), 256, 0.05, id="arc-nu2"),
    pytest.param("band", (1, 1), (16, 16), 0.5, id="band-d2"),
]


def outer_kernel_modulus(vals, phase, r):
    e = np.exp(2j * np.pi * phase)
    return np.abs(np.outer(e, np.conj(e)) - r * np.outer(vals, np.conj(vals)))


def outer_masked_u(f, nu, n, k, grid, e_tol):
    """((f/|f|, nu.x, u) on E, grid size).  f/|f| and nu.x are built here
    from the sampling, so the kernel reference does not go through the table
    engine; u is masked_integrand."""
    sampling = f.evaluate_on_grid(grid)
    E = unit_modulus_set(sampling, e_tol)
    assert 0 < E.measure <= 1
    mask = E.mask.ravel()
    vals = sampling.ravel()[mask]
    phase = grid_phase(sampling.shape, nu).ravel()[mask]
    u = masked_integrand(coeffs.masked_geometry(E, nu), n, k)
    return (vals / np.abs(vals), phase, u), sampling.size


def fsum_complex(x):
    """math.fsum of a complex array: exactly rounded, in any order."""
    x = np.ravel(x)
    return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))


# Each block's csum and the running total round at ~log2(cells) eps; the pair
# sums below are O(1), so 2e-15 is some ten ulps.
PAIR_TOL = 2e-15
# r = 0.99 is a case of its own, not a loosened PAIR_TOL: |F| >= 1 - r = 0.01,
# and |F|^2 as one rank-4 product is off by a few eps, so by ~1e-12 relative on
# the cells nearest that bound.  Over PAIR_CASES and every block size the pair
# sums met their references to 2.3e-15 (log_integral) and 8.3e-15 (abel).
PAIR_TOL_NEAR_ONE = 2e-14
PAIR_RS = ((0.5, PAIR_TOL), (0.9, PAIR_TOL), (0.99, PAIR_TOL_NEAR_ONE))


# 700 and 5000 cells are no multiple of a grid side, so blocks of whole rows
# leave part of a row's budget unused; 1 cell makes one-row blocks.
@pytest.fixture(params=[1, 700, 5000, 2**18], ids=lambda c: f"block{c}")
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(bounds, "PAIR_BLOCK_CELLS", request.param)


@pytest.mark.parametrize("name, nu, grid, e_tol", PAIR_CASES)
def test_log_integral_blocks_match_outer_product(small_blocks, name, nu, grid, e_tol):
    f = PAIR_SYMBOLS[name]
    sampling = f.evaluate_on_grid(grid)
    vals = sampling.ravel()
    mask = np.abs(np.abs(vals) - 1.0) <= e_tol
    assert name == "blaschke" or not mask.all()
    for r, tol in PAIR_RS:
        mods = outer_kernel_modulus(vals, grid_phase(sampling.shape, nu).ravel(), r)
        abslog = np.abs(np.log(np.clip(mods, LOG_FLOOR, None)))
        (rep,) = log_integral_bound_check(f, nu, [r], grid, e_tol=e_tol)
        whole = math.fsum(abslog.ravel().tolist()) / sampling.size**2
        assert rep.lhs == pytest.approx(whole, rel=0, abs=tol)
        assert rep.rhs == math.log(4.0 / (r * abs(f.coefficient_at_zero()) ** 2))
        restricted = math.fsum(abslog[np.outer(mask, mask)].tolist()) / sampling.size**2
        assert rep.details == {
            "excluded_nodes": int(np.count_nonzero(mods < LOG_FLOOR)),
            "lhs_restricted_to_E": pytest.approx(restricted, rel=0, abs=tol),
            "floor": LOG_FLOOR,
        }


@pytest.mark.parametrize("f", [TrigSymbol.blaschke([0.5]), TrigSymbol.constant(1j)],
                         ids=["blaschke-half", "unimodular-constant"])
def test_log_integral_full_e_restriction_is_lhs(small_blocks, f):
    """On a full E the E-first order is the grid order and E x E the whole
    pair grid, so every block's cells are one corner view: the restricted
    sum is lhs to the last bit, under every block size."""
    for rep in log_integral_bound_check(f, (1,), [0.5, 0.9], 128):
        assert rep.details["lhs_restricted_to_E"] == rep.lhs


@pytest.mark.parametrize("name, nu, grid, e_tol", PAIR_CASES)
def test_identity_blocks_match_outer_product(small_blocks, name, nu, grid, e_tol):
    # identity sums its integrand once and walks no blocks: under every
    # block size it must equal the exactly rounded sum of the outer product.
    # For one n, its table over rows min(n)..max(n) is the one row n.
    f = PAIR_SYMBOLS[name]
    for n, k in ((1, 0), (3, -1), (-2, 2)):
        (_, _, u), size = outer_masked_u(f, nu, n, k, grid, e_tol)
        integral = fsum_complex(np.outer(u, np.conj(u))) / size**2
        # the terms at (x, y) and (y, x) are conjugate: the sum is real
        assert abs(integral.imag) <= PAIR_TOL
        (rep,) = identity_check(f, nu, [n], [k], grid, e_tol=e_tol)
        assert rep.lhs == abs2(compute_b_table(
            f, unit_modulus_set(f.evaluate_on_grid(grid), e_tol), nu, (n, n), [k]
        ).entry(n, k))
        assert rep.rhs == pytest.approx(integral.real, rel=0, abs=PAIR_TOL)
        assert rep.details == {"two_sided": True, "abs_difference": abs(rep.lhs - rep.rhs)}


@pytest.mark.parametrize("name, nu, grid, e_tol", PAIR_CASES)
def test_abel_blocks_match_outer_product(small_blocks, monkeypatch, name, nu, grid, e_tol):
    f = PAIR_SYMBOLS[name]
    # the table shares the check's grid: 16 x 16 resolves rows up to 1 + 6
    n_trunc = 6 if name == "band" else 20
    (vals, phase, u), size = outer_masked_u(f, nu, 1, 0, grid, e_tol)
    reps = [abel_series_check(f, nu, 1, 0, r, n_trunc, grid, e_tol=e_tol) for r, _ in PAIR_RS]
    monkeypatch.undo()  # the series side does not depend on the block size
    for (r, tol), rep in zip(PAIR_RS, reps):
        weight = np.log(1.0 / np.clip(outer_kernel_modulus(vals, phase, r), LOG_FLOOR, None))
        rhs = 2.0 * fsum_complex(np.outer(u, np.conj(u)) * weight).real / size**2
        whole = abel_series_check(f, nu, 1, 0, r, n_trunc, grid, e_tol=e_tol)
        assert rep.lhs == whole.lhs
        assert rep.rhs == pytest.approx(rhs, rel=0, abs=tol)
        assert rep.details["abs_difference"] == abs(rep.lhs - rep.rhs)
        del rep.details["abs_difference"], whole.details["abs_difference"]
        assert rep.details == whole.details
        assert rep.passed == whole.passed


# f = 2 with nu = 0: g = f e^{-2 pi i nu.x} = 2, so 1 - 0.25 |g|^2 and F vanish
# exactly on every cell, in the squared form as in the whole outer product.
ZERO_KERNEL_SYMBOL = TrigSymbol.trig_polynomial(1, {(0,): 2})


def test_log_integral_zero_kernel_cells_excluded(small_blocks):
    sampling = ZERO_KERNEL_SYMBOL.evaluate_on_grid(8)
    mods = outer_kernel_modulus(sampling.ravel(), grid_phase((8,), (0,)).ravel(), 0.25)
    assert np.count_nonzero(mods == 0.0) == 64
    whole = math.fsum(np.abs(np.log(np.clip(mods, LOG_FLOOR, None))).ravel().tolist()) / 64
    (rep,) = log_integral_bound_check(ZERO_KERNEL_SYMBOL, (0,), [0.25], 8, e_tol=0.5)
    assert rep.details["excluded_nodes"] == 64
    assert math.isfinite(rep.lhs)
    assert rep.lhs == pytest.approx(whole, rel=1e-15, abs=0)
    assert rep.details["lhs_restricted_to_E"] == 0.0  # E is empty


def test_abel_zero_kernel_symbol_finite(small_blocks):
    """|f| = 2 leaves E empty, and on E the kernel takes f/|f|, so
    |F| >= 1 - r there: the pair sum is the empty one."""
    rep = abel_series_check(ZERO_KERNEL_SYMBOL, (0,), 0, 0, 0.25, 10, 8, e_tol=0.5)
    assert rep.details["degenerate"]
    assert rep.rhs == 0.0 and rep.lhs == 0.0 and rep.passed


@pytest.mark.parametrize("i0, i1", [(0, 3), (0, 1)])
def test_kernel_floor_is_on_the_modulus(monkeypatch, i0, i1):
    """A cell is floored and counted exactly when |F| < LOG_FLOOR, also where
    re^2 + im^2 underflows: |F| = 1e-200 keeps its log, |F| = 1e-310 and 0
    are floored.  A cell right of the block's square counts twice."""
    g = np.array([1.0, 1.0 + 1e-200j, 1.0 + 1e-310j])
    mods = np.abs(1.0 - np.outer(g, np.conj(g)))
    assert sorted(set(mods.ravel().tolist())) == [0.0, 1e-310, 1e-200]
    monkeypatch.setattr(bounds, "PAIR_BLOCK_CELLS", 3 * i1)
    _, _, logmod, excluded, _ = next(bounds._pair_sweep(g, 1.0))
    assert logmod.tolist() == np.log(np.maximum(mods[i0:i1, i0:], LOG_FLOOR)).tolist()
    below = mods[i0:i1, i0:] < LOG_FLOOR
    assert excluded == np.count_nonzero(below) + np.count_nonzero(below[:, i1 - i0:])
    assert excluded == (5 if i1 == 3 else 3)


def test_pair_sweep_cancelled_cells_take_hypot():
    """At r = 1 - 1e-9, |F|^2 as the rank-4 product is a difference of terms
    near 1: on the diagonal (|F| = 1e-9) and at a shift of 1e-7 turns it
    would keep only rounding noise.  Those cells fall below PAIR_CANCEL and
    take |F| from np.hypot; the rest keep the product, eps / |F|^2 relative."""
    g = np.exp(2j * np.pi * np.array([0.0, 1e-7, 1e-3, 0.25]))
    r = 1 - 1e-9
    mods = np.abs(1 - r * np.outer(g, np.conj(g)))
    _, _, logmod, excluded, _ = next(bounds._pair_sweep(g, r))
    assert excluded == 0
    assert np.abs(logmod - np.log(mods)).max() <= 1e-10


# |F| is 0, 1e-310 and 1e-200 among 1, 1 + 1e-200i and 1 + 1e-310i, and 1
# wherever a 0 takes part; with 24-cell blocks the 8 cells sweep in blocks of
# 3, 4 and 1 rows, so the first block is the largest.
@pytest.mark.parametrize("first", [True, False], ids=["first-block", "later-blocks"])
def test_pair_sweep_floor_on_reused_scratch(monkeypatch, first):
    """Floored cells in the first block only, or in later blocks only: every
    block equals its part of the whole outer product, so no floored cell
    index and no scratch value of one block leaks into another."""
    special = [1.0, 1.0 + 1e-200j, 1.0 + 1e-310j]
    g = np.array(special + [0.0] * 5 if first else [0.0] * 5 + special)
    mods = np.abs(1.0 - np.outer(g, np.conj(g)))
    monkeypatch.setattr(bounds, "PAIR_BLOCK_CELLS", 24)
    blocks, floored = [], 0
    for i0, i1, logmod, below, pair in bounds._pair_sweep(g, 1.0, g):
        assert logmod.tolist() == np.log(np.maximum(mods[i0:i1, i0:], LOG_FLOOR)).tolist()
        assert pair.tolist() == np.outer(g, np.conj(g)).real[i0:i1, i0:].tolist()
        assert (below > 0) == (i0 == 0 if first else i1 > 5)
        blocks.append((i0, i1))
        floored += below
    assert blocks == [(0, 3), (3, 7), (7, 8)]
    assert floored == np.count_nonzero(mods < LOG_FLOOR) == 5


@pytest.mark.parametrize("f, N, n_trunc, grid, e_tol", [
    (TrigSymbol.blaschke([0.5]), 0, 200, 512, 1e-9),
    (EQUALITY_SYMBOL, 1, 20, 256, 0.05),
], ids=["blaschke", "arc"])
def test_abel_series_side_matches_fsum(f, N, n_trunc, grid, e_tol):
    """The vectorised series side against an exactly rounded sum of the same
    table entries, term by term as the docstring writes them."""
    r = 0.9
    E = unit_modulus_set(f.evaluate_on_grid(grid), e_tol)
    table = compute_b_table(f, E, (1,), (N - n_trunc, N + n_trunc), [0])
    terms = [
        (abs(table.entry(N + n, 0)) ** 2 + abs(table.entry(N - n, 0)) ** 2) * r**n / n
        for n in range(1, n_trunc + 1)
    ]
    rep = abel_series_check(f, (1,), N, 0, r, n_trunc, grid, e_tol=e_tol)
    want = math.fsum(terms)
    assert rep.lhs == pytest.approx(want, rel=1e-14, abs=0)
    assert rep.details["max_partial_sum"] == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("grid", [4096, 8192])
@pytest.mark.parametrize("r", [0.5, 0.9])
def test_log_integral_matches_fourier_series(r, grid):
    """Past the pair grids the outer-product tests reach.  Where |f| = 1,
    F(x, y) = 1 - r e^{i(theta(x) - theta(y))} with theta = arg f - 2 pi nu.x,
    so with phi(t) = |log|1 - r e^{it}|| = sum_j phi-hat_j e^{ijt} the pair
    sum is sum_j phi-hat_j |b_{j,j}|^2, b_{j,j} = G^{-1} sum_x e^{ij theta(x)}.
    phi-hat comes from a 2^20-point FFT and b_{j,j}, |j| <= 4096, from the
    NUFFT, an exact grid sum at any j; phi-hat_j decays as j^-2 (phi has
    kinks), and the two sides met to 2.2e-10 at worst."""
    f = TrigSymbol.blaschke([0.5])
    J, M = 4096, 2**20
    phase, theta = coeffs.masked_geometry(unit_modulus_set(f.evaluate_on_grid(grid), 1e-9), (1,))
    assert theta.size == grid  # E is the whole grid
    b = coeffs._nufft_type1(theta, phase, [0], -J, J)[:, 0] / grid
    t = 2 * np.pi * np.arange(M) / M
    phi_hat = np.fft.fft(np.abs(np.log(np.abs(1 - r * np.exp(1j * t))))).real / M
    series = math.fsum((phi_hat[np.arange(-J, J + 1) % M] * np.abs(b) ** 2).tolist())
    (rep,) = log_integral_bound_check(f, (1,), [r], grid)
    assert abs(rep.lhs - series) <= 1e-9


# -- the Cauchy mean-value lemma -----------------------------------------------


@pytest.mark.parametrize("q", [1, 2, 3])
def test_cauchy_mvt(q):
    """The lemma holds on the 40 points of the ladder above gamma_q."""
    rep = cauchy_mvt_bound_check(q)
    assert rep.passed
    xs = [row["x"] for row in rep.details["samples"]]
    assert len(xs) == 40 and min(xs) > find_constants(q).gamma
    assert xs[-1] == pytest.approx(1e8, rel=1e-12)
