"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion.  The first three
criteria share a single large table (20000 rows at grid 2^16), built once per
module.
"""

import json
import math
import time

import numpy as np
import pytest

from watlab import cli
from watlab.bounds import (
    check_mean_bound_ii,
    check_mean_bound_iv,
    check_weighted_series,
    identity_check,
    log_integral_bound_check,
    szego_check,
    theorem_constant,
)
from watlab.coeffs import brute_force_b, compute_b_table
from watlab.config import RunConfig
from watlab.iterlog import find_constants
from watlab.lattice import HalfSpace
from watlab.presets import preset_config
from watlab.symbols import TrigSymbol, sup_norm, unit_modulus_set

STRICT = 1e-9
K_VALUES = range(-4, 5)
D1_PRESETS = ("constant", "blaschke-half", "blaschke-two", "szego-equality")

_timing = {}


def report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def big_table():
    f = TrigSymbol.blaschke([0.5])
    t0 = time.monotonic()
    E = unit_modulus_set(f.evaluate_on_grid(2**16), 1e-9)
    table = compute_b_table(f, E, (1,), (1, 20000), 4)
    _timing["big_table"] = time.monotonic() - t0
    return table


@pytest.fixture(scope="module")
def big_c():
    return theorem_constant(0.5)


def preset_symbol(name):
    return RunConfig.from_dict(preset_config(name))


def test_criterion_1_weighted_series(big_table, big_c):
    assert big_c == pytest.approx(math.log(256.0))
    ok = _timing["big_table"] <= 300.0
    worst = -math.inf
    for N in (0, 10, 100):
        for k in K_VALUES:
            rep = check_weighted_series(big_table, N, k, big_c)
            ok = ok and rep.passed and rep.lhs <= rep.rhs + STRICT
            worst = max(worst, rep.lhs)
    ok = ok and worst < big_c
    report(1, f"weighted series <= C=log 256 (worst sum {worst:.4f})", ok)


def test_criterion_2_block_means(big_table, big_c):
    ok = True
    for p in (10, 100, 1000, 10000):
        for k in K_VALUES:
            rep = check_mean_bound_ii(big_table, 1, p, k, big_c)
            ok = ok and rep.passed and rep.lhs <= rep.rhs + STRICT
    report(2, "block means <= C/log(p+1) for p up to 10^4", ok)


def test_criterion_3_iterated_log_bound(big_table, big_c, closed_form_rhs_q1):
    params = find_constants(1)
    ok = params.gamma == 3.0 and params.alpha == 1 / math.log(3.0)
    for p in (10, 100, 1000, 10000):
        for k in K_VALUES:
            rep = check_mean_bound_iv(big_table, 1, 1, p, k, big_c)
            ok = ok and rep.passed
            ok = ok and abs(rep.rhs - closed_form_rhs_q1(p, big_c)) <= 1e-12
    report(3, "iterated-log mean bound, q=1 rhs matches closed form", ok)


def test_criterion_4_geometric_mean_suite():
    halfline = HalfSpace.standard(1).reflect()
    rng = np.random.default_rng(20260823)
    ok = True
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(c[0]) < 1e-2:
            c[0] += 0.5
        f = TrigSymbol.trig_polynomial(1, {(j,): v for j, v in enumerate(c)})
        norm = sup_norm(f.evaluate_on_grid(2**14))
        f = TrigSymbol.trig_polynomial(
            1, {(j,): v / (norm * (1 + 1e-12)) for j, v in enumerate(c)}
        )
        rep = szego_check(f, halfline, 2**14)
        ok = ok and rep.passed and rep.rhs >= rep.lhs - 1e-6
    equality = TrigSymbol.trig_polynomial(1, {(0,): 0.5, (1,): 0.5})
    rep = szego_check(equality, halfline, 2**14)
    ok = ok and rep.passed
    ok = ok and abs(rep.lhs + math.log(2)) <= 1e-6
    ok = ok and abs(rep.rhs + math.log(2)) <= 1e-6
    report(4, "geometric-mean inequality on 20 random symbols + equality case", ok)


def test_criterion_5_coefficient_identity():
    ok = True
    for name in D1_PRESETS:
        cfg = preset_symbol(name)
        for rep in identity_check(cfg.symbol, cfg.nu, list(range(1, 17)), list(range(-3, 4)), 256):
            ok = ok and rep.passed and abs(rep.lhs - rep.rhs) <= 1e-10
    torus = preset_symbol("torus2-degenerate")
    (rep,) = identity_check(torus.symbol, torus.nu, [3], [1], (256, 256))
    ok = ok and rep.passed and rep.lhs == rep.rhs == 0.0
    report(5, "squared entries equal double-integral form to 1e-10", ok)


def test_criterion_6_log_integral_bound():
    ok = True
    for name in D1_PRESETS:
        cfg = preset_symbol(name)
        for r in (0.5, 0.9):
            t0 = time.monotonic()
            (rep,) = log_integral_bound_check(cfg.symbol, cfg.nu, [r], 128)
            ok = ok and rep.passed and (time.monotonic() - t0) <= 60.0
    report(6, "kernel log-integral bound at grid 128, r in {0.5, 0.9}", ok)


def test_criterion_7_oracle_equivalence():
    f = TrigSymbol.blaschke([0.5])
    E = unit_modulus_set(f.evaluate_on_grid(4096), 1e-9)
    table = compute_b_table(f, E, (1,), (1, 64), 4)
    ok = True
    for n in range(1, 65):
        for k in K_VALUES:
            direct = brute_force_b(f, (1,), n, k, 4096)
            ok = ok and abs(table.entry(n, k) - direct) <= 1e-9
            refined = brute_force_b(f, (1,), n, k, 8192)
            ok = ok and abs(direct - refined) <= 1e-10
    report(7, "production table matches brute-force oracle to 1e-9", ok)


def blaschke_half_exact(n, ms):
    """[z^m] ((z + a)/(1 + az))^n, a = 1/2, for each m in ``ms`` (n >= 1):
    sum_j C(n, j) C(n+m-j-1, m-j) a^{n-j} (-a)^{m-j}, 0 for m < 0.  Over
    2^{n+m} the terms are integers, so the sum is exact and its quotient
    correctly rounded."""
    top = [math.comb(n, j) << 2 * j for j in range(n + 1)]
    alt = [(-1) ** i * math.comb(n - 1 + i, i) for i in range(max(ms) + 1)]
    return [
        sum(top[j] * alt[m - j] for j in range(min(n, m) + 1)) / 2 ** (n + m) if m >= 0 else 0.0
        for m in ms
    ]


def test_table_matches_exact_oracle_off_the_grid():
    """A third oracle for criteria 1-3: unlike brute_force_b it does not
    share the table's grid, so it sees grid-level error."""
    f = TrigSymbol.blaschke([0.5])
    E = unit_modulus_set(f.evaluate_on_grid(4096), 1e-9)
    table = compute_b_table(f, E, (1,), (1, 200), 4)
    exact = [blaschke_half_exact(n, [n - k for k in table.k_values]) for n in range(1, 201)]
    assert np.abs(table.values - np.array(exact)).max() <= 1e-13


@pytest.mark.parametrize("n, k", [(1, 0), (2, -3), (16, 3), (40, 1), (2, 3)])
def test_identity_matches_exact_oracle_beyond_pair_cap(n, k):
    """On 2^16 cells, far past the pair-grid checks' 2048, both sides of
    identity equal |b_{n,n-k}|^2 of the exact oracle; n - k < 0 gives 0."""
    (rep,) = identity_check(TrigSymbol.blaschke([0.5]), (1,), [n], [k], 2**16)
    want = blaschke_half_exact(n, [n - k])[0] ** 2
    assert rep.passed
    assert abs(rep.lhs - want) <= 1e-13
    assert abs(rep.rhs - want) <= 1e-13


def test_criterion_8_trivial_and_degenerate_gates(tmp_path):
    f = TrigSymbol.constant(1j)
    E = unit_modulus_set(f.evaluate_on_grid(64), 1e-9)
    delta = compute_b_table(f, E, (1,), (0, 8), 4)
    ok = True
    for n in range(0, 9):
        for k in delta.k_values:
            want = 1j**n if n == k else 0.0
            ok = ok and abs(delta.entry(n, k) - want) <= 1e-12

    torus = preset_symbol("torus2-degenerate")
    E2 = unit_modulus_set(torus.symbol.evaluate_on_grid(torus.grid), torus.e_tol)
    zero = compute_b_table(torus.symbol, E2, torus.nu, (1, 16), 2)
    ok = ok and zero.degenerate and bool(np.all(zero.values == 0))

    bad_nu = preset_config("blaschke-half")
    bad_nu["nu"] = [-1]
    p1 = tmp_path / "bad_nu.json"
    p1.write_text(json.dumps(bad_nu))
    ok = ok and cli.main(["table", "--config", str(p1), "--out", str(tmp_path / "o1")]) == 65

    no_mean = preset_config("blaschke-half")
    no_mean["symbol"] = {"dimension": 1, "spectrum": [{"index": [1], "re": 1.0}]}
    p2 = tmp_path / "no_mean.json"
    p2.write_text(json.dumps(no_mean))
    ok = ok and cli.main(["table", "--config", str(p2), "--out", str(tmp_path / "o2")]) == 65
    report(8, "delta table, degenerate flag, hypothesis exits", ok)


def test_criterion_9_determinism(tmp_path):
    for name in ("a", "b"):
        code = cli.main(
            ["check", "--preset", "blaschke-half", "--out", str(tmp_path / name)]
        )
        assert code == 0
    ok = True
    for fname in ("table.csv", "reports.jsonl"):
        ok = ok and (tmp_path / "a" / fname).read_bytes() == (
            tmp_path / "b" / fname
        ).read_bytes()
    report(9, "repeated preset runs are byte-identical", ok)
