import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from watlab import coeffs
from watlab.coeffs import (
    DiagonalTable,
    TableError,
    brute_force_b,
    compute_b_table,
    compute_c_table,
    required_resolution,
)
from watlab.symbols import ResolutionError, TrigSymbol, unit_modulus_set


def make_table(f, nu, n_range, k_window, grid, e_tol=1e-9):
    E = unit_modulus_set(f.evaluate_on_grid(grid), e_tol)
    return compute_b_table(f, E, nu, n_range, k_window)


def test_constant_i_delta_table():
    tab = make_table(TrigSymbol.constant(1j), (1,), (0, 8), 4, 64)
    for n in range(0, 9):
        for k in tab.k_values:
            expected = 1j**n if n == k else 0.0
            assert abs(tab.entry(n, k) - expected) <= 1e-12


def test_constant_i_delta_table_torus2():
    # |f| = 1 on all of T^2, so this d=2 table is not degenerate.
    tab = make_table(TrigSymbol.constant(1j, 2), (1, 1), (-6, 6), 3, (32, 32))
    assert not tab.degenerate
    for n in range(-6, 7):
        for k in tab.k_values:
            expected = 1j**n if n == k else 0.0
            assert abs(tab.entry(n, k) - expected) <= 1e-12


def test_blaschke_first_row(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 4), 4, 1024)
    assert tab.entry(1, 0) == pytest.approx(0.75, abs=1e-12)
    assert tab.entry(1, 1) == pytest.approx(0.5, abs=1e-12)


def test_torus2_degenerate_zero_table(torus2_degenerate):
    tab = make_table(torus2_degenerate, (1, 1), (1, 16), 2, (256, 256))
    assert tab.degenerate
    assert np.all(tab.values == 0)


def test_entry_bound_le_measure(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 64), 4, 1024)
    assert np.abs(tab.values).max() <= tab.e_measure + 1e-12


def test_negative_rows_conjugate_symmetry(blaschke_half):
    tab = make_table(blaschke_half, (1,), (-16, 16), 3, 1024)
    for n in range(1, 17):
        for k in (-3, -1, 0, 2):
            # b_{-n,-n-k} = conj(b_{n,n+k})
            assert abs(
                tab.entry(-n, k) - np.conj(tab.entry(n, -k))
            ) <= 1e-12


def test_oracle_equivalence(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 32), 4, 2048)
    for n in (1, 2, 5, 17, 32):
        for k in (-4, -1, 0, 2, 4):
            direct = brute_force_b(blaschke_half, (1,), n, k, 2048)
            assert abs(tab.entry(n, k) - direct) <= 1e-9


TWO_ZERO_GRID = 1024


@pytest.fixture(scope="module")
def two_zero_oracle():
    """A two-zero Blaschke product and brute_force_b over n -64..64, |k| <= 8."""
    f = TrigSymbol.blaschke([0.5, -0.3 + 0.2j])
    direct = np.array([
        [brute_force_b(f, (1,), n, k, TWO_ZERO_GRID) for k in range(-8, 9)]
        for n in range(-64, 65)
    ])
    return f, direct


def two_zero_error(two_zero_oracle):
    f, direct = two_zero_oracle
    tab = make_table(f, (1,), (-64, 64), 8, TWO_ZERO_GRID)
    return float(np.abs(tab.values - direct).max())


def test_oracle_equivalence_wide_window(two_zero_oracle):
    assert two_zero_error(two_zero_oracle) <= 1e-12


def test_kernel_half_width_sets_accuracy(monkeypatch, two_zero_oracle):
    err_default = two_zero_error(two_zero_oracle)
    monkeypatch.setattr(coeffs, "NUFFT_HALF_WIDTH", 10)
    assert two_zero_error(two_zero_oracle) >= 100 * err_default
    # 6 points per side fails the oracle tolerance of acceptance criterion 7.
    monkeypatch.setattr(coeffs, "NUFFT_HALF_WIDTH", 6)
    assert two_zero_error(two_zero_oracle) > 1e-9


# a + (1-a) e^{2 pi i x} has |f| = 1 only at x = 0, so at a loose e_tol its
# grid E is an arc with 0 < |E| < 1, where (f/|f|)^n and f^n differ.
@given(
    a=st.floats(0.2, 0.8),
    e_tol=st.floats(math.log(1e-3), math.log(0.3)).map(math.exp),
    nu=st.sampled_from([1, 2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_partial_e_table_matches_oracle(a, e_tol, nu):
    f = TrigSymbol.trig_polynomial(1, {(0,): a, (1,): 1 - a})
    tab = make_table(f, (nu,), (-8, 8), 2, 512, e_tol)
    assume(not tab.degenerate)
    assert 0 < tab.e_measure < 1
    assert np.abs(tab.values).max() <= tab.e_measure + coeffs.ENTRY_BOUND_SLACK
    direct = np.array([
        [brute_force_b(f, (nu,), n, k, 512, e_tol) for k in tab.k_values]
        for n in range(-8, 9)
    ])
    assert np.abs(tab.values - direct).max() <= 1e-12
    assert np.array_equal(tab.values, make_table(f, (nu,), (-8, 8), 2, 512, e_tol).values)


def test_table_entry_cap(monkeypatch, blaschke_half):
    monkeypatch.setattr(coeffs, "MAX_TABLE_ENTRIES", 40)
    make_table(blaschke_half, (1,), (1, 8), 2, 256)  # 8 rows x 5 diagonals
    with pytest.raises(TableError, match="9 x 5 table entries exceed 40"):
        make_table(blaschke_half, (1,), (1, 9), 2, 256)


def test_brute_force_trivials():
    assert brute_force_b(TrigSymbol.constant(1.0), (1,), 7, 7, 64) == pytest.approx(1.0)
    assert abs(brute_force_b(TrigSymbol.constant(1.0), (1,), 7, 3, 64)) <= 1e-13


def test_brute_force_refinement_stable(blaschke_half):
    for n, k in ((8, 0), (31, 2)):
        a = brute_force_b(blaschke_half, (1,), n, k, 2048)
        b = brute_force_b(blaschke_half, (1,), n, k, 4096)
        assert abs(a - b) <= 1e-10


def test_resolution_enforced(blaschke_half):
    E = unit_modulus_set(blaschke_half.evaluate_on_grid(64), 1e-9)
    with pytest.raises(ResolutionError, match="required"):
        compute_b_table(blaschke_half, E, (1,), (1, 100), 4)
    with pytest.raises(ResolutionError):
        brute_force_b(blaschke_half, (1,), 100, 0, 64)


def test_required_resolution_formula():
    assert required_resolution((1,), 100, 4) == (210,)
    assert required_resolution((2, -3), 10, 1) == (46, 68)


def test_determinism(blaschke_half):
    a = make_table(blaschke_half, (1,), (1, 64), 4, 1024)
    b = make_table(blaschke_half, (1,), (1, 64), 4, 1024)
    assert np.array_equal(a.values, b.values)


def test_csv_roundtrip_bytes(tmp_path, blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 8), 2, 256)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tab.write_csv(p1, meta={"hash": "x"})
    tab.write_csv(p2, meta={"hash": "x"})
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()
    assert "n,k,re,im,abs2" in header
    assert "# engine: nufft-gauss oversampling=2 half_width=14" in header


def test_table_index_errors(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 8), 2, 256)
    with pytest.raises(TableError):
        tab.entry(9, 0)
    with pytest.raises(TableError):
        tab.entry(1, 5)


# -- composition-matrix rows ---------------------------------------------------


def test_c_table_shift_symbol():
    phi = TrigSymbol.trig_polynomial(1, {(1,): 1.0})
    slab = compute_c_table(phi, (0, 5), (0, 8), 64)
    for n in range(0, 6):
        for beta in range(0, 9):
            expected = 1.0 if beta == n else 0.0
            assert abs(slab.entry(n, beta) - expected) <= 1e-13


def test_c_table_blaschke_values(blaschke_half):
    slab = compute_c_table(blaschke_half, (1, 4), (0, 16), 512)
    assert slab.entry(1, 0) == pytest.approx(0.5, abs=1e-12)
    assert slab.entry(1, 1) == pytest.approx(0.75, abs=1e-12)
    assert slab.entry(1, 2) == pytest.approx(-0.375, abs=1e-12)


def test_c_table_row_parseval_inner(blaschke_half):
    slab = compute_c_table(blaschke_half, (1, 8), (0, 200), 512)
    for n in range(1, 9):
        assert slab.row_power(n) == pytest.approx(1.0, abs=1e-9)


def test_b_and_c_agree_for_inner(blaschke_half):
    tab = make_table(blaschke_half, (1,), (1, 16), 3, 512)
    slab = compute_c_table(blaschke_half, (1, 16), (-4, 20), 512)
    for n in range(1, 17):
        for k in tab.k_values:
            assert abs(tab.entry(n, k) - slab.entry(n, n - k)) <= 1e-9
