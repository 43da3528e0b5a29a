import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from watlab import symbols
from watlab.lattice import HalfSpace
from watlab.symbols import (
    ResolutionError,
    SymbolError,
    TrigSymbol,
    fourier_coefficient,
    sup_norm,
    unit_modulus_set,
)

# Taylor expansion of (z + a)/(1 + a z) for a = 1/2:
# a + (1 - a^2) z - a (1 - a^2) z^2 + ...
BLASCHKE_HALF_COEFFS = {0: 0.5, 1: 0.75, 2: -0.375, -1: 0.0}


def test_constant_grid():
    s = TrigSymbol.constant(1.0).evaluate_on_grid(8)
    assert np.allclose(s.samples, 1.0)
    assert s.size == 8


def test_exponential_grid_roots_of_unity():
    f = TrigSymbol.trig_polynomial(1, {(1,): 1.0})
    s = f.evaluate_on_grid(4)
    assert np.allclose(s.samples, [1, 1j, -1, -1j])


def test_blaschke_value_at_zero(blaschke_half):
    s = blaschke_half.evaluate_on_grid(4)
    assert s.samples[0] == pytest.approx(1.0)


def test_nyquist_rejected():
    f = TrigSymbol.trig_polynomial(1, {(3,): 1.0})
    with pytest.raises(ResolutionError):
        f.evaluate_on_grid(4)


def test_non_pow2_rejected():
    with pytest.raises(SymbolError):
        TrigSymbol.constant(1.0).evaluate_on_grid(12)


def test_grid_cell_cap(monkeypatch):
    monkeypatch.setattr(symbols, "MAX_GRID_CELLS", 64)
    f = TrigSymbol.constant(1.0, 2)
    assert f.evaluate_on_grid((8, 8)).size == 64
    with pytest.raises(SymbolError, match="more than 64 cells"):
        f.evaluate_on_grid((16, 8))
    with pytest.raises(SymbolError, match="more than 64 cells"):
        f.evaluate_on_grid((2**40, 2**40))  # refused without overflow


def test_fourier_coefficient_exponential():
    s = TrigSymbol.trig_polynomial(1, {(1,): 1.0}).evaluate_on_grid(16)
    assert fourier_coefficient(s, (1,)) == pytest.approx(1.0, abs=1e-14)
    assert fourier_coefficient(s, (0,)) == pytest.approx(0.0, abs=1e-14)


def test_fourier_coefficient_torus2(torus2_degenerate):
    s = torus2_degenerate.evaluate_on_grid((16, 16))
    assert fourier_coefficient(s, (0, 0)) == pytest.approx(0.5, abs=1e-13)
    assert fourier_coefficient(s, (1, 1)) == pytest.approx(0.5, abs=1e-13)
    assert fourier_coefficient(s, (1, 0)) == pytest.approx(0.0, abs=1e-13)


def test_fourier_coefficient_blaschke(blaschke_half):
    s = blaschke_half.evaluate_on_grid(4096)
    for idx, expected in BLASCHKE_HALF_COEFFS.items():
        assert fourier_coefficient(s, (idx,)) == pytest.approx(expected, abs=1e-12)
    # grid refinement leaves the quadrature unchanged at rounding level
    s2 = blaschke_half.evaluate_on_grid(8192)
    assert abs(
        fourier_coefficient(s, (1,)) - fourier_coefficient(s2, (1,))
    ) < 1e-13


def test_fourier_coefficient_beyond_nyquist():
    s = TrigSymbol.constant(1.0).evaluate_on_grid(8)
    with pytest.raises(ResolutionError):
        fourier_coefficient(s, (4,))


def test_sup_norm_examples(blaschke_half):
    assert sup_norm(TrigSymbol.constant(1j).evaluate_on_grid(16)) == 1.0
    cosine = TrigSymbol.trig_polynomial(1, {(0,): 0.5, (1,): 0.5})
    assert sup_norm(cosine.evaluate_on_grid(64)) == pytest.approx(1.0, abs=1e-12)
    assert sup_norm(blaschke_half.evaluate_on_grid(1024)) == pytest.approx(1.0, abs=1e-12)


def test_vanishing_on_halfspace(neg_halfline, blaschke_half):
    f_plus = TrigSymbol.trig_polynomial(1, {(1,): 1.0})
    f_minus = TrigSymbol.trig_polynomial(1, {(-1,): 1.0})
    assert f_plus.vanishes_on(neg_halfline)
    assert not f_minus.vanishes_on(neg_halfline)
    assert blaschke_half.vanishes_on(neg_halfline)
    assert not blaschke_half.vanishes_on(HalfSpace.standard(1))


def test_vanishing_torus2(torus2_degenerate):
    assert torus2_degenerate.vanishes_on(HalfSpace.negative(2))
    assert not torus2_degenerate.vanishes_on(HalfSpace.standard(2))


def test_unit_modulus_set_inner(blaschke_half):
    E = unit_modulus_set(blaschke_half.evaluate_on_grid(1024), 1e-9)
    assert E.measure == 1.0


def test_unit_modulus_set_degenerate(torus2_degenerate):
    E = unit_modulus_set(torus2_degenerate.evaluate_on_grid((64, 64)), 1e-9)
    assert E.measure <= 1 / 32


def test_unit_modulus_set_empty():
    E = unit_modulus_set(TrigSymbol.constant(0.9).evaluate_on_grid(64), 1e-9)
    assert E.measure == 0.0


def test_unit_modulus_measure_monotone_in_tol():
    s = TrigSymbol.trig_polynomial(1, {(0,): 0.5, (1,): 0.5}).evaluate_on_grid(256)
    measures = [unit_modulus_set(s, tol).measure for tol in (1e-9, 1e-3, 1e-1, 0.5)]
    assert measures == sorted(measures)
    for tol in (0.0, 1.0):  # at 1, zeros of f would enter E
        with pytest.raises(SymbolError, match="tolerance"):
            unit_modulus_set(s, tol)


small_spectra = st.dictionaries(
    st.integers(-4, 4),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
).filter(lambda d: any(abs(c) > 1e-6 for c in d.values()))


@given(small_spectra)
@settings(max_examples=40, deadline=None)
def test_coefficient_roundtrip(coeffs):
    coeffs = {k: c for k, c in coeffs.items() if c != 0}
    if not coeffs:
        return
    scale = 4 * max(abs(c) for c in coeffs.values())
    coeffs = {k: c / scale for k, c in coeffs.items()}
    f = TrigSymbol.trig_polynomial(1, {(k,): c for k, c in coeffs.items()})
    s = f.evaluate_on_grid(64)
    for k in range(-8, 9):
        got = fourier_coefficient(s, (k,))
        want = coeffs.get(k, 0j)
        assert abs(got - want) <= 1e-12


@given(small_spectra)
@settings(max_examples=40, deadline=None)
def test_grid_parseval(coeffs):
    coeffs = {k: c for k, c in coeffs.items() if c != 0}
    if not coeffs:
        return
    scale = 4 * max(abs(c) for c in coeffs.values())
    coeffs = {k: c / scale for k, c in coeffs.items()}
    f = TrigSymbol.trig_polynomial(1, {(k,): c for k, c in coeffs.items()})
    s = f.evaluate_on_grid(64)
    grid_power = np.mean(np.abs(s.samples) ** 2)
    spectral_power = math.fsum(abs(c) ** 2 for c in coeffs.values())
    assert abs(grid_power - spectral_power) <= 1e-10


def test_blaschke_param_validation():
    with pytest.raises(SymbolError):
        TrigSymbol.blaschke([1.0])
    with pytest.raises(SymbolError):
        TrigSymbol.constant(1.5)
