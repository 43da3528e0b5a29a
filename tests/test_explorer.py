import math

import numpy as np
import pytest

from watlab.coeffs import DiagonalTable, compute_b_table
from watlab.explorer import ProbeError, decay_fit, tail_series
from watlab.symbols import unit_modulus_set


def synthetic_table(abs_values, n_min=1):
    """Table whose k=0 column holds the given |b| values."""
    vals = np.asarray(abs_values, dtype=np.complex128).reshape(-1, 1)
    return DiagonalTable(
        nu=(1,),
        n_min=n_min,
        n_max=n_min + vals.shape[0] - 1,
        k_values=(0,),
        values=vals,
        resolution=(64,),
        e_tol=1e-9,
        e_measure=1.0,
        degenerate=False,
    )


def blaschke_table(blaschke_half, n_max=256, grid=1024):
    E = unit_modulus_set(blaschke_half.evaluate_on_grid(grid), 1e-9)
    return compute_b_table(blaschke_half, E, (1,), (1, n_max), 2)


def test_zero_table_probe():
    tab = synthetic_table(np.zeros(32))
    probe = tail_series(tab, 0)
    assert np.all(probe.partial_sums == 0.0)
    assert probe.loglog_slope is None
    fit = decay_fit(tab, 0)
    assert fit["flag"] == "zero table: slope undefined"
    assert fit["slope_vs_log_p"] is None


def test_partial_sums_nondecreasing(blaschke_half):
    tab = blaschke_table(blaschke_half)
    for k in (-1, 0, 1):
        probe = tail_series(tab, k)
        assert np.all(np.diff(probe.partial_sums) >= 0)


def test_synthetic_growth_slope():
    # |b_n|^2 = sqrt(n), so the 1/n-weighted partial sums grow like
    # 2 sqrt(n) and the log-log slope should come out near 1/2.
    n = np.arange(1, 20001)
    tab = synthetic_table(n.astype(float) ** 0.25)
    probe = tail_series(tab, 0)
    expected = 2.0 * np.sqrt(len(n))
    assert probe.partial_sums[-1] == pytest.approx(expected, rel=0.01)
    assert probe.loglog_slope == pytest.approx(0.5, abs=0.025)


def test_tail_bounded_by_constant(blaschke_half):
    tab = blaschke_table(blaschke_half)
    probe = tail_series(tab, 0)
    C = math.log(16.0 / 0.5**4)
    assert probe.partial_sums[-1] <= C


def test_lq_weight_start_index():
    tab = synthetic_table(np.ones(32))
    probe = tail_series(tab, 0, weight="Lq/n", q=2)
    # L_2 needs log log n > 0, so summation starts above e
    assert probe.n_values[0] == 3
    assert probe.weight_id == "L2(n)/n"


def test_weight_validation():
    tab = synthetic_table(np.ones(8))
    with pytest.raises(ProbeError):
        tail_series(tab, 0, weight="exp")
    with pytest.raises(ProbeError):
        tail_series(tab, 0, weight="Lq/n")


def test_decay_fit_blaschke(blaschke_half):
    tab = blaschke_table(blaschke_half)
    fit = decay_fit(tab, 0)
    assert fit["flag"] is None
    assert len(fit["p_values"]) >= 3
    assert fit["slope_vs_log_p"] < 0  # means decay in p
    assert fit["slope_vs_log_L2"] is not None


def test_decay_fit_needs_ladder():
    tab = synthetic_table(np.ones(4))
    with pytest.raises(ProbeError):
        decay_fit(tab, 0)
