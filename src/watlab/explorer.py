"""Exploratory probes of the open decay questions.

Everything here is diagnostic: probes emit data series and fitted slopes,
never pass/fail verdicts, because the underlying questions (convergence of
the L_q-weighted series, existence of the limit of the means) are open.
No slope is fitted to rounding noise, probed |b| all <= coeffs.ENTRY_BOUND_SLACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import ENTRY_BOUND_SLACK, DiagonalTable
from .iterlog import big_l, positivity_threshold


class ProbeError(ValueError):
    pass


@dataclass
class SeriesProbe:
    weight_id: str
    n_values: np.ndarray
    partial_sums: np.ndarray
    loglog_slope: float | None
    notes: dict = field(default_factory=dict)

    def to_summary(self) -> dict:
        return {
            "weight": self.weight_id,
            "n_first": int(self.n_values[0]) if self.n_values.size else None,
            "n_last": int(self.n_values[-1]) if self.n_values.size else None,
            "final_partial_sum": float(self.partial_sums[-1]) if self.partial_sums.size else 0.0,
            "loglog_slope": self.loglog_slope,
            "notes": self.notes,
        }


def _weight_fn(weight: str, q: int | None):
    if weight == "1/n":
        return (lambda n: 1.0 / n), 1, "1/n"
    if weight == "Lq/n":
        if q is None or q < 1:
            raise ProbeError("Lq/n weight needs q >= 1")
        start = math.floor(positivity_threshold(q)) + 1
        return (lambda n: big_l(q, n) / n), start, f"L{q}(n)/n"
    raise ProbeError(f"unknown weight spec {weight!r}")


def tail_series(
    table: DiagonalTable, k: int, weight: str = "1/n", q: int | None = None
) -> SeriesProbe:
    """Partial sums of sum weight(n) |b_{n,n-k}|^2 over the table's n >= 1."""
    fn, start, weight_id = _weight_fn(weight, q)
    abs2 = table.abs2_column(k)
    n_all = table.n_values
    keep = n_all >= max(1, start)
    n_vals = n_all[keep]
    weights = np.array([fn(int(n)) for n in n_vals], dtype=float)
    partials = np.cumsum(weights * abs2[keep])
    slope = None
    pos = partials > 0
    if np.count_nonzero(pos) >= 3 and np.abs(table.column(k)[keep]).max() > ENTRY_BOUND_SLACK:
        lo = np.flatnonzero(pos)[0]
        xs = np.log(n_vals[lo:].astype(float))
        ys = np.log(partials[lo:])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SeriesProbe(
        weight_id=weight_id,
        n_values=n_vals,
        partial_sums=partials,
        loglog_slope=slope,
        notes={"first_summed_n": int(n_vals[0]) if n_vals.size else None},
    )


def decay_fit(table: DiagonalTable, k: int, M: int = 1) -> dict:
    """Least-squares slopes of log(block mean) against log p and against
    log L_2(p) over a dyadic ladder of block lengths."""
    p_values = []
    means = []
    p = 2
    while M + p <= table.n_max:
        means.append(table.block_sum(M, p, k) / (p + 1))
        p_values.append(p)
        p *= 2
    if len(p_values) < 3:
        raise ProbeError("need at least 3 dyadic ladder points")
    p_arr = np.asarray(p_values, dtype=float)
    mean_arr = np.asarray(means)
    probed = table.column(k)[table.row_index(M):table.row_index(M + p_values[-1]) + 1]
    if np.abs(probed).max() <= ENTRY_BOUND_SLACK:
        return {
            "p_values": p_values,
            "means": means,
            "slope_vs_log_p": None,
            "slope_vs_log_L2": None,
            "flag": "zero table: slope undefined",
        }
    pos = mean_arr > 0
    logm = np.log(mean_arr[pos])
    slope_p = float(np.polyfit(np.log(p_arr[pos]), logm, 1)[0])
    l2_ok = pos & (p_arr > positivity_threshold(2))
    slope_l2 = None
    if np.count_nonzero(l2_ok) >= 3:
        xs = np.log([big_l(2, p) for p in p_arr[l2_ok]])
        ys = np.log(mean_arr[l2_ok])
        slope_l2 = float(np.polyfit(xs, ys, 1)[0])
    return {
        "p_values": p_values,
        "means": means,
        "slope_vs_log_p": slope_p,
        "slope_vs_log_L2": slope_l2,
        "flag": None,
    }
