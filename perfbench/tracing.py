"""Spans around the calls into each watlab module, recorded from outside.

``Tracer.install`` replaces public functions at the sites where watlab
imports them (for example ``coeffs.csum_rows`` or
``bounds.compute_b_table``) with wrappers that record a span: name, start,
end, parent and a few counts.  Spans stay in memory; ``uninstall`` restores
the originals.  No watlab source file is changed.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from watlab import bounds, cli, coeffs, config, explorer, symbols
from watlab.coeffs import DiagonalTable
from watlab.symbols import TrigSymbol

CHECK_IDS = (
    "weighted_series", "mean_ii", "mean_iii", "mean_iv",
    "szego", "identity", "log_integral", "abel",
)
_CHECK_FUNCS = {
    "weighted_series": "check_weighted_series",
    "mean_ii": "check_mean_bound_ii",
    "mean_iii": "check_mean_bound_iii",
    "mean_iv": "check_mean_bound_iv",
    "szego": "szego_check",
    "identity": "identity_check",
    "log_integral": "log_integral_bound_check",
    "abel": "abel_series_check",
}
_MIB = 2.0**20
_CPLX_BYTES = 16


def _table_attrs(args, kwargs, table):
    E = args[1]
    e_cells = round(E.measure * E.sampling.size)
    rows, k = table.values.shape
    buffer = 0 if table.degenerate else 2 * k * e_cells * _CPLX_BYTES
    return {"rows": rows, "entries": rows * k, "buffer": buffer, "degenerate": table.degenerate}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}  # (self,) path or reports, path


# (owner, attribute, span name, attrs from (args, kwargs, result))
def _sites():
    sites = [
        (cli, "_load_run_config", "cli.load", None),
        (config, "load_config", "cli.load", None),
        (cli, "verify_hypotheses", "cli.gate", None),
        (cli, "write_reports", "cli.write_reports", _file_bytes),
        (cli, "write_manifest", "cli.write_manifest", None),
        (cli, "compute_b_table", "coeffs.table", _table_attrs),
        (bounds, "compute_b_table", "bounds.nested_table", _table_attrs),
        (DiagonalTable, "write_csv", "coeffs.write_csv", _file_bytes),
        (coeffs, "csum_rows", "accum.csum_rows", None),
        (TrigSymbol, "evaluate_on_grid", "symbols.evaluate",
         lambda a, kw, s: {"cells": s.size}),
        (cli, "find_constants", "iterlog.find_constants", None),
        (bounds, "find_constants", "iterlog.find_constants", None),
        (explorer, "tail_series", "explorer.tail_series",
         lambda a, kw, p: {"terms": int(p.n_values.size)}),
        (explorer, "decay_fit", "explorer.decay_fit", None),
    ]
    for owner in (cli, bounds, coeffs):
        sites.append((owner, "unit_modulus_set", "symbols.mask",
                      lambda a, kw, E: {"e_cells": round(E.measure * E.sampling.size)}))
    for owner in (bounds, coeffs, symbols):
        sites.append((owner, "csum", "accum.csum", lambda a, kw, s: {"elems": int(np.size(a[0]))}))
    for cid, func in _CHECK_FUNCS.items():
        sites.append((cli, func, f"bounds.{cid}", None))
    return sites


class Tracer:
    """Span recorder for one pass.  A span is
    ``[name, start, end, parent, attrs]``; ``parent`` indexes ``spans``
    (-1 for the root)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_fn is not None:
                span[4] = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, attrs_fn in _sites():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def traced(self, name, fn, *args):
        """Call ``fn(*args)`` under a span of its own, e.g. a whole pass."""
        return self._wrap(name, fn, None)(*args)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``spans[0]`` is the pass itself.

    ``coeffs.table_s`` and ``bounds.nested_table_s`` include their child
    spans; every other ``_s`` metric is self time (duration minus child
    spans), so the self times and the unattributed rest add up to the pass.
    """
    idx = range(len(spans))
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    children = defaultdict(list)
    for i in idx[1:]:
        p = spans[i][3]
        self_t[p] -= dur[i]
        children[p].append(i)

    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    buffer = 0
    pair_cells = 0
    for i in idx:
        name, attrs = spans[i][0], spans[i][4] or {}
        total[name] += dur[i]
        own[name] += self_t[i]
        calls[name] += 1
        for key in ("rows", "entries", "cells", "e_cells", "elems", "terms"):
            if key in attrs:
                counts[f"{name}.{key}"] += attrs[key]
        if name == "coeffs.table":
            buffer = max(buffer, attrs["buffer"])
        if name in ("coeffs.write_csv", "cli.write_reports"):
            counts[f"{name}.bytes"] += attrs["bytes"]
        if name in ("bounds.log_integral", "bounds.identity", "bounds.abel"):
            pair_cells += _pair_cells(spans, name, children[i])

    rows = counts["coeffs.table.rows"]
    m = {
        "coeffs.table_s": total["coeffs.table"],
        "coeffs.table_self_s": own["coeffs.table"],
        "coeffs.row_us": 1e6 * total["coeffs.table"] / rows if rows else 0.0,
        "coeffs.rows": rows,
        "coeffs.entries": counts["coeffs.table.entries"],
        "accum.csum_rows_s": own["accum.csum_rows"],
        "accum.csum_rows_calls": calls["accum.csum_rows"],
        "coeffs.buffer_mb": buffer / _MIB,
        "coeffs.write_csv_s": own["coeffs.write_csv"],
        "coeffs.csv_bytes": counts["coeffs.write_csv.bytes"],
    }
    for cid in CHECK_IDS:
        m[f"bounds.{cid}_s"] = own[f"bounds.{cid}"]
        m[f"bounds.{cid}_calls"] = calls[f"bounds.{cid}"]
    m.update({
        "bounds.nested_table_s": total["bounds.nested_table"],
        "bounds.pair_cells": pair_cells,
        "symbols.evaluate_s": own["symbols.evaluate"],
        "symbols.evaluate_calls": calls["symbols.evaluate"],
        "symbols.cells": counts["symbols.evaluate.cells"],
        "symbols.mask_s": own["symbols.mask"],
        "symbols.e_cells": counts["symbols.mask.e_cells"],
        "accum.csum_s": own["accum.csum"],
        "accum.csum_calls": calls["accum.csum"],
        "accum.reduced_elems": counts["accum.csum.elems"],
        "iterlog.find_constants_s": own["iterlog.find_constants"],
        "iterlog.find_constants_calls": calls["iterlog.find_constants"],
        "explorer.tail_series_s": own["explorer.tail_series"],
        "explorer.decay_fit_s": own["explorer.decay_fit"],
        "explorer.terms": counts["explorer.tail_series.terms"],
        "cli.load_s": own["cli.load"],
        "cli.gate_s": own["cli.gate"],
        "cli.write_reports_s": own["cli.write_reports"],
        "cli.write_manifest_s": own["cli.write_manifest"],
        "cli.report_bytes": counts["cli.write_reports.bytes"],
        "trace.accounted_frac": 1.0 - self_t[0] / dur[0],
    })
    return m


def _pair_cells(spans, name, kids) -> int:
    """Cells of the |E|x|E| (or grid x grid) outer products one check forms."""
    first = {}
    for c in kids:
        first.setdefault(spans[c][0], spans[c][4] or {})
    if name == "bounds.log_integral":
        return first["symbols.evaluate"]["cells"] ** 2
    if first.get("bounds.nested_table", {}).get("degenerate"):
        return 0
    return first["symbols.mask"]["e_cells"] ** 2


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
