"""Run configuration: a single JSON-compatible document with a versioned
schema, parsed into validated domain objects and hashed canonically so the
manifest can identify a run.  It owns the format of the check entries: each
is validated against ``CHECK_PARAMS`` and resolved over its defaults."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

from .coeffs import TableError, check_table, k_values_for_window
from .iterlog import DomainError, positivity_threshold
from .lattice import HalfSpace, LatticeError
from .symbols import (
    DEFAULT_E_TOL, ResolutionError, SymbolError, TrigSymbol, check_resolution, fit_grid, required_grid,
)

SCHEMA_VERSION = 1
# Cells of a log_integral or abel grid.  A pair-grid check's time grows with
# the square of its grid (at 2^14 cells, about 0.7 s for log_integral at two
# r on one x86 thread), so a run refuses a larger grid as its config loads.
MAX_DOUBLE_GRID_POINTS = 2**14


class ConfigError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def is_int(v) -> bool:
    """The config's one integer rule: a JSON integer, not a bool, float or
    string, that numpy can hold (a larger one overflows in index arithmetic)."""
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 < v < 2**63


def is_real(v) -> bool:
    """A JSON number that is not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int_list(v) -> bool:
    return isinstance(v, list) and all(map(is_int, v))


def _fields(name: str, doc, known) -> dict:
    """``doc``, refused unless it is an object whose keys are all in ``known``:
    the config's one unknown-key rule, for the document and the objects in it."""
    _require(isinstance(doc, dict), f"{name} must be an object")
    unknown = set(doc) - set(known)
    _require(not unknown, f"unknown {name} fields: {sorted(unknown)}")
    return doc


def _checked(name: str, ok, value):
    """``value``, refused as a ConfigError unless ``ok(value)``."""
    _require(ok(value), f"malformed {name}: {value!r}")
    return value


def _complex(name: str, pair) -> complex:
    """A complex number given as [re, im], a list of two JSON numbers."""
    ok = isinstance(pair, list) and len(pair) == 2 and all(map(is_real, pair))
    _require(ok, f"malformed {name}: {pair!r}")
    return complex(*pair)


# Symbol family -> its one params field and its symbol from (dimension, the field's JSON).
FAMILIES = {
    "blaschke": ("zeros", lambda dim, zs: TrigSymbol.blaschke(
        [_complex("symbol.params.zeros", z) for z in zs])),
    "constant": ("value", lambda dim, v: TrigSymbol.constant(_complex("symbol.params.value", v), dim)),
}


def parse_symbol(doc: dict) -> TrigSymbol:
    _fields("symbol", doc, ("dimension", "spectrum", "family", "params"))
    _require("spectrum" not in doc or not {"family", "params"} & set(doc),
             "symbol takes a spectrum or a family with its params, not both")
    dim = doc.get("dimension", 1)
    _require(is_int(dim) and dim >= 1, "symbol.dimension must be a positive integer")
    try:
        if "spectrum" in doc:
            coeffs = {}
            for item in doc["spectrum"]:
                _fields("symbol.spectrum term", item, ("index", "re", "im"))
                _require("index" in item, "symbol.spectrum term needs 'index'")
                idx = tuple(_checked("symbol.spectrum.index", _int_list, item["index"]))
                re_im = [item.get("re", 0.0), item.get("im", 0.0)]
                coeffs[idx] = _complex("symbol.spectrum [re, im]", re_im)
            return TrigSymbol.trig_polynomial(dim, coeffs)
        family = doc.get("family")
        _require(isinstance(family, str) and family in FAMILIES,  # a list would not hash
                 f"unknown symbol family {family!r}; known: {', '.join(FAMILIES)}")
        key, build = FAMILIES[family]
        params = _fields("symbol.params", doc.get("params", {}), [key])
        _require(key in params, f"symbol.params needs {key!r}")
        symbol = build(dim, params[key])  # a family may fix its dimension
        _require(symbol.dimension == dim, f"symbol.dimension: a {family} symbol has "
                                          f"dimension {symbol.dimension}, got {dim}")
        return symbol
    except (TypeError, ValueError) as exc:
        if isinstance(exc, (SymbolError, ConfigError)):
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"malformed symbol spec: {exc}") from exc


def parse_halfspace(doc: dict | None, dimension: int) -> HalfSpace:
    if doc is None:
        return HalfSpace.standard(dimension)
    _fields("halfspace", doc, ("axis_order", "axis_sign"))
    order = _checked("halfspace.axis_order", _int_list, doc.get("axis_order", list(range(dimension))))
    sign = _checked("halfspace.axis_sign", _int_list, doc.get("axis_sign", [1] * dimension))
    try:
        return HalfSpace(dimension=dimension, axis_order=tuple(order), axis_sign=tuple(sign))
    except LatticeError as exc:
        raise ConfigError(f"malformed halfspace spec: {exc}") from exc


# Check id -> its list-valued and its single-valued parameters with their
# defaults; a check reports per point of the product of the list-valued ones.
# A "k" of "window" is the run's k window, a szego "grid" of None its grid.
CHECK_PARAMS = {
    "weighted_series": ({"N": [0], "k": "window"}, {}),
    "mean_ii": ({"p": [10], "k": "window"}, {"M": 1}),
    "mean_iii": ({"p": [10], "k": [0]}, {"q": 1, "M": 1}),
    "mean_iv": ({"p": [10], "k": "window"}, {"q": 1, "M": 1}),
    "szego": ({}, {"grid": None}),
    "identity": ({"n": [1], "k": [0]}, {"grid": 256}),
    "log_integral": ({"r": [0.5]}, {"grid": 128}),
    "abel": ({}, {"N": 0, "k": 0, "r": 0.9, "n_trunc": 200, "grid": 1024}),
}

# Whether one value of a check parameter is well formed and in range (for a
# list-valued parameter, one element of its list).  q is checked by check_q.
_PARAM_OK = {
    **dict.fromkeys(("N", "k", "n", "q"), is_int),
    **dict.fromkeys(("p", "M"), lambda v: is_int(v) and v >= 1),
    "n_trunc": lambda v: is_int(v) and v >= 0,
    "r": lambda v: is_real(v) and 0 < v < 1,
    "grid": lambda v: is_int(v) or (isinstance(v, list) and bool(v) and all(map(is_int, v))),
}


def check_q(q) -> None:
    """Refuse a q that has no iterated-log constants: not an integer, below
    1, or with log_{q+1} positive only beyond the float range."""
    _require(is_int(q) and q >= 1, f"q must be an integer >= 1, got {q!r}")
    try:
        positivity_threshold(q + 1)
    except DomainError as exc:
        raise ConfigError(f"q={q}: {exc}") from exc


def _resolution(what: str, grid, dimension: int) -> tuple[int, ...]:
    """check_resolution(grid, dimension), its SymbolError raised as a
    ConfigError that names ``what``."""
    try:
        return check_resolution(grid, dimension)
    except SymbolError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _check_grid(cid: str, c: dict, symbol: TrigSymbol, nu: tuple[int, ...]) -> None:
    """Refuse a check grid with the wrong axes, a log_integral or abel grid of
    more than MAX_DOUBLE_GRID_POINTS cells, a grid (but for szego on d=1) below
    what the symbol and abel's rows need, or identity's table by check_table."""
    res = _resolution(f"check {cid!r}", c["grid"], symbol.dimension)
    cells = math.prod(res)
    _require(cid not in ("log_integral", "abel") or cells <= MAX_DOUBLE_GRID_POINTS,
             f"check {cid!r}: double-grid check needs <= {MAX_DOUBLE_GRID_POINTS} cells, got {cells}")
    if cid == "identity":
        try:
            check_table(symbol, nu, (min(c["n"]), max(c["n"])), c["k"], res)
        except TableError as exc:
            raise ConfigError(f"check {cid!r}: {exc}") from exc
        except ResolutionError as exc:
            raise ResolutionError(f"check {cid!r}: {exc}") from exc
    elif cid != "szego" or symbol.dimension > 1:
        n_abs, k_abs = (abs(c["N"]) + c["n_trunc"], abs(c["k"])) if cid == "abel" else (0, 0)
        fit_grid(res, required_grid(symbol, nu, n_abs, k_abs), f"what check {cid!r} samples")


def _resolve_check(c: dict, symbol: TrigSymbol, nu: tuple, grid: tuple, k_window: int) -> dict:
    """The check entry ``c`` over its defaults, its "k" of "window" the k
    values of the window and its szego "grid" of None the run grid."""
    _require(isinstance(c, dict) and "id" in c, "each check needs an id")
    cid = c["id"]
    _require(isinstance(cid, str) and cid in CHECK_PARAMS,
             f"unknown check id {cid!r}; available: {', '.join(CHECK_PARAMS)}")
    lists, singles = CHECK_PARAMS[cid]
    extra = sorted(set(c) - {"id", *lists, *singles})
    _require(not extra, f"check {cid!r}: unknown parameters {extra}; "
                        f"it takes {', '.join([*lists, *singles])}")
    for name in sorted(set(c) - {"id"}):
        value = c[name]
        if name in lists and name == "k" and value == "window":
            continue
        _require(name not in lists or (isinstance(value, list) and value),
                 f"check {cid!r}: {name} must be a non-empty list, got {value!r}")
        _require(all(map(_PARAM_OK[name], value if name in lists else [value])),
                 f"check {cid!r}: malformed {name}: {value!r}")
    params = {**lists, **singles, **c}
    if params.get("k") == "window":
        params["k"] = k_values_for_window(k_window)
    if params.get("grid") is not None:
        _check_grid(cid, params, symbol, nu)
    if "q" in params:
        check_q(params["q"])
    if "grid" in params and params["grid"] is None:
        params["grid"] = grid
    return params


@dataclass
class RunConfig:
    raw: dict
    symbol: TrigSymbol
    halfspace: HalfSpace
    nu: tuple[int, ...]
    grid: tuple[int, ...]
    n_min: int
    n_max: int
    k_window: int
    e_tol: float
    checks: list[dict]  # resolved entries; raw["checks"] holds them as given

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Validate ``doc`` and resolve its check entries.  Raises
        ConfigError for a malformed document, entry or run grid (one that
        check_resolution refuses), and ResolutionError for a check grid too
        coarse for what the check samples."""
        _require(isinstance(doc, dict), "config must be a JSON object")
        schema = doc.get("schema", SCHEMA_VERSION)
        _require(schema == SCHEMA_VERSION, f"unsupported schema version {schema}")
        _fields("config", doc, ("schema", "symbol", "halfspace", "nu", "grid",
                                "n_min", "n_max", "k_window", "e_tol", "checks"))
        _require("symbol" in doc, "config requires a symbol")
        symbol = parse_symbol(doc["symbol"])
        halfspace = parse_halfspace(doc.get("halfspace"), symbol.dimension)
        _require("nu" in doc, "config requires nu")
        nu = tuple(_checked("nu", _int_list, doc["nu"]))
        _require(len(nu) == symbol.dimension, "nu dimension mismatch")
        grid = _checked("grid", _int_list, doc.get("grid", [4096] * symbol.dimension))
        grid = _resolution("grid", grid, symbol.dimension)
        n_min = _checked("n_min", is_int, doc.get("n_min", 1))
        n_max = _checked("n_max", is_int, doc.get("n_max", 256))
        _require(n_min <= n_max, "n_min must be <= n_max")
        k_window = _checked("k_window", is_int, doc.get("k_window", 4))
        _require(k_window >= 0, "k_window must be >= 0")
        e_tol = _checked("e_tol", is_real, doc.get("e_tol", DEFAULT_E_TOL))
        _require(0 < e_tol < 1, "e_tol must lie in (0, 1)")
        checks = doc.get("checks", [])
        _require(isinstance(checks, list), "checks must be a list")
        resolved = [_resolve_check(c, symbol, nu, grid, k_window) for c in checks]
        # the run fields as parsed; raw holds them too, nu and grid as lists
        run = dict(nu=nu, grid=grid, n_min=n_min, n_max=n_max, k_window=k_window, e_tol=e_tol)
        raw = {**run, "schema": SCHEMA_VERSION, "symbol": symbol.describe(),
               "halfspace": halfspace.describe(), "nu": list(nu), "grid": list(grid), "checks": checks}
        return cls(raw=raw, symbol=symbol, halfspace=halfspace, checks=resolved, **run)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc: Any = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc)
