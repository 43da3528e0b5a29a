"""Run configuration: a single JSON-compatible document with a versioned
schema, parsed into validated domain objects and hashed canonically so the
manifest can identify a run."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from .lattice import HalfSpace, LatticeError
from .symbols import DEFAULT_E_TOL, SymbolError, TrigSymbol

SCHEMA_VERSION = 1


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


def _checked(name: str, ok, value):
    """``value``, refused as a ConfigError unless ``ok(value)``."""
    _require(ok(value), f"malformed {name}: {value!r}")
    return value


def _complex(name: str, pair) -> complex:
    """A complex number given as [re, im], a list of two JSON numbers."""
    ok = isinstance(pair, list) and len(pair) == 2 and all(map(is_real, pair))
    _require(ok, f"malformed {name}: {pair!r}")
    return complex(*pair)


def parse_symbol(doc: dict) -> TrigSymbol:
    _require(isinstance(doc, dict), "symbol must be an object")
    dim = doc.get("dimension", 1)
    _require(is_int(dim) and dim >= 1, "symbol.dimension must be a positive integer")
    try:
        if "spectrum" in doc:
            coeffs = {}
            for item in doc["spectrum"]:
                idx = tuple(_checked("symbol.spectrum.index", _int_list, item["index"]))
                re_im = [item.get("re", 0.0), item.get("im", 0.0)]
                coeffs[idx] = _complex("symbol.spectrum [re, im]", re_im)
            return TrigSymbol.trig_polynomial(dim, coeffs)
        family = doc.get("family")
        params = doc.get("params", {})
        if family == "blaschke":
            zeros = [_complex("symbol.params.zeros", z) for z in params["zeros"]]
            return TrigSymbol.blaschke(zeros)
        if family == "constant":
            value = _complex("symbol.params.value", params["value"])
            return TrigSymbol.constant(value, dimension=dim)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (SymbolError, ConfigError)):
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"malformed symbol spec: {exc}") from exc
    raise ConfigError("symbol needs either a spectrum or a known family")


def parse_halfspace(doc: dict | None, dimension: int) -> HalfSpace:
    if doc is None:
        return HalfSpace.standard(dimension)
    _require(isinstance(doc, dict), "halfspace must be an object")
    order = _checked("halfspace.axis_order", _int_list, doc.get("axis_order", list(range(dimension))))
    sign = _checked("halfspace.axis_sign", _int_list, doc.get("axis_sign", [1] * dimension))
    try:
        return HalfSpace(dimension=dimension, axis_order=tuple(order), axis_sign=tuple(sign))
    except LatticeError as exc:
        raise ConfigError(f"malformed halfspace spec: {exc}") from exc


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
    checks: list[dict]

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _require(isinstance(doc, dict), "config must be a JSON object")
        schema = doc.get("schema", SCHEMA_VERSION)
        _require(schema == SCHEMA_VERSION, f"unsupported schema version {schema}")
        unknown = set(doc) - {
            "schema", "symbol", "halfspace", "nu", "grid",
            "n_min", "n_max", "k_window", "e_tol", "checks",
        }
        _require(not unknown, f"unknown config fields: {sorted(unknown)}")
        _require("symbol" in doc, "config requires a symbol")
        symbol = parse_symbol(doc["symbol"])
        halfspace = parse_halfspace(doc.get("halfspace"), symbol.dimension)
        _require("nu" in doc, "config requires nu")
        nu = tuple(_checked("nu", _int_list, doc["nu"]))
        _require(len(nu) == symbol.dimension, "nu dimension mismatch")
        grid = tuple(_checked("grid", _int_list, doc.get("grid", [4096] * symbol.dimension)))
        _require(len(grid) == symbol.dimension, "grid dimension mismatch")
        n_min = _checked("n_min", is_int, doc.get("n_min", 1))
        n_max = _checked("n_max", is_int, doc.get("n_max", 256))
        _require(n_min <= n_max, "n_min must be <= n_max")
        k_window = _checked("k_window", is_int, doc.get("k_window", 4))
        _require(k_window >= 0, "k_window must be >= 0")
        e_tol = _checked("e_tol", is_real, doc.get("e_tol", DEFAULT_E_TOL))
        _require(0 < e_tol < 1, "e_tol must lie in (0, 1)")
        checks = doc.get("checks", [])
        _require(isinstance(checks, list), "checks must be a list")
        for c in checks:
            _require(isinstance(c, dict) and "id" in c, "each check needs an id")
        canonical = {
            "schema": SCHEMA_VERSION,
            "symbol": symbol.describe(),
            "halfspace": halfspace.describe(),
            "nu": list(nu),
            "grid": list(grid),
            "n_min": n_min,
            "n_max": n_max,
            "k_window": k_window,
            "e_tol": e_tol,
            "checks": checks,
        }
        return cls(
            raw=canonical,
            symbol=symbol,
            halfspace=halfspace,
            nu=nu,
            grid=grid,
            n_min=n_min,
            n_max=n_max,
            k_window=k_window,
            e_tol=e_tol,
            checks=checks,
        )

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
