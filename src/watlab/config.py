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


def _convert(name: str, convert, value):
    """``convert(value)``, with a malformed value reported as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {name}: {value!r}") from exc


def _int_tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def parse_symbol(doc: dict) -> TrigSymbol:
    _require(isinstance(doc, dict), "symbol must be an object")
    dim = doc.get("dimension", 1)
    _require(isinstance(dim, int) and dim >= 1, "symbol.dimension must be a positive integer")
    try:
        if "spectrum" in doc:
            coeffs = {}
            for item in doc["spectrum"]:
                idx = tuple(int(v) for v in item["index"])
                coeffs[idx] = complex(item.get("re", 0.0), item.get("im", 0.0))
            return TrigSymbol.trig_polynomial(dim, coeffs)
        family = doc.get("family")
        params = doc.get("params", {})
        if family == "blaschke":
            zeros = [complex(z[0], z[1]) for z in params["zeros"]]
            return TrigSymbol.blaschke(zeros)
        if family == "constant":
            v = params["value"]
            return TrigSymbol.constant(complex(v[0], v[1]), dimension=dim)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SymbolError):
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"malformed symbol spec: {exc}") from exc
    raise ConfigError("symbol needs either a spectrum or a known family")


def parse_halfspace(doc: dict | None, dimension: int) -> HalfSpace:
    if doc is None:
        return HalfSpace.standard(dimension)
    try:
        return HalfSpace(
            dimension=dimension,
            axis_order=tuple(doc.get("axis_order", range(dimension))),
            axis_sign=tuple(doc.get("axis_sign", (1,) * dimension)),
        )
    except (LatticeError, TypeError) as exc:
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
        nu = _convert("nu", _int_tuple, doc["nu"])
        _require(len(nu) == symbol.dimension, "nu dimension mismatch")
        grid = _convert("grid", _int_tuple, doc.get("grid", (4096,) * symbol.dimension))
        _require(len(grid) == symbol.dimension, "grid dimension mismatch")
        n_min = _convert("n_min", int, doc.get("n_min", 1))
        n_max = _convert("n_max", int, doc.get("n_max", 256))
        _require(n_min <= n_max, "n_min must be <= n_max")
        k_window = _convert("k_window", int, doc.get("k_window", 4))
        _require(k_window >= 0, "k_window must be >= 0")
        e_tol = _convert("e_tol", float, doc.get("e_tol", DEFAULT_E_TOL))
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
