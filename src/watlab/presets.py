"""Named run configurations covering all built-in symbol families and the
degenerate cases: an inner constant, one- and two-parameter Blaschke
products, the two-torus symbol whose unit-modulus set is a null slice, and
the outer symbol that attains equality in the geometric-mean inequality."""

from __future__ import annotations

import copy

_D1_CHECKS = [
    {"id": "weighted_series", "N": [0, 10], "k": "window"},
    {"id": "mean_ii", "M": 1, "p": [10, 100], "k": "window"},
    {"id": "mean_iii", "q": 1, "M": 1, "p": [100], "k": [0]},
    {"id": "mean_iv", "q": 1, "M": 1, "p": [10, 100], "k": "window"},
    {"id": "szego", "grid": 16384},
    {"id": "identity", "n": [1, 2, 3, 5], "k": [-1, 0, 1], "grid": 256},
    {"id": "log_integral", "r": [0.5, 0.9], "grid": 128},
    {"id": "abel", "N": 0, "k": 0, "r": 0.9, "n_trunc": 200, "grid": 1024},
]


def _d1(symbol: dict) -> dict:
    """A d=1 run: S the negative half-line, nu = 1, n = 1..256, every check."""
    return {
        "schema": 1,
        "symbol": symbol,
        "halfspace": {"axis_order": [0], "axis_sign": [-1]},
        "nu": [1],
        "grid": [4096],
        "n_min": 1,
        "n_max": 256,
        "k_window": 4,
        "e_tol": 1e-9,
        "checks": _D1_CHECKS,
    }


PRESETS: dict[str, dict] = {
    "constant": _d1({"dimension": 1, "family": "constant", "params": {"value": [0.0, 1.0]}}),
    "blaschke-half": _d1(
        {"dimension": 1, "family": "blaschke", "params": {"zeros": [[0.5, 0.0]]}}
    ),
    "blaschke-two": _d1(
        {"dimension": 1, "family": "blaschke", "params": {"zeros": [[0.5, 0.0], [-0.3, 0.0]]}}
    ),
    "szego-equality": _d1({
        "dimension": 1,
        "spectrum": [
            {"index": [0], "re": 0.5, "im": 0.0},
            {"index": [1], "re": 0.5, "im": 0.0},
        ],
    }),
    "torus2-degenerate": {
        "schema": 1,
        "symbol": {
            "dimension": 2,
            "spectrum": [
                {"index": [0, 0], "re": 0.5, "im": 0.0},
                {"index": [1, 1], "re": 0.5, "im": 0.0},
            ],
        },
        "halfspace": {"axis_order": [0, 1], "axis_sign": [-1, -1]},
        "nu": [1, 1],
        "grid": [256, 256],
        "n_min": 1,
        "n_max": 64,
        "k_window": 2,
        "e_tol": 1e-9,
        "checks": [
            {"id": "weighted_series", "N": [0, 10], "k": "window"},
            {"id": "mean_ii", "M": 1, "p": [10], "k": "window"},
            {"id": "szego", "grid": [256, 256]},
            {"id": "identity", "n": [1, 2, 3], "k": [-1, 0, 1], "grid": [256, 256]},
            {"id": "log_integral", "r": [0.5, 0.9], "grid": [32, 32]},
        ],
    },
}

PRESET_NAMES = tuple(sorted(PRESETS))


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(name)
    return copy.deepcopy(PRESETS[name])
