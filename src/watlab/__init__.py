"""watlab: diagonal coefficient tables of powers of bounded symbols on the
d-torus, with verified decay bounds and exploratory decay probes."""

__version__ = "0.1.0"

from .coeffs import DiagonalTable, brute_force_b, compute_b_table
from .iterlog import IteratedLogParams, a_of_lq, big_l, find_constants, log_iter
from .lattice import HalfSpace
from .symbols import (
    TrigSymbol,
    UnitModulusSet,
    sup_norm,
    unit_modulus_set,
)

__all__ = [
    "DiagonalTable",
    "HalfSpace",
    "IteratedLogParams",
    "TrigSymbol",
    "UnitModulusSet",
    "a_of_lq",
    "big_l",
    "brute_force_b",
    "compute_b_table",
    "find_constants",
    "log_iter",
    "sup_norm",
    "unit_modulus_set",
]
