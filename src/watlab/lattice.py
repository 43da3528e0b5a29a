"""Half-spaces of lattice points in Z^d.

A half-space S satisfies: (i) 0 is not in S; (ii) for nonzero xi exactly one
of xi, -xi lies in S; (iii) S is closed under addition.  We realize these
axioms with a signed lexicographic order: a point belongs to S iff its first
nonzero coordinate, scanned in ``axis_order`` with ``axis_sign`` applied, is
positive.  Reflection flips all signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

LatticePoint = tuple[int, ...]


class LatticeError(ValueError):
    pass


def as_point(xi: Sequence[int]) -> LatticePoint:
    return tuple(int(v) for v in xi)


@dataclass(frozen=True)
class HalfSpace:
    dimension: int
    axis_order: tuple[int, ...]
    axis_sign: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise LatticeError("dimension must be >= 1")
        if sorted(self.axis_order) != list(range(self.dimension)):
            raise LatticeError("axis_order must be a permutation of 0..d-1")
        if len(self.axis_sign) != self.dimension or any(
            s not in (-1, 1) for s in self.axis_sign
        ):
            raise LatticeError("axis_sign must be +/-1 per axis")

    @classmethod
    def standard(cls, dimension: int) -> "HalfSpace":
        """Natural order, all signs +1 (the lex-positive half-space)."""
        return cls(dimension, tuple(range(dimension)), (1,) * dimension)

    def contains(self, xi: Sequence[int]) -> bool:
        p = as_point(xi)
        if len(p) != self.dimension:
            raise LatticeError(
                f"point has dimension {len(p)}, half-space has {self.dimension}"
            )
        for axis in self.axis_order:
            v = self.axis_sign[axis] * p[axis]
            if v != 0:
                return v > 0
        return False

    def reflect(self) -> "HalfSpace":
        return HalfSpace(
            self.dimension, self.axis_order, tuple(-s for s in self.axis_sign)
        )

    def describe(self) -> dict:
        return {
            "axis_order": list(self.axis_order),
            "axis_sign": list(self.axis_sign),
        }
