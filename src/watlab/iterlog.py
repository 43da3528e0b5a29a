"""Iterated logarithms log_j, the products L_q, and their regular-variation
data a(x; L_q), plus the constants (alpha_q, gamma_q) that make a(x; L_q)
stay below alpha_q on [gamma_q, infinity)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


class DomainError(ValueError):
    pass


def positivity_threshold(j: int) -> float:
    """x must exceed this for log_j x to be defined and positive."""
    if j < 1:
        raise DomainError("iteration depth must be >= 1")
    t = 1.0
    try:
        for _ in range(j - 1):
            t = math.exp(t)
    except OverflowError:
        raise DomainError(
            f"log_{j} is positive only beyond the float range"
        ) from None
    return t


def _logs(j: int, x: float, what: str) -> list[float]:
    """[log_1 x, ..., log_j x].  ``what``, formatted with j, names the
    caller's function in the DomainError for an x at or below the threshold
    of log_j."""
    if x <= positivity_threshold(j):
        raise DomainError(f"{what.format(j)} requires x > {positivity_threshold(j)!r}, got {x!r}")
    logs = [math.log(float(x))]
    for _ in range(j - 1):
        logs.append(math.log(logs[-1]))
    return logs


def log_iter(j: int, x: float) -> float:
    """log composed j times."""
    return _logs(j, x, "log_{}")[-1]


def big_l(q: int, x: float) -> float:
    """L_q(x) = product of log_j x for j = 1..q."""
    return math.prod(_logs(q, x, "L_{}"))


def a_of_lq(q: int, x: float) -> float:
    """a(x; L_q) = x L_q'(x) / L_q(x) in closed form:
    (1/log x)(1 + sum_{j=2..q} 1/log_j x)."""
    logs = _logs(q, x, "a(x; L_{})")
    inner = 1.0
    for w in logs[1:]:
        inner += 1.0 / w
    return inner / logs[0]


@dataclass(frozen=True)
class IteratedLogParams:
    q: int
    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise DomainError("alpha must lie in (0, 1)")
        if self.gamma < 1:
            raise DomainError("gamma must be >= 1")


def sample_ladder(gamma: float) -> list[float]:
    """The 41 points gamma (10^8 / gamma)^(i/40), i = 0..40, on which the
    constants (alpha_q, gamma_q) are checked."""
    return [gamma * (1e8 / gamma) ** (i / 40) for i in range(41)]


def _verify_monotone_decrease(q: int, gamma: float) -> None:
    vals = [a_of_lq(q, x) for x in sample_ladder(gamma)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        if lo >= hi:
            raise DomainError(f"a(x; L_{q}) failed to decrease at sampled points")


@functools.cache
def find_constants(q: int) -> IteratedLogParams:
    """Constants with log_{q+1} x > 0 and 0 < a(x; L_q) < alpha_q on
    [gamma_q, infinity).

    q = 1 returns the classical pair (1/log 3, 3); for q >= 2, gamma_q is the
    smallest integer above the positivity threshold of log_{q+1} with
    a(gamma_q; L_q) < 1, and alpha_q = a(gamma_q; L_q).  The result depends
    on q alone and is cached.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if q == 1:
        params = IteratedLogParams(q=1, alpha=1.0 / math.log(3.0), gamma=3.0)
    else:
        gamma = math.floor(positivity_threshold(q + 1)) + 1
        while a_of_lq(q, gamma) >= 1.0:
            gamma += 1
        params = IteratedLogParams(q=q, alpha=a_of_lq(q, gamma), gamma=float(gamma))
    _verify_monotone_decrease(q, params.gamma)
    return params
