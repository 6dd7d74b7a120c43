"""Continued fractions from the division chain, the partial-quotient sum
statistic, and the subtractive map as a dynamical system with unimodular step
matrices. The chain (euclid._division_chain) checks the operands it is given."""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError, _at_least, _budget, _integer, _items, _shown
from .errors import _within
from .euclid import DEFAULT_STEP_BUDGET, _division_chain

DEFAULT_SCAN_BUDGET = 10**6


class ContinuedFraction(NamedTuple):
    """Regular continued fraction [q1; q2, ...]: q1 >= 0, later terms >= 1."""

    quotients: tuple[int, ...]


class QuotientSumStat(NamedTuple):
    """Total of all partial quotients over denominators 1..a, with the
    6/pi^2 * a * ln(a)^2 prediction."""

    a: int
    total: int
    predicted: float
    ratio: float


class UnimodularMatrix(NamedTuple):
    """2x2 integer matrix; products of the step matrices keep determinant 1."""

    m11: int
    m12: int
    m21: int
    m22: int

    @property
    def determinant(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return (self.m11 * x + self.m12 * y, self.m21 * x + self.m22 * y)


IDENTITY = UnimodularMatrix(1, 0, 0, 1)
TOP_MINUS_BOTTOM = UnimodularMatrix(1, -1, 0, 1)  # applied when x >= y
BOTTOM_MINUS_TOP = UnimodularMatrix(1, 0, -1, 1)  # applied when x < y


class DynamicsRun(NamedTuple):
    """One orbit of the subtractive map down to a zero coordinate."""

    start: tuple[int, int]
    step_count: int
    terminal: tuple[int, int]
    product: UnimodularMatrix


def cf_expand(a: int, b: int) -> ContinuedFraction:
    """Partial quotients of a/b, read straight off the division chain."""
    return ContinuedFraction(tuple(_division_chain(a, b)[0]))


def _validate_quotients(cf) -> tuple[int, ...]:
    if isinstance(cf, ContinuedFraction):
        cf = cf.quotients
    quotients = _items(cf, "cf_value")
    if not quotients:
        raise DomainError("a continued fraction needs at least one quotient")
    if set(map(type, quotients)) != {int}:
        for q in quotients:
            _integer(q, "quotients[i]")
    if quotients[0] < 0:
        raise DomainError(f"the leading quotient must be >= 0, got {_shown(quotients[0])}")
    if min(quotients[1:], default=1) < 1:
        q = next(q for q in quotients[1:] if q < 1)
        raise DomainError(f"quotients after the first must be >= 1, got {_shown(q)}")
    return quotients


def cf_value(cf) -> tuple[int, int]:
    """Reduced fraction (num, den) whose continued fraction is cf.

    Folded back to front: (num, den) <- (q*num + den, num). Consecutive
    convergents are coprime, so no reduction step is needed.
    """
    quotients = _validate_quotients(cf)
    num, den = quotients[-1], 1
    for q in reversed(quotients[:-1]):
        num, den = q * num + den, num
    return num, den


def yao_knuth_stat(a: int, *, scan_budget: int | None = None) -> QuotientSumStat:
    """Sum the partial quotients of a/b over every b in 1..a.

    The pairs are taken as given, not reduced first. The prediction uses the
    natural logarithm.
    """
    _at_least(a, "a", 2, "yao_knuth_stat")
    _within(a, scan_budget, DEFAULT_SCAN_BUDGET, "yao_knuth_stat", "scan budget")
    total = 0
    for b in range(1, a + 1):
        x, y = a, b
        while y:
            total += x // y
            x, y = y, x % y
    predicted = (6.0 / math.pi**2) * a * math.log(a) ** 2
    return QuotientSumStat(a, total, predicted, total / predicted)


def average_cf_length(a: int, *, scan_budget: int | None = None) -> float:
    """Mean number of division steps for a/b over b = 1..a (report-only)."""
    _at_least(a, "a", 2, "average_cf_length")
    _within(a, scan_budget, DEFAULT_SCAN_BUDGET, "average_cf_length", "scan budget")
    steps = 0
    for b in range(1, a + 1):
        x, y = a, b
        while y:
            steps += 1
            x, y = y, x % y
    return steps / a


def dynamical_run(x: int, y: int, *, step_budget: int | None = None) -> DynamicsRun:
    """Iterate (x, y) -> (x - y, y) if x >= y else (x, y - x) until a
    coordinate is zero, accumulating the product of the step matrices.

    Ties take the first branch. The terminal pair is (0, d) or (d, 0) with
    d = gcd, and product applied to the start gives the terminal.

    The orbit follows the division chain of the pair, one quotient run at a
    time: q steps on one coordinate are one left-multiplication by
    [[1, -q], [0, 1]] or [[1, 0], [-q, 1]], so the orbit takes sum(q) steps.
    """
    _at_least(x, "x", 0, "dynamical_run")
    _at_least(y, "y", 0, "dynamical_run")
    if x == 0 and y == 0:
        raise DomainError("dynamical_run needs a nonzero coordinate")
    budget = _budget(step_budget, DEFAULT_STEP_BUDGET, "dynamical_run")
    if not (x and y):
        return DynamicsRun((x, y), 0, (x, y), IDENTITY)
    quotients, pairs = _division_chain(x, y)
    steps = sum(quotients)
    if steps > budget:
        raise ResourceLimitError(
            f"dynamical_run({_shown(x)}, {_shown(y)}): exceeded {budget} steps"
        )
    p11, p12, p21, p22 = 1, 0, 0, 1
    top = True  # the chain of x/y starts on x, with q = 0 if x < y
    for q, r in zip(quotients, islice(pairs, 2, None)):
        if top:
            p11 -= q * p21  # left-multiply by TOP_MINUS_BOTTOM ** q
            p12 -= q * p22
        else:
            # (y - 1) // x steps on y: a run that ends in the tie (d, d)
            # stops one short, and the first branch takes the last step
            jump = q if r else q - 1
            p21 -= jump * p11  # left-multiply by BOTTOM_MINUS_TOP ** jump
            p22 -= jump * p12
            if not r:
                p11 -= p21  # then by TOP_MINUS_BOTTOM
                p12 -= p22
        top = not top
    product = UnimodularMatrix(p11, p12, p21, p22)
    return DynamicsRun((x, y), steps, (0, pairs[-2]), product)
