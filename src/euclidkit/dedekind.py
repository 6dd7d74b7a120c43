"""Dedekind sums in exact rational arithmetic, and the reciprocity identity
as a residual that must vanish."""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd

from .errors import DomainError, _at_least, _integer, _shown


def sawtooth(x) -> Fraction:
    """((x)): zero at every integer, otherwise x - floor(x) - 1/2.

    Exact: accepts anything Fraction accepts, floors toward minus infinity.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    floor = x.numerator // x.denominator
    return x - floor - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum over a = 1..k of ((a/k)) * ((a*h/k)), exactly.

    Evaluated in integer arithmetic over the common denominator 4*k*k:
    for a not a multiple of k, ((a/k)) = (2a - k) / (2k).
    """
    _integer(h, "h")
    _at_least(k, "k", 1, "dedekind_sum")
    total = 0
    for a in range(1, k):
        ah = (a * h) % k
        if ah == 0:
            continue
        total += (2 * a - k) * (2 * ah - k)
    return Fraction(total, 4 * k * k)


def reciprocity_residual(h: int, k: int) -> Fraction:
    """s(h,k) + s(k,h) - ((h^2 + k^2 + 1)/(12hk) - 1/4); zero for coprime h, k."""
    _integer(h, "h")
    _integer(k, "k")
    if h < 1 or k < 1:
        raise DomainError(f"reciprocity_residual needs h, k >= 1, got ({_shown(h)}, {_shown(k)})")
    if _gcd(h, k) != 1:
        raise DomainError(
            f"reciprocity_residual needs coprime h, k, got ({_shown(h)}, {_shown(k)})"
        )
    lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
    rhs = Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4)
    return lhs - rhs
