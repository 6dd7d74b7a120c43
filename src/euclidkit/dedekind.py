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


def _terms(h: int, k: int) -> int:
    """4*k*k * s(h, k), term by term: for a not a multiple of k,
    ((a/k)) = (2a - k) / (2k)."""
    total = 0
    for a in range(1, k):
        ah = (a * h) % k
        if ah == 0:
            continue
        total += (2 * a - k) * (2 * ah - k)
    return total


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum over a = 1..k of ((a/k)) * ((a*h/k)), exactly.

    Evaluated in integer arithmetic over the common denominator 4*k*k.
    """
    _integer(h, "h")
    _at_least(k, "k", 1, "dedekind_sum")
    return Fraction(_terms(h, k), 4 * k * k)


def reciprocity_residual(h: int, k: int) -> Fraction:
    """s(h,k) + s(k,h) - ((h^2 + k^2 + 1)/(12hk) - 1/4); zero for coprime h, k.

    Both sums are taken term by term, not by reciprocity, and the residual
    is one fraction over 12*h*h*k*k: with T1 = 4k^2 s(h,k) and
    T2 = 4h^2 s(k,h), its numerator is
    3h^2 T1 + 3k^2 T2 - hk(h^2 + k^2 + 1) + 3h^2 k^2.
    """
    _integer(h, "h")
    _integer(k, "k")
    if h < 1 or k < 1:
        raise DomainError(f"reciprocity_residual needs h, k >= 1, got ({_shown(h)}, {_shown(k)})")
    if _gcd(h, k) != 1:
        raise DomainError(
            f"reciprocity_residual needs coprime h, k, got ({_shown(h)}, {_shown(k)})"
        )
    hh, kk = h * h, k * k
    numerator = 3 * hh * _terms(h, k) + 3 * kk * _terms(k, h) - h * k * (hh + kk + 1) + 3 * hh * kk
    return Fraction(numerator, 12 * hh * kk)
