"""Dedekind sums in exact rational arithmetic, and the reciprocity identity
as a residual that must vanish, for one pair or for every coprime pair up to
a limit."""

from __future__ import annotations

from math import gcd as _gcd
from typing import TYPE_CHECKING

from .errors import DomainError, _at_least, _integer, _shown, _within

# Each function that builds a Fraction imports fractions (which imports
# decimal) itself, so a scan that builds none loads neither.
if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_SCAN_LIMIT = 1000  # reciprocity_scan's largest modulus by default: about 5 s


def sawtooth(x) -> Fraction:
    """((x)): zero at every integer, otherwise x - floor(x) - 1/2.

    Exact: accepts anything Fraction accepts but a bool, and refuses the
    rest as DomainError; floors toward minus infinity.
    """
    from fractions import Fraction

    try:
        if isinstance(x, bool):  # an int, but True is not a number any caller means
            raise TypeError
        x = Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"sawtooth needs a rational, got {type(x).__name__}") from None
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
    from fractions import Fraction

    _integer(h, "h")
    _at_least(k, "k", 1, "dedekind_sum")
    return Fraction(_terms(h, k), 4 * k * k)


def reciprocity_residual(h: int, k: int) -> Fraction:
    """s(h,k) + s(k,h) - ((h^2 + k^2 + 1)/(12hk) - 1/4); zero for coprime h, k.

    Both sums are taken term by term, not by reciprocity, and the residual
    is one fraction over 12*h*h*k*k (see _residual_numerator).
    """
    from fractions import Fraction

    _at_least(h, "h", 1, "reciprocity_residual")
    _at_least(k, "k", 1, "reciprocity_residual")
    if _gcd(h, k) != 1:
        raise DomainError(
            f"reciprocity_residual needs coprime h, k, got ({_shown(h)}, {_shown(k)})"
        )
    return Fraction(_residual_numerator(h, k, _terms(h, k), _terms(k, h)), 12 * h * h * k * k)


def _residual_numerator(h: int, k: int, t1: int, t2: int) -> int:
    """The reciprocity residual of coprime h, k times 12*h*h*k*k, from
    T1 = 4k^2 s(h,k) and T2 = 4h^2 s(k,h):
    3h^2 T1 + 3k^2 T2 - hk(h^2 + k^2 + 1) + 3h^2 k^2."""
    hh, kk = h * h, k * k
    return 3 * hh * t1 + 3 * kk * t2 - h * k * (hh + kk + 1) + 3 * hh * kk


def _row(k: int) -> list[int | None]:
    """T(h, k) = 4*k*k * s(h, k) at index h for h = 0..k-1, None where
    gcd(h, k) > 1 (T(0, 1) = 0: the empty sum).

    Straight from the definition, as _terms sums it, with a*h mod k stepped
    by addition. Each fold below re-indexes that one sum; none is
    reciprocity. The sawtooth is odd, so a and k - a give the same term and
    the sum over a < k/2 is doubled; h and k - h give opposite terms, so
    T(k - h, k) = -T(h, k); and with g*h = 1 mod k, the term of a for g is
    the term of a*g for h, and a -> a*g permutes the nonzero residues, so
    T(g, k) = T(h, k). One sum fills its whole orbit {h, k - h, g, k - g}.
    """
    row: list[int | None] = [None] * k
    if k == 1:
        row[0] = 0
    half = (k - 1) // 2
    for h in range(1, k // 2 + 1):
        if row[h] is not None or _gcd(h, k) != 1:
            continue
        total = 0
        ah = 0
        for a in range(1, half + 1):
            ah += h
            if ah >= k:
                ah -= k
            total += (2 * a - k) * (2 * ah - k)
        g = pow(h, -1, k)
        row[h] = row[g] = 2 * total
        row[k - h] = row[k - g] = -2 * total
    return row


def reciprocity_scan(
    limit: int, *, scan_budget: int | None = None
) -> tuple[int, list[tuple[int, int, Fraction]]]:
    """Check reciprocity on every coprime pair 1 <= h < k <= limit.

    Returns (pairs_checked, [(h, k, residual), ...]) with the nonzero
    residuals, k ascending, then h. One _row per modulus gives T(h, k);
    T(k, h) is read off the row of modulus h as T(k mod h, h), since the
    sawtooth has period 1. Every sum is definitional, folded only by
    re-indexing its terms (see _row), never by reciprocity, so a wrong term
    shows as a nonzero residual. A limit above scan_budget (default
    DEFAULT_SCAN_LIMIT) is refused before any row is built.
    """
    _at_least(limit, "limit", 0, "reciprocity_scan")
    _within(limit, scan_budget, DEFAULT_SCAN_LIMIT, "reciprocity_scan", "limit")
    rows: list[list[int | None]] = [[]]  # rows[k] is _row(k)
    pairs = 0
    nonzero = []
    for k in range(1, limit + 1):
        row = _row(k)
        rows.append(row)
        for h in range(1, k):
            t1 = row[h]
            if t1 is None:
                continue
            pairs += 1
            numerator = _residual_numerator(h, k, t1, rows[h][k % h])
            if numerator:
                from fractions import Fraction

                nonzero.append((h, k, Fraction(numerator, 12 * h * h * k * k)))
    return pairs, nonzero
