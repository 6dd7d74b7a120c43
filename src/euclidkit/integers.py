"""Exact natural-number arithmetic: primes, factorization, divisor sums.

Everything runs on Python's unbounded ints.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress
from math import isqrt
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError, _at_least, _budget, _integer, _shown, _within

DEFAULT_SIEVE_LIMIT = 10**7
DEFAULT_FACTOR_BUDGET = 10**7


def smallest_prime_factor(n: int, *, step_budget: int | None = None) -> int:
    """Least prime dividing n >= 2; n is prime exactly when this returns n."""
    _at_least(n, "n", 2, "smallest_prime_factor")
    budget = _budget(step_budget, DEFAULT_FACTOR_BUDGET, "smallest_prime_factor")
    return _trial(n, 2, budget, "smallest_prime_factor", n)


def _trial(n: int, d: int, budget: int, caller: str, whole: int) -> int:
    """Least divisor of n >= 2 that is at least d, for d = 2 or odd and no
    divisor of n in 2..d-1, so a prime: 2 is tried free, then odd d. Trial
    division k tries 2k + 1, and one past 2*budget + 1 is refused as
    caller(whole)'s, the message built only then."""
    if d == 2:
        if n % 2 == 0:
            return 2
        d = 3
    last = 2 * budget + 1
    while d * d <= n:
        if d > last:
            raise ResourceLimitError(
                f"{caller}({_shown(whole)}): exceeded {budget} trial divisions"
            )
        if n % d == 0:
            return d
        d += 2
    return n


def primes_up_to(limit: int, *, sieve_budget: int | None = None) -> list[int]:
    """All primes <= limit, ascending, by sieve of Eratosthenes: those up to
    isqrt(limit) by recursion, then the window above them sieved by them."""
    _at_least(limit, "limit", 0, "primes_up_to")
    budget = _within(limit, sieve_budget, DEFAULT_SIEVE_LIMIT, "primes_up_to", "sieve limit")
    if limit < 2:
        return []
    lo = isqrt(limit) + 1
    base = primes_up_to(lo - 1, sieve_budget=budget)
    return base + list(compress(range(lo, limit + 1), _window_flags(lo, limit, base)))


def _least_primes(lo: int, table: array, primes: list[int]) -> array:
    """table, with table[i] set to the least of primes dividing lo + i
    wherever one does; other entries keep their value. Each prime writes
    itself over its multiples by one slice assignment, largest first, so the
    smallest one is the last to write."""
    for p in reversed(primes):
        first = -lo % p  # offset of the table's first multiple of p
        table[first::p] = array("I", [p]) * len(range(first, len(table), p))
    return table


def _window_flags(lo: int, hi: int, base_primes: list[int]) -> bytearray:
    """flags[i] = 1 exactly when lo + i is prime, for the window lo..hi with
    isqrt(hi) < lo <= hi and base_primes listing every prime up to isqrt(hi)
    in ascending order (any beyond are ignored). Each base prime's multiples
    are cleared by one slice assignment."""
    size = hi - lo + 1
    flags = bytearray(b"\x01") * size
    zeros = bytearray(size)
    for p in base_primes[: bisect_right(base_primes, isqrt(hi))]:
        first = -lo % p  # offset of the window's first multiple of p
        flags[first::p] = zeros[first::p]
    return flags


class Factorization(NamedTuple):
    """Prime factorization as ascending (prime, exponent) pairs; empty for 1."""

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = 1
        for prime, exponent in self.factors:
            out *= prime**exponent
        return out

    def primes(self) -> list[int]:
        return [prime for prime, _ in self.factors]


def factorize(n: int, *, step_budget: int | None = None) -> Factorization:
    """Full trial-division factorization of n >= 1."""
    _at_least(n, "n", 1, "factorize")
    budget = _budget(step_budget, DEFAULT_FACTOR_BUDGET, "factorize")
    factors: list[tuple[int, int]] = []
    rest, d = n, 2
    while rest > 1:
        d = _trial(rest, d, budget, "factorize", n)
        exponent = 0
        while rest % d == 0:
            rest //= d
            exponent += 1
        factors.append((d, exponent))
    return Factorization(tuple(factors))


def sigma(n: int, *, step_budget: int | None = None) -> int:
    """Sum of every positive divisor of n, n itself included."""
    _at_least(n, "n", 1, "sigma")
    total = 1
    for prime, exponent in factorize(n, step_budget=step_budget).factors:
        total *= (prime ** (exponent + 1) - 1) // (prime - 1)
    return total


def lucas_lehmer(p: int, *, step_budget: int | None = None) -> bool:
    """Whether 2**p - 1 is prime, for a prime exponent p. step_budget bounds
    both the trial division of p and the p - 2 squarings."""
    if _integer(p, "p") < 2 or smallest_prime_factor(p, step_budget=step_budget) != p:
        raise DomainError(f"lucas_lehmer needs a prime exponent, got {_shown(p)}")
    if p == 2:
        return True
    budget = _budget(step_budget, DEFAULT_FACTOR_BUDGET, "lucas_lehmer")
    if p - 2 > budget:
        raise ResourceLimitError(f"lucas_lehmer({_shown(p)}): exceeded {budget} squarings")
    modulus = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        # 2**p = 1 mod modulus, so the high bits fold onto the low ones; the
        # shift floors, which also maps s*s - 2 = -2, -1 to their residues
        s = s * s - 2
        s = (s & modulus) + (s >> p)
        if s >= modulus:
            s -= modulus
    return s == 0
