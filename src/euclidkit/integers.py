"""Exact natural-number arithmetic: primes, factorization, divisor sums.

Everything runs on Python's unbounded ints. Rationals are fractions.Fraction,
which already keeps values reduced with a positive denominator.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, ResourceLimitError, _at_least, _integer, _shown

DEFAULT_SIEVE_LIMIT = 10**7
DEFAULT_FACTOR_BUDGET = 10**7


def smallest_prime_factor(n: int, *, step_budget: int | None = None) -> int:
    """Least prime dividing n >= 2; n is prime exactly when this returns n."""
    _at_least(n, "n", 2, "smallest_prime_factor")
    if n % 2 == 0:
        return 2
    budget = DEFAULT_FACTOR_BUDGET if step_budget is None else step_budget
    steps = 0
    d = 3
    while d * d <= n:
        steps += 1
        if steps > budget:
            raise ResourceLimitError(
                f"smallest_prime_factor({_shown(n)}): exceeded {budget} trial divisions"
            )
        if n % d == 0:
            return d
        d += 2
    return n


def primes_up_to(limit: int, *, sieve_budget: int | None = None) -> list[int]:
    """All primes <= limit, ascending, by sieve of Eratosthenes."""
    _at_least(limit, "limit", 0, "primes_up_to")
    budget = DEFAULT_SIEVE_LIMIT if sieve_budget is None else sieve_budget
    if limit > budget:
        raise ResourceLimitError(f"primes_up_to({_shown(limit)}): sieve limit is {budget}")
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [n for n in range(2, limit + 1) if flags[n]]


def _window_has_prime(lo: int, hi: int, base_primes: list[int]) -> bool:
    """Whether the window lo..hi holds a prime, for isqrt(hi) < lo <= hi and
    base_primes listing every prime up to isqrt(hi) in ascending order (any
    beyond are ignored). Each base prime's multiples are cleared from a
    bytearray of the window by one slice assignment."""
    size = hi - lo + 1
    flags = bytearray(b"\x01") * size
    zeros = bytearray(size)
    for p in base_primes[: bisect_right(base_primes, isqrt(hi))]:
        first = -lo % p  # offset of the window's first multiple of p
        flags[first::p] = zeros[first::p]
    return 1 in flags


@dataclass(frozen=True)
class Factorization:
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
    budget = DEFAULT_FACTOR_BUDGET if step_budget is None else step_budget
    factors: list[tuple[int, int]] = []
    rest = n
    exponent = 0
    while rest % 2 == 0:
        rest //= 2
        exponent += 1
    if exponent:
        factors.append((2, exponent))
    d = 3
    steps = 0
    while d * d <= rest:
        steps += 1
        if steps > budget:
            raise ResourceLimitError(f"factorize({_shown(n)}): exceeded {budget} trial divisions")
        if rest % d == 0:
            exponent = 0
            while rest % d == 0:
                rest //= d
                exponent += 1
            factors.append((d, exponent))
        d += 2
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(tuple(factors))


def sigma(n: int, *, step_budget: int | None = None) -> int:
    """Sum of every positive divisor of n, n itself included."""
    _at_least(n, "n", 1, "sigma")
    total = 1
    for prime, exponent in factorize(n, step_budget=step_budget).factors:
        total *= (prime ** (exponent + 1) - 1) // (prime - 1)
    return total


def lucas_lehmer(p: int, *, step_budget: int | None = None) -> bool:
    """Whether 2**p - 1 is prime, for a prime exponent p."""
    if _integer(p, "p") < 2 or smallest_prime_factor(p, step_budget=step_budget) != p:
        raise DomainError(f"lucas_lehmer needs a prime exponent, got {_shown(p)}")
    if p == 2:
        return True
    modulus = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % modulus
    return s == 0


def rational_str(value: Fraction) -> str:
    """Render a rational as "num/den" with the denominator always explicit."""
    return f"{value.numerator}/{value.denominator}"
