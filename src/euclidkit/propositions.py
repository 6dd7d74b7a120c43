"""Classical consequences of the gcd machinery: coprimality by subtraction,
the prime divisor lemma, extending any finite prime list, and perfect numbers
with their Mersenne structure."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError,
    HypothesisFailedError,
    ResourceLimitError,
    _at_least,
    _integer,
    _shown,
)
from .euclid import gcd_subtractive
from .integers import DEFAULT_SIEVE_LIMIT, lucas_lehmer, sigma, smallest_prime_factor


class LemmaWitness(Enum):
    """Which factor of a product a prime divisor must divide."""

    DIVIDES_A = "DividesA"
    DIVIDES_B = "DividesB"
    NEITHER = "Neither"


@dataclass(frozen=True)
class EuclidExtension:
    """Certificate that new_prime divides e_value = 1 + product(input_primes)
    and lies outside the input list."""

    input_primes: tuple[int, ...]
    e_value: int
    new_prime: int


@dataclass(frozen=True)
class PerfectCertificate:
    """Even perfect number 2**(p-1) * (2**p - 1) with its verified divisor sum."""

    p: int
    mersenne: int
    value: int
    sigma_value: int


def coprime_by_prop1(a: int, b: int, *, step_budget: int | None = None) -> bool:
    """Coprimality by the subtraction chain: true iff it bottoms out at 1.

    Requires distinct inputs unless both are 1; equal inputs above 1 measure
    each other and the chain never alternates.
    """
    if _integer(a, "a") == _integer(b, "b"):
        if a == 1:
            return True
        raise DomainError(
            "coprime_by_prop1 needs distinct inputs unless both are 1,"
            f" got ({_shown(a)}, {_shown(b)})"
        )
    g, _ = gcd_subtractive(a, b, step_budget=step_budget)
    return g == 1


def euclid_lemma_witness(p: int, a: int, b: int) -> LemmaWitness:
    """For prime p, report which factor of a*b it divides (preferring a)."""
    _integer(p, "p")
    _integer(a, "a")
    _integer(b, "b")
    if p < 2 or smallest_prime_factor(p) != p:
        raise DomainError(f"euclid_lemma_witness needs a prime p, got {_shown(p)}")
    if a < 1 or b < 1:
        raise DomainError(f"euclid_lemma_witness needs a, b >= 1, got ({_shown(a)}, {_shown(b)})")
    if (a * b) % p != 0:
        return LemmaWitness.NEITHER
    if a % p == 0:
        return LemmaWitness.DIVIDES_A
    assert b % p == 0  # a prime dividing a product divides one factor
    return LemmaWitness.DIVIDES_B


def euclid_prime_extension(primes, *, step_budget: int | None = None) -> EuclidExtension:
    """From distinct primes, produce a prime outside the list.

    E = 1 + product leaves remainder 1 on division by every input, so its
    smallest prime factor is new. The empty list yields E = 2.
    """
    plist = sorted(_integer(p, "primes[i]") for p in primes)
    for p in plist:
        if p < 2 or smallest_prime_factor(p) != p:
            raise DomainError(f"euclid_prime_extension needs primes, got {_shown(p)}")
    if len(set(plist)) != len(plist):
        raise DomainError("euclid_prime_extension needs distinct primes")
    e = 1
    for p in plist:
        e *= p
    e += 1
    new_prime = smallest_prime_factor(e, step_budget=step_budget)
    assert new_prime not in set(plist)  # it would divide both e and e - 1
    return EuclidExtension(tuple(plist), e, new_prime)


def perfect_from_mersenne(p: int, *, step_budget: int | None = None) -> PerfectCertificate:
    """Build the even perfect number for Mersenne exponent p and verify its
    divisor sum by the independent sigma computation."""
    if _integer(p, "p") < 2 or smallest_prime_factor(p) != p:
        raise DomainError(f"perfect_from_mersenne needs a prime exponent, got {_shown(p)}")
    if not lucas_lehmer(p):
        raise HypothesisFailedError(f"2**{p} - 1 is composite; no perfect number here")
    mersenne = (1 << p) - 1
    value = (1 << (p - 1)) * mersenne
    sigma_value = sigma(value, step_budget=step_budget)
    if sigma_value != 2 * value:
        raise HypothesisFailedError(
            f"sigma({value}) = {sigma_value} != {2 * value}"
        )  # unreachable: contradicts the construction
    return PerfectCertificate(p, mersenne, value, sigma_value)


def classify_perfect(n: int, *, step_budget: int | None = None) -> int | None:
    """Mersenne exponent p if n is perfect (sigma(n) = 2n), else None.

    Every even perfect number must factor as 2**(p-1) * (2**p - 1) with the
    odd part prime; that shape is asserted and checked, and an odd perfect
    number (never seen) would be reported loudly rather than classified.
    """
    _at_least(n, "n", 1, "classify_perfect")
    if sigma(n, step_budget=step_budget) != 2 * n:
        return None
    if n % 2:
        raise HypothesisFailedError(f"odd perfect number found: {n}")
    p = 1
    m = n
    while m % 2 == 0:
        m //= 2
        p += 1
    if m != (1 << p) - 1 or smallest_prime_factor(m) != m:
        raise HypothesisFailedError(
            f"even perfect {n} does not have the 2**(p-1)*(2**p-1) shape"
        )
    return p


def _sigma_sieve(limit: int) -> list[int]:
    """Every n <= limit whose divisor sum is 2n, via the divisor-pair sieve.

    numpy is imported here rather than with the module, so that only the scan
    pays for loading it.
    """
    import numpy as np

    sig = np.zeros(limit + 1, dtype=np.int64)
    d = 1
    while d * d <= limit:
        cofactors = np.arange(d, limit // d + 1, dtype=np.int64)
        sig[d * d :: d] += d  # the small divisor of each pair
        sig[d * d :: d] += cofactors  # its cofactor
        sig[d * d] -= d  # square: d counted twice
        d += 1
    return np.flatnonzero(sig == 2 * np.arange(limit + 1, dtype=np.int64)).tolist()


def perfect_scan(limit: int, *, sieve_budget: int | None = None) -> list[tuple[int, int]]:
    """All (n, p) with n <= limit perfect, by a batched divisor-sum sieve.

    Every sieve hit is re-validated with classify_perfect, which recomputes
    sigma by trial division, so the fast path cannot smuggle in a wrong hit.
    A limit above sieve_budget is refused before anything is allocated.
    """
    _at_least(limit, "limit", 1, "perfect_scan")
    budget = DEFAULT_SIEVE_LIMIT if sieve_budget is None else sieve_budget
    if limit > budget:
        raise ResourceLimitError(f"perfect_scan({_shown(limit)}): sieve limit is {budget}")
    out: list[tuple[int, int]] = []
    for n in _sigma_sieve(limit):
        if n == 0:
            continue
        p = classify_perfect(n)
        if p is None:
            raise RuntimeError(f"sieve and classifier disagree at n = {n}")
        out.append((n, p))
    return out
