"""Classical consequences of the gcd machinery: coprimality by subtraction,
the prime divisor lemma, extending any finite prime list, and perfect numbers
with their Mersenne structure."""

from __future__ import annotations

from enum import Enum
from math import isqrt, prod
from typing import NamedTuple

from .errors import (
    DomainError,
    HypothesisFailedError,
    ResourceLimitError,
    _at_least,
    _budget,
    _integer,
    _items,
    _shown,
    _within,
)
from .integers import (
    DEFAULT_FACTOR_BUDGET, DEFAULT_SIEVE_LIMIT, lucas_lehmer, sigma, smallest_prime_factor
)

_SEGMENT = 2**18  # odd values per segment of the divisor-sum sieve


class LemmaWitness(Enum):
    """Which factor of a product a prime divisor must divide."""

    DIVIDES_A = "DividesA"
    DIVIDES_B = "DividesB"
    NEITHER = "Neither"


class EuclidExtension(NamedTuple):
    """Certificate that new_prime divides e_value = 1 + product(input_primes)
    and lies outside the input list."""

    input_primes: tuple[int, ...]
    e_value: int
    new_prime: int


class PerfectCertificate(NamedTuple):
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
    if _integer(a, "a") == _integer(b, "b") != 1:
        raise DomainError(
            "coprime_by_prop1 needs distinct inputs unless both are 1,"
            f" got ({_shown(a)}, {_shown(b)})"
        )
    from . import euclid  # only this proposition walks a subtraction chain

    g, _ = euclid.gcd_subtractive(a, b, step_budget=step_budget)
    return g == 1


def euclid_lemma_witness(p: int, a: int, b: int) -> LemmaWitness:
    """For prime p, report which factor of a*b it divides (preferring a)."""
    if _integer(p, "p") < 2 or smallest_prime_factor(p) != p:
        raise DomainError(f"euclid_lemma_witness needs a prime p, got {_shown(p)}")
    _at_least(a, "a", 1, "euclid_lemma_witness")
    _at_least(b, "b", 1, "euclid_lemma_witness")
    if (a * b) % p != 0:
        return LemmaWitness.NEITHER
    if a % p == 0:
        return LemmaWitness.DIVIDES_A
    assert b % p == 0  # a prime dividing a product divides one factor
    return LemmaWitness.DIVIDES_B


def euclid_prime_extension(primes, *, step_budget: int | None = None) -> EuclidExtension:
    """From distinct primes, produce a prime outside the list.

    E = 1 + product leaves remainder 1 on division by every input, so its
    smallest prime factor is new. The empty list yields E = 2. step_budget
    bounds the trial division of each input and of E.
    """
    plist = sorted(_integer(p, "primes[i]") for p in _items(primes, "euclid_prime_extension"))
    for p in plist:
        if p < 2 or smallest_prime_factor(p, step_budget=step_budget) != p:
            raise DomainError(f"euclid_prime_extension needs primes, got {_shown(p)}")
    if len(set(plist)) != len(plist):
        raise DomainError("euclid_prime_extension needs distinct primes")
    e = prod(plist) + 1
    new_prime = smallest_prime_factor(e, step_budget=step_budget)
    assert new_prime not in set(plist)  # it would divide both e and e - 1
    return EuclidExtension(tuple(plist), e, new_prime)


def perfect_from_mersenne(p: int, *, step_budget: int | None = None) -> PerfectCertificate:
    """Build the even perfect number for Mersenne exponent p and verify its
    divisor sum by the independent sigma computation. On the proven prime
    2**p - 1, sigma's trial division takes (isqrt(2**p - 1) - 1) // 2 steps;
    when that exceeds step_budget, sigma's budget error is raised at once."""
    if not lucas_lehmer(p, step_budget=step_budget):
        raise HypothesisFailedError(f"2**{p} - 1 is composite; no perfect number here")
    mersenne = (1 << p) - 1
    value = (1 << (p - 1)) * mersenne
    budget = _budget(step_budget, DEFAULT_FACTOR_BUDGET, "perfect_from_mersenne")
    if (isqrt(mersenne) - 1) // 2 > budget:  # factorize checks only inside its loop
        raise ResourceLimitError(f"factorize({_shown(value)}): exceeded {budget} trial divisions")
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


def _sigma_segments(limit: int):
    """(m, sig) per segment of _SEGMENT odd values covering the odd m <=
    limit, m[j] = m[0] + 2j and sig[j] the divisor sum of m[j]. Every divisor
    of an odd m is odd, so each divisor pair d <= c of d*c, both odd, adds
    d + c; in a segment the multiples d*c, c = c0, c0 + 2, ..., lie d indices
    apart, one strided view, which adds d + c0, d + c0 + 2, ... in one call
    from a shared ramp of base + 2x, base = 2*isqrt(lo). By AM-GM d + c0 >=
    base, and both are even, so the run starts at offset (d + c0 - base) / 2;
    where it would pass the ramp's end (small d in late segments) the view
    adds a prefix of the ramp, then a constant. Both arrays are reused from
    segment to segment (the ramp is re-based to m before it is yielded), so a
    consumer reads them before it asks for the next. Sums are int32 while
    6*limit < 2**31: sigma(n) < 6n for every n below 1.3 * 10**14 (OEIS
    A023199). numpy is imported here rather than with the module, so that only
    the scan pays for loading it."""
    import numpy as np

    dtype = np.int32 if 6 * limit < 2**31 else np.int64
    size = _SEGMENT
    base = 0
    ramp = np.arange(0, 2 * size, 2, dtype=dtype)  # ramp[x] == base + 2x
    sums = np.empty(size, dtype=dtype)
    odd = (limit + 1) // 2  # the odd values 1, 3, ..., up to limit
    for first in range(0, odd, size):
        count = min(size, odd - first)
        lo = 2 * first + 1  # the segment is lo, lo + 2, ..., lo + 2*(count - 1)
        shift = 2 * isqrt(lo) - base
        ramp += shift
        base += shift
        sig = sums[:count]
        sig.fill(0)
        for d in range(1, isqrt(lo + 2 * (count - 1)) + 1, 2):
            c0 = max(d, -(-lo // d)) | 1  # least odd cofactor in the segment
            view = sig[(d * c0 - lo) // 2 :: d]
            off = (d + c0 - base) // 2
            end = off + len(view)
            if end <= size:
                view += ramp[off:end]
            else:
                view += ramp[: len(view)]
                view += d + c0 - base
            if c0 == d:
                sig[(d * d - lo) // 2] -= d  # square: d counted twice
        ramp += lo - base
        base = lo
        yield ramp[:count], sig


def perfect_scan(limit: int, *, sieve_budget: int | None = None) -> list[tuple[int, int]]:
    """All (n, p) with n <= limit perfect, ascending, by a segmented
    divisor-sum sieve over odd values.

    Each n is 2**k * m with m odd, and its divisors are the 2**i * e with
    i <= k and e | m, so sigma(n) = (2**(k+1) - 1) * sigma(m) (Euclid
    IX.35-36). Every n <= limit is decided on the segment of its odd part by
    the excess sigma(n) - 2n, which is sigma(m) - 2m at k = 0 and doubles and
    gains sigma(m) from k to k + 1, in one array reused across segments.
    Every hit is re-validated with classify_perfect, which recomputes sigma
    by trial division, so the fast path cannot smuggle in a wrong hit.
    A limit above sieve_budget is refused before anything is allocated.
    """
    _at_least(limit, "limit", 1, "perfect_scan")
    _within(limit, sieve_budget, DEFAULT_SIEVE_LIMIT, "perfect_scan", "sieve limit")
    import numpy as np

    hits: list[int] = []
    excess = None
    for values, sig in _sigma_segments(limit):
        lo, count = int(values[0]), len(sig)
        if excess is None:
            excess = np.empty_like(sig)  # the first segment is the longest
        ex = excess[:count]
        np.subtract(sig, values, out=ex)
        ex -= values  # sigma(m) - 2m, the excess at k = 0
        k = 0
        while count:
            if not ex[:count].all():  # hits are rare: index only when one is there
                hits += [(lo + 2 * j) << k for j in np.flatnonzero(ex[:count] == 0).tolist()]
            k += 1
            count = min(count, max(0, ((limit >> k) - lo) // 2 + 1))  # 2**k * m <= limit
            ex[:count] *= 2
            ex[:count] += sig[:count]
    out: list[tuple[int, int]] = []
    for n in sorted(hits):
        p = classify_perfect(n)
        if p is None:
            raise RuntimeError(f"sieve and classifier disagree at n = {n}")
        out.append((n, p))
    return out
