"""Independent brute-force oracles used to fix expected values in the tests.

Nothing here shares code with the package: gcds come from divisor
enumeration, remainder chains from a plain divmod loop and Bezout
coefficients from walking that chain back, subtractive traces from repeated
subtraction,
orbits of the subtractive map from single steps and their matrix products,
primality from bare trial division, Lucas-Lehmer residues from a plain
remainder loop, divisor sums from scanning every candidate divisor,
Dedekind sums from literal term-by-term rational arithmetic, coprime
witnesses from a gcd matrix or a plain pairwise scan, and window
assignments from exhaustive backtracking.
"""

from __future__ import annotations

import math
from fractions import Fraction


def gcd_by_enumeration(a: int, b: int) -> int:
    """Largest c <= min(a, b) dividing both, found by descending scan."""
    for c in range(min(a, b), 0, -1):
        if a % c == 0 and b % c == 0:
            return c
    raise AssertionError("unreachable for a, b >= 1")


def subtractive_steps_by_loop(a: int, b: int) -> list[tuple[int, int, None, int]]:
    """Steps (larger, smaller, None, larger - smaller) of the subtractive gcd,
    one subtraction at a time, until the sorted pair is equal."""
    hi, lo = (a, b) if a >= b else (b, a)
    steps = []
    while hi != lo:
        diff = hi - lo
        steps.append((hi, lo, None, diff))
        hi, lo = (lo, diff) if lo >= diff else (diff, lo)
    return steps


def remainder_chain_by_divmod(a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Steps (larger, smaller, q, r) with larger = smaller*q + r of the
    remainder chain of a/b, one divmod at a time, until r = 0."""
    steps = []
    while True:
        q, r = divmod(a, b)
        steps.append((a, b, q, r))
        if r == 0:
            return steps
        a, b = b, r


def bezout_by_back_substitution(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b): g = 0*larger + 1*smaller at
    the last step of the remainder chain, each earlier step rewriting the
    pair as smaller*x + (larger - q*smaller)*y = larger*y + smaller*(x - q*y)."""
    steps = remainder_chain_by_divmod(a, b)
    g = steps[-1][1]
    x, y = 0, 1
    for _, _, q, _ in steps[-2::-1]:
        x, y = y, x - q * y
    return g, x, y


def dynamics_by_loop(x: int, y: int) -> tuple[int, tuple[int, int], tuple[int, int, int, int]]:
    """(step count, terminal pair, product m11, m12, m21, m22) of the map
    (x, y) -> (x - y, y) if x >= y else (x, y - x), run one step at a time
    and multiplying each step matrix onto the product from the left."""
    product = (1, 0, 0, 1)
    steps = 0
    while x and y:
        if x >= y:
            x -= y
            step = (1, -1, 0, 1)
        else:
            y -= x
            step = (1, 0, -1, 1)
        s11, s12, s21, s22 = step
        p11, p12, p21, p22 = product
        product = (
            s11 * p11 + s12 * p21,
            s11 * p12 + s12 * p22,
            s21 * p11 + s22 * p21,
            s21 * p12 + s22 * p22,
        )
        steps += 1
    return steps, (x, y), product


def is_prime_trial(n: int) -> bool:
    """Primality by dividing by every integer in 2..n-1."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def lucas_lehmer_by_remainder(p: int) -> bool:
    """Lucas-Lehmer for an odd prime p: s -> s*s - 2 taken mod 2**p - 1 by
    Python's remainder, p - 2 times from s = 4; 2**p - 1 is prime iff 0."""
    modulus = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % modulus
    return s == 0


def sigma_by_enumeration(n: int) -> int:
    """Divisor sum by testing every candidate divisor 1..n."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


def sigma_by_multiples(limit: int) -> list[int]:
    """Divisor sums of 0..limit: every d adds itself to each of its multiples."""
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sums[m] += d
    return sums


def sawtooth_by_fraction(x: Fraction) -> Fraction:
    """((x)): zero at integers, otherwise x - floor(x) - 1/2."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    floor = x.numerator // x.denominator
    return x - floor - Fraction(1, 2)


def dedekind_by_terms(h: int, k: int) -> Fraction:
    """Dedekind sum as a literal term-by-term sum of sawtooth products."""
    total = Fraction(0)
    for a in range(1, k + 1):
        total += sawtooth_by_fraction(Fraction(a, k)) * sawtooth_by_fraction(
            Fraction(a * h, k)
        )
    return total


def cf_value_by_fractions(quotients: list[int]) -> Fraction:
    """Evaluate q1 + 1/(q2 + 1/(...)) with exact rational arithmetic."""
    value = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        value = q + 1 / value
    return value


def quotient_sum_by_divmod(a: int, b: int) -> int:
    """Sum of the partial quotients of a/b, via a plain divmod chain."""
    total = 0
    while b:
        q, r = divmod(a, b)
        total += q
        a, b = b, r
    return total


def quotient_total_by_cf(a: int) -> int:
    """Sum of all partial quotients of a/b over b = 1..a."""
    return sum(quotient_sum_by_divmod(a, b) for b in range(1, a + 1))


def witness_by_pair_matrix(values: list[int]) -> int | None:
    """Least 1-based index coprime to all others, from a full gcd matrix."""
    n = len(values)
    matrix = [[gcd_by_enumeration(values[i], values[j]) for j in range(n)] for i in range(n)]
    for r in range(n):
        if all(matrix[r][j] == 1 for j in range(n) if j != r):
            return r + 1
    return None


def witness_by_pairwise_gcd(values: list[int]) -> int | None:
    """Least 1-based index coprime to all others, testing every pair with
    math.gcd, one element against one other at a time."""
    for r, v in enumerate(values):
        if all(math.gcd(v, u) == 1 for j, u in enumerate(values) if j != r):
            return r + 1
    return None


def prime_divisors_by_trial(n: int) -> list[int]:
    """Ascending distinct prime divisors by bare trial division."""
    out = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            out.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        out.append(rest)
    return out


def assignment_by_backtracking(divisor_sets: list[list[int]]) -> list[int] | None:
    """Exhaustive search for a system of distinct representatives."""
    n = len(divisor_sets)
    chosen: list[int] = []
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        for p in divisor_sets[i]:
            if p not in used:
                used.add(p)
                chosen.append(p)
                if extend(i + 1):
                    return True
                chosen.pop()
                used.remove(p)
        return False

    return chosen[:] if extend(0) else None
