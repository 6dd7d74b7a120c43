"""Coprime-witness sequences, the prime-between-squares equivalence, distinct
prime divisors for composite runs, and witness-free run lengths."""

from __future__ import annotations

from array import array
from itertools import compress, count, islice, repeat
from math import ceil, gcd, isqrt, log, perm, prod
from operator import eq, lt, mod
from typing import NamedTuple

from .errors import DomainError, _at_least, _budget, _integer, _items, _shown, _within
from .integers import (
    DEFAULT_FACTOR_BUDGET,
    DEFAULT_SIEVE_LIMIT,
    _least_primes,
    _window_flags,
    factorize,
    primes_up_to,
    smallest_prime_factor,
)

_BLOCK = 32  # values per block product in _witness_index
_SEGMENT = 1 << 18  # most values one sieve call covers in interval_equivalence_scan
DEFAULT_INTERVAL_LIMIT = 10**4  # interval_equivalence_scan's largest m by default


class WReport(NamedTuple):
    """A strictly increasing sequence and the least index (1-based) of an
    element coprime to all the others, if one exists."""

    sequence: tuple[int, ...]
    witness_index: int | None

    @property
    def witness_value(self) -> int | None:
        if self.witness_index is None:
            return None
        return self.sequence[self.witness_index - 1]


class GrimmAssignment(NamedTuple):
    """Distinct primes for the composite window start+1 .. start+length;
    assignment[i] divides start + 1 + i."""

    start: int
    length: int
    assignment: tuple[int, ...]


def _increasing_naturals(seq) -> tuple[int, ...]:
    """seq as a tuple, checked to be a non-empty, strictly increasing
    sequence of naturals >= 1."""
    values = _items(seq, "w_witness")
    if not values:
        raise DomainError("w_witness needs a non-empty sequence")
    for v in values:
        _integer(v, "values[i]")
    if min(values) < 1:
        _at_least(next(v for v in values if v < 1), "naturals", 1, "w_witness")
    if not all(map(lt, values, islice(values, 1, None))):
        raise DomainError("w_witness needs a strictly increasing sequence")
    return values


def _shares_factor(v: int, others) -> bool:
    """Whether v has a common factor > 1 with any of others; stops at the first."""
    return any(map((1).__lt__, map(gcd, repeat(v), others)))


def _witness_index(values) -> int | None:
    """1-based index of the least element of values, a non-empty, strictly
    increasing sequence of naturals, coprime to every other element, if any.

    v is coprime to each of u1, ..., uk exactly when it is coprime to their
    product. So the values are cut into fixed blocks of _BLOCK, and each
    candidate is tested against its own block and then against the product
    of every other block: multiplication and gcd only. Its own block's
    product is P = v*R, and gcd(v*v, P) = v*gcd(v, R), so v is coprime to
    the rest of its block exactly when gcd(v*v, P) == v. The full blocks of
    a step-1 range are consecutive integers, whose products math.perm takes
    in one map, without building them.
    """
    if isinstance(values, range) and values.step == 1:
        ends = range(values.start + _BLOCK - 1, values.stop, _BLOCK)
        products = list(map(perm, ends, repeat(_BLOCK)))
        tail = values[len(products) * _BLOCK :]
        if tail:
            products.append(perm(tail[-1], len(tail)))
    else:
        products = [prod(values[s : s + _BLOCK]) for s in range(0, len(values), _BLOCK)]
    for k, product in enumerate(products):
        others = products[:k] + products[k + 1 :]
        for i, v in enumerate(values[k * _BLOCK : (k + 1) * _BLOCK]):
            if gcd(v * v, product) == v and not _shares_factor(v, others):
                return k * _BLOCK + i + 1
    return None


def w_witness(seq) -> WReport:
    """Find the least element coprime to every other element (see _witness_index)."""
    values = _increasing_naturals(seq)
    return WReport(values, _witness_index(values))


def _interval_sides(first: int, last: int, base_primes: list[int]) -> list[tuple[int, bool, bool]]:
    """(m, prime side, witness side) for each window m^2+1..m^2+2m,
    m = first..last, with last <= first^2 and base primes up to last: one
    sieve of first^2+1 .. (last+1)^2-1 gives every window's primes."""
    lo = first * first + 1
    flags = _window_flags(lo, (last + 1) ** 2 - 1, base_primes)
    sides = []
    for m in range(first, last + 1):
        start = m * m + 1
        prime_exists = flags.find(1, start - lo, start - lo + 2 * m) >= 0
        sides.append((m, prime_exists, _witness_index(range(start, start + 2 * m)) is not None))
    return sides


def prime_interval_equivalence(m: int, *, sieve_budget: int | None = None) -> tuple[bool, bool]:
    """(prime between m^2 and (m+1)^2 exclusive, window m^2+1..m^2+2m has a
    coprime witness) — computed by two unrelated scans.

    The first boolean comes from a primality sieve of the window, the second
    from block products and gcds only.
    """
    _at_least(m, "m", 1, "prime_interval_equivalence")
    budget = _budget(sieve_budget, DEFAULT_SIEVE_LIMIT, "prime_interval_equivalence")
    # isqrt((m+1)^2 - 1) == m bounds the window's base primes
    _, prime_exists, is_w = _interval_sides(m, m, primes_up_to(m, sieve_budget=budget))[0]
    return prime_exists, is_w


def interval_equivalence_scan(
    limit: int, *, sieve_budget: int | None = None
) -> list[tuple[int, bool, bool]]:
    """(m, *prime_interval_equivalence(m)) for m = 1..limit: base primes up to
    limit sieved once, one sieve call per group of windows (at most _SEGMENT
    values). A limit above sieve_budget (default DEFAULT_INTERVAL_LIMIT) is
    refused before anything is allocated."""
    _at_least(limit, "limit", 0, "interval_equivalence_scan")
    budget = _within(
        limit, sieve_budget, DEFAULT_INTERVAL_LIMIT, "interval_equivalence_scan", "limit"
    )
    base_primes = primes_up_to(limit, sieve_budget=budget)
    verdicts = []
    first = 1
    while first <= limit:
        # the sieve's base primes stay below its window while last <= first^2
        last = max(first, min(limit, first * first, isqrt(first * first + _SEGMENT + 1) - 1))
        verdicts += _interval_sides(first, last, base_primes)
        first = last + 1
    return verdicts


def _augment(
    pos: int, divisors: list[list[int]], owner: dict[int, int], banned: set[int]
) -> bool:
    """One augmenting-path search (Kuhn) from pos: its primes in ascending
    order, each owned one re-placed in turn. Marks every prime it reaches in
    banned, and on success gives pos a prime through owner (prime ->
    position). A module-level function, so a search leaves no reference
    cycle behind."""
    for p in divisors[pos]:
        if p in banned:
            continue
        banned.add(p)
        if p not in owner or _augment(owner[p], divisors, owner, banned):
            owner[p] = pos
            return True
    return False


def _match(divisors: list[list[int]]) -> tuple[tuple[int, ...] | None, list[int]]:
    """Distinct primes, one from each divisors[i], by augmenting-path
    bipartite matching (_augment): (assignment, []), or (None, stuck) if
    there are none. Positions and primes are tried in ascending order, so the
    result is deterministic. A failed search leaves owner as it was and bans
    every prime of each position it reaches, each prime owned by a distinct
    reached position: stuck, the failed position and those owners, draws on
    len(stuck) - 1 primes, Hall's certificate that no choice exists."""
    owner: dict[int, int] = {}  # prime -> position currently using it
    for pos, primes in enumerate(divisors):
        if primes and primes[0] not in owner:  # what _augment would choose first
            owner[primes[0]] = pos
        elif not _augment(pos, divisors, owner, banned := set()):
            return None, [pos, *(owner[p] for p in banned)]
    assignment: list[int] = [0] * len(divisors)
    for p, pos in owner.items():
        assignment[pos] = p
    return tuple(assignment), []


def grimm_assign(m: int, n: int, *, step_budget: int | None = None) -> GrimmAssignment | None:
    """Choose distinct primes p_i | m + i for the all-composite window
    m+1 .. m+n, or None if no such choice exists, by matching the primes
    that trial division finds in each element (see _confirmed_match)."""
    _at_least(m, "m", 0, "grimm_assign")
    _at_least(n, "n", 1, "grimm_assign")
    budget = _budget(step_budget, DEFAULT_FACTOR_BUDGET, "grimm_assign")
    divisors: list[list[int]] = []
    for value in range(m + 1, m + n + 1):
        factorization = factorize(value, step_budget=budget)
        if sum(exponent for _, exponent in factorization.factors) < 2:
            raise DomainError(f"window element {_shown(value)} is not composite")
        divisors.append(factorization.primes())
    assignment = _confirmed_match(divisors, m)
    return None if assignment is None else GrimmAssignment(m, n, assignment)


def composite_runs(limit: int, *, sieve_budget: int | None = None) -> list[tuple[int, int]]:
    """Maximal runs of consecutive composites with last element <= limit,
    as (m, n) meaning the run is m+1 .. m+n."""
    _at_least(limit, "limit", 4, "composite_runs")
    budget = _budget(sieve_budget, DEFAULT_SIEVE_LIMIT, "composite_runs")
    primes = primes_up_to(limit + 1, sieve_budget=budget)
    out: list[tuple[int, int]] = []
    for p, q in zip(primes, primes[1:]):
        if q - p >= 2:
            out.append((p, q - p - 1))
    return out


def _fits(start: int, length: int, assignment: tuple[int, ...]) -> bool:
    """Whether assignment holds length distinct values, none 0, the i-th
    dividing start + 1 + i: everything but primality."""
    distinct = set(assignment)
    if len(assignment) != length or len(distinct) != length or 0 in distinct:
        return False
    return not any(map(mod, range(start + 1, start + 1 + length), assignment))


def verify_assignment(result: GrimmAssignment) -> bool:
    """Re-check an assignment, a GrimmAssignment or any (start, length,
    assignment) triple, from scratch: its fit (_fits) and primality by trial
    division. A record or assignment that is not iterable, a record without
    3 fields, a start below 0, a length below 1 and a field that is not an
    int (a bool included) are refused as DomainError, first fault first."""
    fields = _items(result, "verify_assignment")
    if len(fields) != 3:
        raise DomainError(f"verify_assignment needs 3 fields, got {len(fields)}")
    start, length, assignment = fields
    _at_least(start, "start", 0, "verify_assignment")
    _at_least(length, "length", 1, "verify_assignment")
    assignment = _items(assignment, "verify_assignment")
    for p in assignment:
        _integer(p, "assignment[i]")
    return _fits(start, length, assignment) and all(
        p >= 2 and smallest_prime_factor(p) == p for p in assignment
    )


def _certified_primes(values) -> set[int]:
    """The primes among values, by Euclid's algorithm alone: a composite v
    has a prime factor <= isqrt(v), which divides isqrt(v)!, so v >= 2 is
    prime exactly when gcd(v, isqrt(v)!) == 1. The values are walked in
    ascending order, and the factorial grows by one factor each time
    isqrt(v) goes up."""
    certified = set()
    factorial = j = 1  # factorial == j!
    for v in sorted(values):
        root = isqrt(v)
        while j < root:
            j += 1
            factorial *= j
        if v >= 2 and gcd(v, factorial) == 1:
            certified.add(v)
    return certified


def _confirmed_match(divisors: list[list[int]], m: int) -> tuple[int, ...] | None:
    """_match on the window m+1 .. m+len(divisors). Its None (infeasible)
    stands only when the distinct positions its certificate names share
    fewer primes than they number, which no distinct choice survives; any
    other certificate is a bug and raises."""
    assignment, stuck = _match(divisors)
    if assignment is None:
        hall = {i for i in stuck if 0 <= i < len(divisors)}  # distinct, in-range positions
        if len(set().union(*(divisors[i] for i in hall))) >= len(hall):
            end = _shown(m + len(divisors))
            raise RuntimeError(f"infeasibility certificate fails at run {_shown(m)}+1..{end}")
    return assignment


def _run_divisors(table, lo: int, hi: int, bound: int) -> list[list[int]]:
    """For each v in lo .. hi - 1 (each >= 1), its ascending distinct primes,
    read off a least-prime table, up to the first one >= bound if there is
    one."""
    lists = []
    for v in range(lo, hi):
        primes = []
        while v > 1:
            p = table[v]
            primes.append(p)
            if p >= bound:
                break
            v //= p  # p = table[v] divides v
            while v % p == 0:
                v //= p
        lists.append(primes)
    return lists


def grimm_scan(limit: int, *, sieve_budget: int | None = None):
    """Assign distinct primes on every maximal composite run starting <= limit.

    Returns a list of (m, n, matched, assignment, validated). One
    smallest-prime-factor table, up to the first prime past limit, gives the
    runs and, one _run_divisors loop per run, every element's prime
    divisors. An element's list stops at its first prime p >= n: no other
    element of the run is a multiple of p, so the matching takes p as soon
    as it reaches it, and a failed search reaches only elements with no such
    prime, whose lists are whole. Each assignment is re-checked for fit by
    _fits, as verify_assignment checks it, and for primality by the gcd
    certificate alone: every distinct assigned prime is certified once
    (_certified_primes). An infeasible run is certified as in grimm_assign.
    A limit above sieve_budget is refused before anything is allocated.
    """
    _at_least(limit, "limit", 4, "grimm_scan")
    _within(limit, sieve_budget, DEFAULT_SIEVE_LIMIT, "grimm_scan", "sieve limit")
    # the last run starting <= limit ends just before this prime
    top = next(v for v in count(limit + 1) if smallest_prime_factor(v) == v)
    table = _least_primes(0, array("I", range(top + 1)), primes_up_to(isqrt(top)))
    # table[1] == 1 as well, and 1 is no prime: the list starts past it
    primes = list(compress(count(), map(eq, table, count())))[1:]
    runs = []
    for p, q in zip(primes, primes[1:]):
        n = q - p - 1
        if n:
            runs.append((p, n, _confirmed_match(_run_divisors(table, p + 1, q, n), p)))
    proven = _certified_primes(set().union(*(a for _, _, a in runs if a is not None)))
    results = []
    for p, n, assignment in runs:
        if assignment is None:
            results.append((p, n, False, (), False))
        else:
            validated = _fits(p, n, assignment) and proven.issuperset(assignment)
            results.append((p, n, True, assignment, validated))
    return results


def default_window_bound(m: int) -> int:
    """Default search ceiling for witness-free runs: ceil(4 * ln(m+2)^2),
    capped at DEFAULT_SIEVE_LIMIT, past which non_w_max_run refuses (the cap
    binds from m = 10^687 on)."""
    _at_least(m, "m", 0, "default_window_bound")
    return min(DEFAULT_SIEVE_LIMIT, max(1, ceil(4 * log(m + 2) ** 2)))


def non_w_max_run(m: int, n_max: int | None = None) -> int:
    """Largest n <= n_max such that m+1 .. m+n has no coprime witness (0 if
    every length has one); n_max defaults to default_window_bound(m). A
    number measuring v and v + d measures d (Euclid VII.1-2), so m + i
    witnesses exactly the lengths i <= n < i + L when i <= L, L the least
    prime dividing m + i (n_max + 1 if none is <= n_max): one sieve pass
    gives every L, and one pass over n the last length left."""
    _at_least(m, "m", 0, "non_w_max_run")
    if n_max is None:
        n_max = default_window_bound(m)
    _at_least(n_max, "n_max", 1, "non_w_max_run")
    primes = primes_up_to(n_max)  # refuses n_max past the sieve limit before allocating
    least = _least_primes(m, array("I", [n_max + 1]) * (n_max + 1), primes)  # L for each m + i
    best = reach = 0  # reach: the longest length some element up to n covers
    for n in range(1, n_max + 1):
        if n <= least[n]:
            reach = max(reach, n + least[n] - 1)
        if reach < n:
            best = n
    return best
