"""Coprime-witness sequences, the prime-between-squares equivalence, distinct
prime divisors for composite runs, and witness-free run lengths."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from math import ceil, gcd, log, prod
from operator import lt

from .errors import DomainError, _integer, _shown
from .integers import _window_has_prime, factorize, primes_up_to, smallest_prime_factor

DEFAULT_WINDOW_CAP = 10**4
_BLOCK = 32  # values per block product in w_witness


@dataclass(frozen=True)
class WReport:
    """A strictly increasing sequence and the least index (1-based) of an
    element coprime to all the others, if one exists."""

    sequence: tuple[int, ...]
    witness_index: int | None

    @property
    def witness_value(self) -> int | None:
        if self.witness_index is None:
            return None
        return self.sequence[self.witness_index - 1]


@dataclass(frozen=True)
class GrimmAssignment:
    """Distinct primes for the composite window start+1 .. start+length;
    assignment[i] divides start + 1 + i."""

    start: int
    length: int
    assignment: tuple[int, ...]


def _increasing_naturals(seq) -> tuple[int, ...]:
    """seq as a tuple, checked to be a non-empty, strictly increasing
    sequence of naturals >= 1; a range with step > 0 and start >= 1 is one
    by construction, so only its length is checked."""
    values = tuple(seq)
    if not values:
        raise DomainError("w_witness needs a non-empty sequence")
    if isinstance(seq, range) and seq.step > 0 and seq.start >= 1:
        return values
    if set(map(type, values)) != {int}:
        for v in values:
            _integer(v, "values[i]")
    if min(values) < 1:
        bad = next(v for v in values if v < 1)
        raise DomainError(f"w_witness needs naturals >= 1, got {bad!r}")
    if not all(map(lt, values, islice(values, 1, None))):
        raise DomainError("w_witness needs a strictly increasing sequence")
    return values


def _shares_factor(v: int, others) -> bool:
    """Whether v has a common factor > 1 with any of others; stops at the first."""
    return any(map((1).__lt__, map(gcd, repeat(v), others)))


def w_witness(seq) -> WReport:
    """Find the least element coprime to every other element.

    v is coprime to each of u1, ..., uk exactly when it is coprime to their
    product. So the values are cut into fixed blocks of _BLOCK, and each
    candidate is tested pairwise within its own block and then against the
    product of every other block: multiplication and gcd only.
    """
    values = _increasing_naturals(seq)
    blocks = [values[s : s + _BLOCK] for s in range(0, len(values), _BLOCK)]
    products = list(map(prod, blocks))
    for k, block in enumerate(blocks):
        others = products[:k] + products[k + 1 :]
        for i, v in enumerate(block):
            if not _shares_factor(v, chain(block[:i], block[i + 1 :], others)):
                return WReport(values, k * _BLOCK + i + 1)
    return WReport(values, None)


def _interval_sides(m: int, base_primes: list[int]) -> tuple[bool, bool]:
    """Both sides for the window m^2+1..m^2+2m, from base primes up to m."""
    lo, hi = m * m + 1, m * m + 2 * m
    prime_exists = _window_has_prime(lo, hi, base_primes)
    is_w = w_witness(range(lo, hi + 1)).witness_index is not None
    return prime_exists, is_w


def prime_interval_equivalence(m: int, *, sieve_budget: int | None = None) -> tuple[bool, bool]:
    """(prime between m^2 and (m+1)^2 exclusive, window m^2+1..m^2+2m has a
    coprime witness) — computed by two unrelated scans.

    The first boolean comes from a primality sieve of the window, the second
    from block products and gcds only.
    """
    if _integer(m, "m") < 1:
        raise DomainError(f"prime_interval_equivalence needs m >= 1, got {_shown(m)}")
    # isqrt((m+1)^2 - 1) == m bounds the window's base primes
    return _interval_sides(m, primes_up_to(m, sieve_budget=sieve_budget))


def interval_equivalence_scan(
    limit: int, *, sieve_budget: int | None = None
) -> list[tuple[int, bool, bool]]:
    """(m, *prime_interval_equivalence(m)) for m = 1..limit, with the base
    primes up to limit sieved once for every window."""
    if _integer(limit, "limit") < 0:
        raise DomainError(f"interval_equivalence_scan needs limit >= 0, got {_shown(limit)}")
    base_primes = primes_up_to(limit, sieve_budget=sieve_budget)
    return [(m, *_interval_sides(m, base_primes)) for m in range(1, limit + 1)]


def grimm_assign(m: int, n: int, *, step_budget: int | None = None) -> GrimmAssignment | None:
    """Choose distinct primes p_i | m + i for the all-composite window
    m+1 .. m+n, or None if no such choice exists.

    Augmenting-path bipartite matching between window positions and the
    primes dividing them; positions and primes are tried in ascending order,
    so the result is deterministic.
    """
    if _integer(m, "m") < 0:
        raise DomainError(f"grimm_assign needs m >= 0, got {_shown(m)}")
    if _integer(n, "n") < 1:
        raise DomainError(f"grimm_assign needs n >= 1, got {_shown(n)}")
    divisors: list[list[int]] = []
    for value in range(m + 1, m + n + 1):
        if value < 4 or smallest_prime_factor(value, step_budget=step_budget) == value:
            raise DomainError(f"window element {_shown(value)} is not composite")
        divisors.append(factorize(value, step_budget=step_budget).primes())

    owner: dict[int, int] = {}  # prime -> position currently using it

    def try_assign(pos: int, banned: set[int]) -> bool:
        for p in divisors[pos]:
            if p in banned:
                continue
            banned.add(p)
            if p not in owner or try_assign(owner[p], banned):
                owner[p] = pos
                return True
        return False

    for pos in range(n):
        if not try_assign(pos, set()):
            return None
    assignment: list[int] = [0] * n
    for p, pos in owner.items():
        assignment[pos] = p
    return GrimmAssignment(m, n, tuple(assignment))


def composite_runs(limit: int, *, sieve_budget: int | None = None) -> list[tuple[int, int]]:
    """Maximal runs of consecutive composites with last element <= limit,
    as (m, n) meaning the run is m+1 .. m+n."""
    if _integer(limit, "limit") < 4:
        raise DomainError(f"composite_runs needs limit >= 4, got {_shown(limit)}")
    primes = primes_up_to(limit + 1, sieve_budget=sieve_budget)
    out: list[tuple[int, int]] = []
    for p, q in zip(primes, primes[1:]):
        if q - p >= 2:
            out.append((p, q - p - 1))
    return out


def verify_assignment(result: GrimmAssignment) -> bool:
    """Re-check an assignment from scratch: divisibility and distinctness."""
    if len(result.assignment) != result.length:
        return False
    if len(set(result.assignment)) != result.length:
        return False
    for i, p in enumerate(result.assignment):
        value = result.start + 1 + i
        if p < 2 or smallest_prime_factor(p) != p or value % p != 0:
            return False
    return True


def _assignment_by_backtracking(divisor_sets: list[list[int]]) -> list[int] | None:
    """Exhaustive search for distinct representatives; the slow safety net
    that must confirm any run the matching reports as infeasible."""
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


def grimm_scan(limit: int, *, sieve_budget: int | None = None):
    """Assign distinct primes on every maximal composite run starting <= limit.

    Returns a list of (m, n, matched, assignment, validated). A run the
    matching cannot satisfy is re-verified by exhaustive backtracking before
    it is reported infeasible; disagreement between the two searches is a bug
    and raises.
    """
    if _integer(limit, "limit") < 4:
        raise DomainError(f"grimm_scan needs limit >= 4, got {_shown(limit)}")
    # sieve far enough to see the first prime beyond limit
    horizon = limit + 2
    primes = primes_up_to(horizon, sieve_budget=sieve_budget)
    while not primes or primes[-1] <= limit:
        horizon += max(1000, horizon // 10)
        primes = primes_up_to(horizon, sieve_budget=sieve_budget)
    results = []
    for p, q in zip(primes, primes[1:]):
        if p >= limit:
            break
        n = q - p - 1
        if n < 1:
            continue
        result = grimm_assign(p, n)
        if result is None:
            confirmed = (
                _assignment_by_backtracking(
                    [factorize(v).primes() for v in range(p + 1, q)]
                )
                is None
            )
            if not confirmed:
                raise RuntimeError(f"matching and exhaustive search disagree at run {p}+1..{q}-1")
            results.append((p, n, False, (), False))
            continue
        results.append((p, n, True, result.assignment, verify_assignment(result)))
    return results


def default_window_bound(m: int) -> int:
    """Default search ceiling for witness-free runs: ceil(4 * ln(m+2)^2)."""
    if _integer(m, "m") < 0:
        raise DomainError(f"default_window_bound needs m >= 0, got {_shown(m)}")
    return max(1, ceil(4 * log(m + 2) ** 2))


def non_w_max_run(m: int, n_max: int, *, window_cap: int | None = None) -> int:
    """Largest n <= n_max such that m+1 .. m+n has no coprime witness (0 if
    every length has one). Checks every n: witness-freeness is not monotone."""
    if _integer(m, "m") < 0:
        raise DomainError(f"non_w_max_run needs m >= 0, got {_shown(m)}")
    if _integer(n_max, "n_max") < 1:
        raise DomainError(f"non_w_max_run needs n_max >= 1, got {_shown(n_max)}")
    cap = DEFAULT_WINDOW_CAP if window_cap is None else window_cap
    if n_max > cap:
        raise DomainError(f"non_w_max_run window cap is {cap}, got n_max = {_shown(n_max)}")
    best = 0
    for n in range(1, n_max + 1):
        if w_witness(range(m + 1, m + n + 1)).witness_index is None:
            best = n
    return best
