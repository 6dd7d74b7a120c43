"""Euclid's gcd in four forms: subtractive, remainder, extended, and division
reconstructed from a gcd identity certificate.

The subtractive and remainder forms return full step traces so callers can
replay and audit every reduction; the subtractive trace is stored as quotient
runs and builds each step when it is read. All three read one division chain,
_division_chain, which alone checks their operands and returns the quotients
and the pairs a, b, r1, ..., 0, the gcd next to last. The extended form fixes
its coefficients by back-substitution over the quotient list, making them
deterministic.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from itertools import repeat
from typing import NamedTuple

from .errors import CertificateMismatchError, DomainError, ResourceLimitError
from .errors import _budget, _integer, _items, _shown

DEFAULT_STEP_BUDGET = 10**6


class EuclidStep(NamedTuple):
    """One reduction: larger = smaller * quotient + remainder.

    Subtractive steps carry quotient None and remainder = larger - smaller.
    """

    larger: int
    smaller: int
    quotient: int | None
    remainder: int


class SubtractiveSteps(Sequence):
    """The steps of a subtractive trace, stored as runs and built when read.

    A run (larger, smaller, count) stands for the steps
    EuclidStep(larger - i*smaller, smaller, None, larger - (i+1)*smaller)
    for i in range(count). Equal step sequences have equal runs, and the
    sequence also equals the tuple of its steps (and hashes like it, which
    builds that tuple).
    """

    __slots__ = ("_runs", "_starts", "_len")

    def __init__(self, runs) -> None:
        self._runs = tuple(run for run in runs if run[2])
        self._starts: list[int] = []
        total = 0
        for _, _, count in self._runs:
            self._starts.append(total)
            total += count
        self._len = total

    @staticmethod
    def _step(larger: int, smaller: int, i: int) -> EuclidStep:
        larger -= i * smaller
        return EuclidStep(larger, smaller, None, larger - smaller)

    @property
    def length(self) -> int:
        """The number of steps; len() gives the same up to sys.maxsize."""
        return self._len

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self._len)))
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("subtractive step index out of range")
        k = bisect_right(self._starts, i) - 1
        larger, smaller, _ = self._runs[k]
        return self._step(larger, smaller, i - self._starts[k])

    def __iter__(self) -> Iterator[EuclidStep]:
        for larger, smaller, count in self._runs:
            for i in range(count):
                yield self._step(larger, smaller, i)

    def __reversed__(self) -> Iterator[EuclidStep]:
        for larger, smaller, count in reversed(self._runs):
            for i in reversed(range(count)):
                yield self._step(larger, smaller, i)

    def __eq__(self, other) -> bool:
        if isinstance(other, SubtractiveSteps):
            return self._runs == other._runs
        if isinstance(other, tuple):
            return len(other) == self._len and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"SubtractiveSteps(runs={self._runs!r}, len={self._len})"


class EuclidTrace(NamedTuple):
    """Ordered reduction steps for one gcd computation."""

    method: str  # "subtractive" or "remainder"
    steps: Sequence[EuclidStep]  # a tuple, or SubtractiveSteps for "subtractive"

    @property
    def step_count(self) -> int:
        steps = self.steps
        return steps.length if isinstance(steps, SubtractiveSteps) else len(steps)

    def quotients(self) -> list[int]:
        if self.method != "remainder":
            raise DomainError("quotients are defined for remainder traces only")
        return [step.quotient for step in self.steps]


class BezoutCertificate(NamedTuple):
    """A claimed certificate: integers x, y with a*x + b*y = g. The record
    checks nothing when built, and holds() checks only that identity, not
    that g is gcd(a, b). xgcd returns records whose g is the gcd;
    division_from_bezout checks that g is the gcd before it uses one."""

    a: int
    b: int
    g: int
    x: int
    y: int

    def holds(self) -> bool:
        """Whether a*x + b*y == g. That shows only that gcd(a, b) divides g
        (BezoutCertificate(4, 6, 4, 1, 0) holds); division_from_bezout is
        what refuses a g that is not the gcd."""
        return self.a * self.x + self.b * self.y == self.g


def _positive(value: int, name: str) -> int:
    if _integer(value, name) < 1:
        raise DomainError(f"{name} must be at least 1, got {_shown(value)}")
    return value


def _division_chain(a: int, b: int) -> tuple[list[int], list[int]]:
    """The division chain of a/b, for a, b >= 1 (checked), as
    (quotients, pairs) with pairs = [a, b, r1, ..., 0]: step i is
    pairs[i] = pairs[i + 1]*quotients[i] + pairs[i + 2].

    The quotients are the partial quotients of a/b, in order; quotient q
    also stands for q subtractions of pairs[i + 1] from pairs[i]. For a < b
    the first quotient is 0. The gcd is pairs[-2].
    """
    quotients, pairs = [], [_positive(a, "a"), _positive(b, "b")]
    while b:
        q, r = divmod(a, b)
        quotients.append(q)
        pairs.append(r)
        a, b = b, r
    return quotients, pairs


def gcd_subtractive(
    a: int, b: int, *, step_budget: int | None = None
) -> tuple[int, EuclidTrace]:
    """Gcd by repeated subtraction, stopping when the pair becomes equal.

    Each quotient run of q subtractions is stored whole, so the trace costs
    one division per run; the last run stops at the equal pair, one short
    of its quotient, for sum(q) - 1 steps in all. The order of a and b does
    not matter: for a < b the chain starts with a run of no steps.
    """
    quotients, pairs = _division_chain(a, b)
    budget = _budget(step_budget, DEFAULT_STEP_BUDGET, "gcd_subtractive")
    quotients[-1] -= 1
    steps = SubtractiveSteps(zip(pairs, pairs[1:], quotients))
    if steps.length > budget:
        raise ResourceLimitError(
            f"gcd_subtractive({_shown(a)}, {_shown(b)}): exceeded {budget} subtraction steps"
        )
    return pairs[-2], EuclidTrace("subtractive", steps)


def gcd_remainder(a: int, b: int) -> tuple[int, EuclidTrace]:
    """Gcd by repeated division, with the full quotient/remainder chain."""
    quotients, pairs = _division_chain(a, b)
    # tuple.__new__ builds each EuclidStep in C, skipping the Python __new__
    steps = tuple(
        map(tuple.__new__, repeat(EuclidStep), zip(pairs, pairs[1:], quotients, pairs[2:]))
    )
    return pairs[-2], EuclidTrace("remainder", steps)


def xgcd(a: int, b: int) -> BezoutCertificate:
    """Bezout certificate a*x + b*y = gcd(a, b).

    The coefficients are fixed by back-substitution over the quotient list
    of the division chain: start from the last division, where
    g = 0*larger + 1*smaller, and unwind each quotient q before it as
    (x, y) -> (y, x - q*y).
    """
    quotients, pairs = _division_chain(a, b)
    x, y = 0, 1
    for q in reversed(quotients[:-1]):
        x, y = y, x - q * y
    return BezoutCertificate(a, b, pairs[-2], x, y)


def gcd_many(values) -> int:
    """Left fold of the pairwise gcd over a non-empty list."""
    vals = _items(values, "gcd_many")
    if not vals:
        raise DomainError("gcd_many needs at least one value")
    for v in vals:
        _positive(v, "values[i]")
    return math.gcd(*vals)


def lcm(a: int, b: int) -> int:
    """Least common multiple a*b / gcd(a, b)."""
    _positive(a, "a")
    _positive(b, "b")
    return a // math.gcd(a, b) * b


def lowest_terms(a: int, b: int) -> tuple[int, int]:
    """The pair divided by its gcd; the result is coprime."""
    _positive(a, "a")
    _positive(b, "b")
    g = math.gcd(a, b)
    return a // g, b // g


def _ladder(c: int, b: int, budget: int, context: Callable[[], str]) -> tuple[int, int]:
    """(i, r) with c = i*b + r and 0 <= r < b, for c >= 0 and b >= 1, by
    duplation: climb the rungs b, 2b, 4b, ... by addition to the top rung
    b * 2**k <= c, then subtract greedily from it down.

    No list of rungs is kept; each on the way down is rebuilt as b << k, a
    multiplication by 2**k, so memory stays linear in the size of c. Raises
    ResourceLimitError once the climb takes more than budget doublings.
    """
    rung, k = b + b, 0
    while rung <= c:
        rung += rung
        k += 1
        if k > budget:
            raise ResourceLimitError(f"{context()} exceeded {budget} doubling steps")
    i, r = 0, c
    while k >= 0:
        rung = b << k
        if rung <= r:
            r -= rung
            i += 1 << k
        k -= 1
    return i, r


def division_from_bezout(
    a: int, b: int, cert: BezoutCertificate, *, step_budget: int | None = None
) -> tuple[int, int]:
    """Quotient and remainder of a by b rebuilt from a Bezout certificate,
    using only comparison, addition, subtraction and multiplication.

    Every certificate a*x + b*y = g, whatever the sign of x, gives
    a = b*(1 - x - y) + t with t = (x - 1)*(b - a) + g, so the quotient is
    1 - x - y + floor(t/b) and the remainder is what that floor leaves of t.
    The floor comes from a doubling ladder (_ladder), and so does the gcd
    that validates g: a remainder chain whose remainders the ladder finds.
    Each ladder may take step_budget doublings. cert may be any record of
    the five fields a, b, g, x, y; anything else is a DomainError.
    """
    _positive(a, "a")
    _positive(b, "b")
    fields = _items(cert, "division_from_bezout")
    if len(fields) != 5:
        raise DomainError(f"division_from_bezout needs 5 certificate fields, got {len(fields)}")
    cert = BezoutCertificate(*fields)
    budget = _budget(step_budget, DEFAULT_STEP_BUDGET, "division_from_bezout")

    def pair() -> str:  # built only when a message needs it
        return f"({_shown(a)}, {_shown(b)})"

    _integer(cert.a, "cert.a")
    _integer(cert.b, "cert.b")
    if cert.a != a or cert.b != b:
        raise CertificateMismatchError(
            f"certificate is for pair ({_shown(cert.a)}, {_shown(cert.b)}), not {pair()}"
        )
    _integer(cert.g, "cert.g")
    _integer(cert.x, "cert.x")
    _integer(cert.y, "cert.y")
    if not cert.holds():
        raise CertificateMismatchError(
            f"certificate identity fails: {_shown(a)}*{_shown(cert.x)}"
            f" + {_shown(b)}*{_shown(cert.y)} != {_shown(cert.g)}"
        )
    hi, lo = a, b
    validation = lambda: f"gcd validation for {pair()}"
    while lo:
        hi, lo = lo, _ladder(hi, lo, budget, validation)[1]
    if cert.g != hi:
        raise CertificateMismatchError(f"certificate g = {_shown(cert.g)} is not gcd{pair()}")

    t = (cert.x - 1) * (b - a) + cert.g
    floor, r = _ladder(abs(t), b, budget, lambda: f"division_from_bezout{pair()}:")
    if t < 0:
        # -t = floor*b + r, so t = -(floor + 1)*b + (b - r), or -floor*b if r = 0
        floor, r = (-floor, 0) if r == 0 else (-floor - 1, b - r)
    return 1 - cert.x - cert.y + floor, r
