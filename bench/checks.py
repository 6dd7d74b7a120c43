"""Independent oracles and output checkers for the benchmark.

Nothing here imports euclidkit. Expected values come from the standard
library (math.gcd, divmod, fractions.Fraction) or from the benchmark's own
slow computations: quotient chains by divmod, primality by trial division or
a plain bytearray sieve, and Dedekind sums term by term.

A checker returns nothing when the output is right and raises CheckError
when it is wrong. KnownFault marks an output that misses a promise of the
program because of a fault the benchmark keeps and counts as failed.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckError(AssertionError):
    """An output disagrees with the independent computation."""


class KnownFault(Exception):
    """An operation hit a fault the benchmark counts as failed, not as wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- oracles -----------------------------------------------------------------


def quotients(a: int, b: int) -> list[int]:
    """Partial quotients of a/b from the divmod chain."""
    out = []
    while b:
        q, r = divmod(a, b)
        out.append(q)
        a, b = b, r
    return out


def fraction_from_quotients(qs) -> Fraction:
    value = Fraction(qs[-1])
    for q in reversed(qs[:-1]):
        value = q + 1 / value
    return value


def sieve(limit: int) -> bytearray:
    """flags[n] == 1 exactly when n <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def smallest_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def divisor_sum(n: int) -> int:
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d if d * d == n else d + n // d
    return total


def dedekind_by_terms(h: int, k: int) -> Fraction:
    """s(h, k) as sum over a = 1..k-1 of (a/k) * ((a*h/k)).

    The form differs from the program's product of two sawtooths (the
    ((a/k)) factor reduces to a/k because the ((a*h/k)) terms sum to zero),
    and a*h mod k is stepped by addition rather than taken by division.
    """
    step = h % k
    residue = 0
    total = 0
    for a in range(1, k):
        residue += step
        if residue >= k:
            residue -= k
        if residue:
            total += a * (2 * residue - k)
    return Fraction(total, 2 * k * k)


def quotient_totals(a: int) -> tuple[int, int]:
    """(sum of partial quotients, number of division steps) of a/b over b = 1..a."""
    total = steps = 0
    for b in range(1, a + 1):
        x, y = a, b
        while y:
            q, r = divmod(x, y)
            total += q
            steps += 1
            x, y = y, r
    return total, steps


def composite_runs(limit: int) -> list[tuple[int, int]]:
    """Maximal composite runs (m, n) = m+1..m+n with m a prime < limit."""
    horizon = limit + 200
    while True:
        flags = sieve(horizon)
        if any(flags[limit + 1 :]):
            break
        horizon *= 2
    primes = [n for n in range(2, horizon + 1) if flags[n]]
    return [(p, q - p - 1) for p, q in zip(primes, primes[1:]) if p < limit and q - p > 1]


def window_has_prime(m: int) -> bool:
    return any(is_prime(n) for n in range(m * m + 1, (m + 1) * (m + 1)))


def witness_index(values) -> int | None:
    for r, v in enumerate(values):
        if all(math.gcd(v, w) == 1 for j, w in enumerate(values) if j != r):
            return r + 1
    return None


def longest_witness_free_run(m: int, n_max: int) -> int:
    best = 0
    for n in range(1, n_max + 1):
        if witness_index(range(m + 1, m + n + 1)) is None:
            best = n
    return best


def coprime_pairs(limit: int) -> int:
    return sum(1 for k in range(1, limit + 1) for h in range(1, k) if math.gcd(h, k) == 1)


PERFECT_UP_TO_10_7 = [(6, 2), (28, 3), (496, 5), (8128, 7)]


# --- checkers ----------------------------------------------------------------


def check_gcd(a: int, b: int, g: int) -> None:
    expect(g == math.gcd(a, b), f"gcd({a}, {b}) reported {g}, math.gcd gives {math.gcd(a, b)}")


def check_bezout(a: int, b: int, g: int, x: int, y: int) -> None:
    check_gcd(a, b, g)
    expect(a * x + b * y == g, f"{a}*{x} + {b}*{y} != {g}")


def check_division(a: int, b: int, q: int, r: int) -> None:
    expect((q, r) == divmod(a, b), f"divmod({a}, {b}) reported ({q}, {r}), expected {divmod(a, b)}")


def check_remainder_chain(a: int, b: int, qs, expected=None) -> None:
    expected = quotients(a, b) if expected is None else expected
    expect(list(qs) == expected, f"quotients of {a}/{b} reported {list(qs)}, expected {expected}")


def check_lowest_terms(a: int, b: int, ra: int, rb: int) -> None:
    g = math.gcd(a, b)
    expect((ra, rb) == (a // g, b // g), f"lowest terms of {a}/{b} reported {ra}/{rb}")


def check_cf_round_trip(a: int, b: int, qs, num: int, den: int, expected=None) -> None:
    check_remainder_chain(a, b, qs, expected)
    expect(fraction_from_quotients(list(qs)) == Fraction(a, b), f"quotients of {a}/{b} do not evaluate back")
    expect(Fraction(num, den) == Fraction(a, b) and math.gcd(num, den) == 1, f"cf value {num}/{den} != {Fraction(a, b)}")


def check_subtractive(a: int, b: int, g: int, step_count: int, qs=None) -> None:
    check_gcd(a, b, g)
    expected = sum(quotients(a, b) if qs is None else qs) - 1
    expect(step_count == expected, f"subtractive steps for ({a}, {b}): {step_count}, expected sum(q) - 1 = {expected}")


def check_dynamics(x: int, y: int, step_count: int, terminal, product, qs=None) -> None:
    expected = sum(quotients(x, y) if qs is None else qs)
    expect(step_count == expected, f"dynamics steps for ({x}, {y}): {step_count}, expected sum(q) = {expected}")
    m11, m12, m21, m22 = product
    expect(m11 * m22 - m12 * m21 == 1, f"dynamics product for ({x}, {y}) has determinant != 1")
    expect((m11 * x + m12 * y, m21 * x + m22 * y) == tuple(terminal), f"product applied to ({x}, {y}) != {tuple(terminal)}")
    expect(min(terminal) == 0 and max(terminal) == math.gcd(x, y), f"terminal {tuple(terminal)} is not (0, gcd)")


def check_trace_rows(rows, method: str, step_count: int) -> None:
    expect(len(rows) == step_count, f"{len(rows)} trace rows for {step_count} steps")
    for i, row in enumerate(rows, start=1):
        larger, smaller, rem = int(row["larger"]), int(row["smaller"]), int(row["remainder"])
        expect(int(row["step"]) == i, f"trace row {i} is numbered {row['step']}")
        if method == "remainder":
            expect(larger == smaller * int(row["quotient"]) + rem and 0 <= rem < smaller, f"bad remainder row {row}")
        else:
            expect(rem == larger - smaller and larger >= smaller, f"bad subtractive row {row}")


def check_dynamics_rows(x: int, y: int, rows, step_count: int) -> None:
    """One numbered row per step; each row's pair follows the subtractive map
    (x, y) -> (x - y, y) if x >= y else (x, y - x), read either as the pair
    before its step or as the pair after it."""
    expect(len(rows) == step_count, f"{len(rows)} dynamics rows for {step_count} steps")
    after = []
    cx, cy = x, y
    while cx and cy and len(after) < len(rows):
        cx, cy = (cx - cy, cy) if cx >= cy else (cx, cy - cx)
        after.append((cx, cy))
    before = [(x, y), *after[:-1]]
    pairs = []
    for i, row in enumerate(rows, start=1):
        expect(int(row["step"]) == i, f"dynamics row {i} is numbered {row['step']}")
        pairs.append((int(row["x"]), int(row["y"])))
    expect(pairs in (after, before), f"dynamics rows of ({x}, {y}) do not follow the subtractive map")


def check_dedekind(h: int, k: int, value: Fraction, expected: Fraction | None = None) -> None:
    expected = dedekind_by_terms(h, k) if expected is None else expected
    expect(value == expected, f"s({h}, {k}) reported {value}, term-by-term sum gives {expected}")


def check_yao_knuth(a: int, total: int, predicted: float, ratio: float, mean_length: float | None,
                    expected: tuple[int, int] | None = None) -> None:
    exp_total, exp_steps = quotient_totals(a) if expected is None else expected
    expect(total == exp_total, f"quotient total for a={a} reported {total}, expected {exp_total}")
    exp_predicted = 6 / math.pi**2 * a * math.log(a) ** 2
    expect(math.isclose(predicted, exp_predicted, rel_tol=1e-12), f"prediction {predicted} != {exp_predicted}")
    expect(math.isclose(ratio, exp_total / exp_predicted, rel_tol=1e-12), f"ratio {ratio} is off")
    if mean_length is not None:
        expect(math.isclose(mean_length, exp_steps / a, rel_tol=1e-12), f"mean cf length {mean_length} != {exp_steps / a}")


def check_reciprocity_scan(limit: int, pairs: int, nonzero: int, violations, expected_pairs: int | None = None) -> None:
    expected_pairs = coprime_pairs(limit) if expected_pairs is None else expected_pairs
    expect(pairs == expected_pairs, f"reciprocity pairs {pairs}, math.gcd counts {expected_pairs}")
    expect(nonzero == 0 and not violations, f"{nonzero} nonzero reciprocity residuals: {list(violations)[:3]}")


def check_perfect_scan(hits) -> None:
    expect([tuple(h) for h in hits] == PERFECT_UP_TO_10_7, f"perfect numbers to 10**7 reported {hits}")
    for n, p in hits:
        expect(divisor_sum(n) == 2 * n and n == 2 ** (p - 1) * (2**p - 1), f"{n} is not perfect with p={p}")


def check_perfect_certificate(p: int, mersenne: int, value: int, sigma: int) -> None:
    expect(mersenne == 2**p - 1 and value == 2 ** (p - 1) * mersenne, f"p={p}: mersenne {mersenne}, value {value}")
    expect(sigma == divisor_sum(value) == 2 * value, f"sigma({value}) reported {sigma}")


def check_euclid_extension(primes, e: int, new_prime: int) -> None:
    product = math.prod(primes)
    expect(e == product + 1, f"E for {list(primes)} reported {e}, expected {product + 1}")
    expect(new_prime == smallest_factor(e) and new_prime not in primes, f"new prime {new_prime} for E = {e}")


def check_grimm_assignment(m: int, n: int, assignment, prime_flags=None) -> None:
    expect(len(assignment) == n, f"run {m}+1..{m}+{n} got {len(assignment)} primes")
    expect(len(set(assignment)) == n, f"run {m}+1..{m}+{n} repeats a prime: {list(assignment)}")
    for i, p in enumerate(assignment):
        prime = prime_flags[p] if prime_flags is not None and p < len(prime_flags) else is_prime(p)
        expect(prime and (m + 1 + i) % p == 0, f"{p} is not a prime divisor of {m + 1 + i}")


def check_grimm_scan(rows, expected_runs, prime_flags=None) -> None:
    runs = [(int(r["m"]), int(r["n"])) for r in rows]
    expect(runs == expected_runs, f"grimm scan runs differ from the sieve's composite runs ({len(runs)} vs {len(expected_runs)})")
    for row, (m, n) in zip(rows, runs):
        expect(row["matched"] == "true", f"run {m}+1..{m}+{n} reported unmatched")
        check_grimm_assignment(m, n, [int(p) for p in row["assignment"].split(",")], prime_flags)


def check_interval(m: int, prime_exists: bool, is_w: bool, expected: bool | None = None) -> None:
    expected = window_has_prime(m) if expected is None else expected
    expect(prime_exists == expected, f"m={m}: prime_exists={prime_exists}, trial division says {expected}")
    expect(is_w == prime_exists, f"m={m}: is_w={is_w} but prime_exists={prime_exists}")


def check_interval_scan(limit: int, checked: int, mismatches: int, violations) -> None:
    """The scan prints no per-m verdict, so only its own consistency is checked."""
    expect(checked == limit, f"interval scan checked {checked} of {limit}")
    expect(mismatches == 0 and not violations, f"interval scan reports {mismatches} mismatches")


def check_formats_agree(text: dict, report: dict) -> None:
    """Text and report renderings of one invocation carry the same values."""
    for key in ("command", "rows", "summary", "violations"):
        expect(text[key] == report[key], f"text and report differ in {key}: {text[key]!r} vs {report[key]!r}")
    text_params, report_params = dict(text["params"]), dict(report["params"])
    text_params.pop("format", None)
    report_params.pop("format", None)
    expect(text_params == report_params, "text and report differ in params")


# --- CLI output parsing ------------------------------------------------------


def parse_output(text: str, fmt: str) -> dict:
    """Split one rendered CLI output into command, params, rows, summary, violations."""
    out = {"command": None, "params": {}, "rows": [], "summary": {}, "violations": []}
    lines = text.splitlines()
    if fmt == "report":
        for line in lines:
            if line.startswith("command: "):
                out["command"] = line[len("command: "):]
            elif line.startswith("param "):
                key, _, value = line[len("param "):].partition(": ")
                out["params"][key] = value
            elif line.startswith("row "):
                out["rows"].append(dict(kv.split("=", 1) for kv in line[4:].split(" ")))
            elif line.startswith("summary "):
                key, _, value = line[len("summary "):].partition(": ")
                out["summary"][key] = value
            elif line.startswith("violation: "):
                out["violations"].append(line[len("violation: "):])
            else:
                raise CheckError(f"unparsed report line {line!r}")
        return out
    if not lines:
        raise CheckError("empty text output")
    command, _, params = lines[0].partition("  ")
    out["command"] = command
    out["params"] = dict(kv.split("=", 1) for kv in params.split(" ") if kv)
    for line in lines[1:]:
        if line.startswith("  "):
            out["rows"].append(dict(kv.split("=", 1) for kv in line[2:].split(" ")))
        elif line.startswith("VIOLATION: "):
            out["violations"].append(line[len("VIOLATION: "):])
        elif " = " in line:
            key, _, value = line.partition(" = ")
            out["summary"][key] = value
        else:
            raise CheckError(f"unparsed text line {line!r}")
    return out
