"""Acceptance suite: sixteen end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every criterion is self-contained and uses independent oracles where
an expected value has to come from somewhere other than the code under test.
"""

import hashlib
import random
import time
from itertools import combinations
from math import gcd as builtin_gcd
from math import log, pi

from euclidkit import (
    cf_expand,
    cf_value,
    dedekind_sum,
    division_from_bezout,
    dynamical_run,
    euclid_prime_extension,
    euclid_lemma_witness,
    gcd_remainder,
    gcd_subtractive,
    grimm_scan,
    lowest_terms,
    non_w_max_run,
    perfect_from_mersenne,
    perfect_scan,
    prime_interval_equivalence,
    reciprocity_residual,
    sigma,
    w_witness,
    xgcd,
    yao_knuth_stat,
    LemmaWitness,
)
from oracles import gcd_by_enumeration, witness_by_pair_matrix


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_gcd_agreement():
    start = time.monotonic()
    ok = True
    for a in range(1, 201):
        for b in range(1, 201):
            g_sub, _ = gcd_subtractive(a, b)
            g_rem, _ = gcd_remainder(a, b)
            if not (g_sub == g_rem == gcd_by_enumeration(a, b)):
                ok = False
    elapsed = time.monotonic() - start
    _criterion(
        1,
        "subtractive, remainder, and enumeration gcd agree on all 40000 pairs <= 200",
        ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_porism():
    violations = 0
    for a in range(1, 201):
        for b in range(1, 201):
            g, _ = gcd_remainder(a, b)
            for c in range(1, min(a, b) + 1):
                if a % c == 0 and b % c == 0 and g % c != 0:
                    violations += 1
    _criterion(
        2,
        "every common divisor divides the gcd for all pairs <= 200",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_03_division_from_bezout():
    mismatches = 0
    for a in range(1, 501):
        for b in range(1, 501):
            if division_from_bezout(a, b, xgcd(a, b)) != divmod(a, b):
                mismatches += 1
    _criterion(
        3,
        "division rebuilt from Bezout certificates equals divmod on all pairs <= 500",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_04_bezout_validity():
    bad = 0
    for a in range(1, 501):
        for b in range(1, 501):
            cert = xgcd(a, b)
            if a * cert.x + b * cert.y != cert.g:
                bad += 1
    _criterion(
        4,
        "a*x + b*y = g holds exactly for all pairs <= 500",
        bad == 0,
        f"{bad} failures",
    )


def test_criterion_05_lame_bound():
    ok = True
    for a in range(1, 501):
        for b in range(1, 501):
            _, trace = gcd_remainder(a, b)
            if trace.step_count > 5 * len(str(max(a, b))):
                ok = False
    rng = random.Random(12345)
    for _ in range(10**4):
        a = rng.randint(1, 2**64 - 1)
        b = rng.randint(1, 2**64 - 1)
        _, trace = gcd_remainder(a, b)
        if trace.step_count > 5 * len(str(max(a, b))):
            ok = False
    fib = [1, 1]
    while len(fib) < 62:
        fib.append(fib[-1] + fib[-2])
    fib_exact = all(
        gcd_remainder(fib[k], fib[k - 1])[1].step_count == k - 1 for k in range(3, 61)
    )
    _criterion(
        5,
        "step count <= 5*digits on all pairs <= 500 and 10^4 random 64-bit pairs; "
        "Fibonacci pairs take exactly k-1 steps",
        ok and fib_exact,
    )


def test_criterion_06_euclid_lemma():
    violations = 0
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    for p in primes:
        for a in range(1, 101):
            for b in range(1, 101):
                witness = euclid_lemma_witness(p, a, b)
                if (a * b) % p == 0:
                    if witness is LemmaWitness.DIVIDES_A and a % p != 0:
                        violations += 1
                    elif witness is LemmaWitness.DIVIDES_B and b % p != 0:
                        violations += 1
                    elif witness is LemmaWitness.NEITHER:
                        violations += 1
                elif witness is not LemmaWitness.NEITHER:
                    violations += 1
    _criterion(
        6,
        "a prime dividing a product divides a factor, p <= 100, a, b <= 100",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_07_perfect_numbers():
    start = time.monotonic()
    found = perfect_scan(10**7)
    elapsed = time.monotonic() - start
    ok = found == [(6, 2), (28, 3), (496, 5), (8128, 7)]
    for n, p in found:
        if sigma(n) != 2 * n or p not in {2, 3, 5, 7}:
            ok = False
    _criterion(
        7,
        "exhaustive scan to 10^7 finds exactly {6, 28, 496, 8128}",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_08_infinitude():
    first_eight = [2, 3, 5, 7, 11, 13, 17, 19]
    ok = True
    for size in range(0, 9):
        for subset in combinations(first_eight, size):
            ext = euclid_prime_extension(subset)
            if ext.new_prime in subset:
                ok = False
    canonical = euclid_prime_extension([2, 3, 5, 7, 11, 13])
    ok = ok and canonical.e_value == 30031 and canonical.new_prime == 59
    _criterion(
        8,
        "prime extension escapes every subset of the first 8 primes; "
        "2*3*5*7*11*13 + 1 = 30031 yields 59",
        ok,
    )


def test_criterion_09_dedekind_reciprocity():
    start = time.monotonic()
    pairs = 0
    nonzero = 0
    for k in range(1, 151):
        for h in range(1, k):
            if builtin_gcd(h, k) != 1:
                continue
            pairs += 1
            if reciprocity_residual(h, k) != 0:
                nonzero += 1
    elapsed = time.monotonic() - start
    _criterion(
        9,
        "reciprocity residual is exactly 0/1 on all coprime 1 <= h < k <= 150",
        nonzero == 0 and elapsed < 30.0,
        f"{pairs} pairs, {elapsed:.1f}s",
    )


def test_criterion_10_cf_round_trip():
    mismatches = 0
    for a in range(1, 301):
        for b in range(1, 301):
            if cf_value(cf_expand(a, b)) != lowest_terms(a, b):
                mismatches += 1
    _criterion(
        10,
        "cf_value(cf_expand(a, b)) reproduces the reduced pair for all pairs <= 300",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_11_yao_knuth():
    start = time.monotonic()
    hand_oracle = yao_knuth_stat(3).total == 7  # 3/1=[3], 3/2=[1,2], 3/3=[1]
    ratios = {}
    for a in (1000, 5000, 20000):
        stat = yao_knuth_stat(a)
        predicted = (6.0 / pi**2) * a * log(a) ** 2
        ratios[a] = stat.total / predicted
    elapsed = time.monotonic() - start
    in_band = all(0.4 <= r <= 2.5 for r in ratios.values())
    _criterion(
        11,
        "S(3) = 7 and S(a)/((6/pi^2) a ln^2 a) within [0.4, 2.5] for a in "
        "{1000, 5000, 20000}",
        hand_oracle and in_band and elapsed < 120.0,
        ", ".join(f"ratio({a})={r:.4f}" for a, r in ratios.items()),
    )


def test_criterion_12_dynamics():
    ok = True
    for x in range(1, 201):
        for y in range(1, 201):
            run = dynamical_run(x, y)
            d = max(run.terminal)
            if d != builtin_gcd(x, y) or sorted(run.terminal) != [0, d]:
                ok = False
            if run.product.apply(x, y) != run.terminal:
                ok = False
            if run.product.determinant != 1:
                ok = False
    _criterion(
        12,
        "terminal coordinate equals the gcd with a determinant-1 matrix certificate, "
        "all pairs <= 200",
        ok,
    )


def test_criterion_13_interval_equivalence():
    start = time.monotonic()
    mismatches = 0
    for m in range(1, 2001):
        prime_exists, is_w = prime_interval_equivalence(m)
        if prime_exists != is_w:
            mismatches += 1
    elapsed = time.monotonic() - start
    _criterion(
        13,
        "prime-between-squares equals witness-window membership for all m <= 2000",
        mismatches == 0 and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_14_grimm_scan(run_cli):
    start = time.monotonic()
    results = grimm_scan(10**5)
    all_matched = all(matched and validated for _, _, matched, _, validated in results)
    cli = run_cli("grimm", "--scan", "1000", "--format", "report")
    elapsed = time.monotonic() - start
    # the rows as the scan that trial-divided every assigned prime gave them
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    same_rows = digest == "aff8284b5527c3a9de9e2de6189843f3074c1a8fc965fa12d4c199b45091c0f8"
    _criterion(
        14,
        "every maximal composite run with start <= 10^5 admits a re-validated "
        "distinct-prime assignment, the same rows byte for byte; the scan command exits 0",
        all_matched and same_rows and cli.returncode == 0 and elapsed < 120.0,
        f"{len(results)} runs, {elapsed:.1f}s",
    )


def test_criterion_15_pillai_window():
    value = non_w_max_run(2183, 20)
    oracle_lengths = [
        n
        for n in range(1, 21)
        if witness_by_pair_matrix(list(range(2184, 2184 + n))) is None
    ]
    _criterion(
        15,
        "the longest witness-free run from 2184 within 20 is 17, "
        "confirmed by the pairwise-gcd oracle",
        value == 17 and max(oracle_lengths) == 17,
        f"non_w_max_run={value}",
    )


def test_criterion_16_cli_determinism(run_cli):
    commands = [
        ["gcd", "240", "46", "--trace", "--format", "report"],
        ["xgcd", "240", "46", "--format", "report"],
        ["div-from-bezout", "240", "46", "--format", "report"],
        ["lowest-terms", "240", "46", "--format", "report"],
        ["cf", "355", "113", "--format", "report"],
        ["stats", "yao-knuth", "200", "--format", "report"],
        ["dynamics", "21", "13", "--format", "report"],
        ["dedekind", "5", "7", "--format", "report"],
        ["reciprocity-scan", "--limit", "30", "--format", "report"],
        ["perfect", "7", "--format", "report"],
        ["euclid-extend", "2", "3", "5", "7", "11", "13", "--format", "report"],
        ["wseq", "2", "3", "4", "5", "6", "--format", "report"],
        ["interval-equiv", "4", "--format", "report"],
        ["grimm", "89", "7", "--format", "report"],
        ["nonw", "2183", "--max", "20", "--format", "report"],
    ]
    ok = True
    for argv in commands:
        first = run_cli(*argv, hash_seed="0")
        second = run_cli(*argv, hash_seed="1")
        if first.stdout != second.stdout or first.returncode != second.returncode:
            ok = False
    _criterion(
        16,
        "every subcommand's report reproduces byte-identically across runs",
        ok,
        f"{len(commands)} subcommands",
    )
