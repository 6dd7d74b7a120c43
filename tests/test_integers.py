"""Primes, factorization, sigma, and Lucas-Lehmer against brute-force oracles."""

import ast
import inspect
import random
from array import array
from bisect import bisect_right
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from euclidkit import (
    DomainError,
    Factorization,
    ResourceLimitError,
    average_cf_length,
    cli,
    dedekind_sum,
    dynamical_run,
    euclid_lemma_witness,
    factorize,
    grimm_scan,
    interval_equivalence_scan,
    lucas_lehmer,
    perfect_from_mersenne,
    perfect_scan,
    primes_up_to,
    propositions,
    rational_str,
    reciprocity_residual,
    reciprocity_scan,
    sigma,
    smallest_prime_factor,
    w_witness,
    yao_knuth_stat,
)
from euclidkit.integers import _least_primes, _window_flags
from oracles import (
    is_prime_trial,
    lucas_lehmer_by_remainder,
    prime_divisors_by_trial,
    sigma_by_enumeration,
)
from reach import mentioned, reached

# ---------------------------------------------------------------------------
# smallest_prime_factor / primes_up_to


def test_smallest_prime_factor_frozen_values():
    assert smallest_prime_factor(2) == 2
    assert smallest_prime_factor(9) == 3
    assert smallest_prime_factor(91) == 7
    assert smallest_prime_factor(97) == 97
    assert smallest_prime_factor(2**31 - 1) == 2**31 - 1  # prime


def test_smallest_prime_factor_bound_and_primality():
    for n in range(2, 10001):
        p = smallest_prime_factor(n)
        assert n % p == 0
        assert p <= isqrt(n) or p == n
        assert is_prime_trial(p)


def test_primes_up_to_equals_spf_fixpoints():
    primes = primes_up_to(10000)
    assert primes == [n for n in range(2, 10001) if smallest_prime_factor(n) == n]
    assert len(primes) == 1229


def test_primes_up_to_frozen_values():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_up_to_matches_trial_division_at_every_limit_to_2000():
    # every square and square +- 1 seam between the base primes and the window
    primes = [n for n in range(2001) if is_prime_trial(n)]
    for limit in range(2001):
        assert primes_up_to(limit) == primes[: bisect_right(primes, limit)], limit


def test_window_flags_match_trial_division_on_random_windows():
    # windows of up to 300 values with isqrt(hi) < lo, hi spread over 2 .. 10**6
    rng = random.Random(9)
    base = primes_up_to(1000)
    for _ in range(300):
        hi = rng.randint(2, 10 ** rng.randint(1, 6))
        lo = rng.randint(max(isqrt(hi) + 1, hi - 299), hi)
        expected = [is_prime_trial(n) for n in range(lo, hi + 1)]
        assert list(_window_flags(lo, hi, base)) == expected, (lo, hi)


def test_spf_domain_and_budget():
    with pytest.raises(DomainError):
        smallest_prime_factor(1)
    with pytest.raises(DomainError):
        smallest_prime_factor(0)
    with pytest.raises(ResourceLimitError):
        smallest_prime_factor(2**31 - 1, step_budget=100)
    # trial division k tries d = 2k + 1, so p*p takes (p - 1) // 2 of them
    p = 10007
    assert smallest_prime_factor(p * p, step_budget=(p - 1) // 2) == p
    refusal = r"^smallest_prime_factor\(100140049\): exceeded 5002 trial divisions$"
    with pytest.raises(ResourceLimitError, match=refusal):
        smallest_prime_factor(p * p, step_budget=(p - 1) // 2 - 1)


def test_primes_up_to_budget():
    with pytest.raises(ResourceLimitError):
        primes_up_to(10**6, sieve_budget=1000)


@pytest.mark.parametrize(
    "lo, fill, bound",
    [(0, range(20001), isqrt(20000)), (10**12 + 1, [0] * 2000, 2000)],
    ids=["to-20000", "shifted-window"],
)
def test_least_primes_matches_trial_division(lo, fill, bound):
    # entry i is the least prime up to bound dividing lo + i (the least
    # divisor > 1 of a number is prime), or its fill where none divides it
    table = _least_primes(lo, array("I", fill), primes_up_to(bound))
    assert len(table) == len(fill)
    for i, entry in enumerate(table):
        n = lo + i
        assert entry == next((d for d in range(2, bound + 1) if n % d == 0), fill[i]), n
        if lo == 0 and n >= 2:  # from table[n] = n: n stays exactly at the primes
            assert (entry == n) == is_prime_trial(n), n


# ---------------------------------------------------------------------------
# factorize


def test_factorize_frozen_values():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(360).primes() == [2, 3, 5]
    assert factorize(2**10).factors == ((2, 10),)
    assert factorize(30031).factors == ((59, 1), (509, 1))


def test_factorize_round_trip_up_to_10000():
    for n in range(1, 10001):
        fact = factorize(n)
        assert fact.value() == n
        bases = [p for p, _ in fact.factors]
        assert bases == sorted(set(bases))
        for p, e in fact.factors:
            assert e >= 1
            assert is_prime_trial(p)


def test_factorization_value_is_reconstruction():
    fact = Factorization(((2, 2), (7, 1)))
    assert fact.value() == 28
    assert fact.primes() == [2, 7]


def test_factorize_domain_and_budget():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(ResourceLimitError):
        factorize((2**31 - 1) * (2**31 - 1), step_budget=100)
    p = 10007  # as in test_spf_domain_and_budget
    assert factorize(p * p, step_budget=(p - 1) // 2).factors == ((p, 2),)
    with pytest.raises(
        ResourceLimitError, match=r"^factorize\(100140049\): exceeded 5002 trial divisions$"
    ):
        factorize(p * p, step_budget=(p - 1) // 2 - 1)


@given(st.integers(1, 10**7))
def test_factorize_refuses_exactly_past_its_odd_trial_count(n):
    odd, rest = [], n  # odd prime factors of n with multiplicity, ascending
    for p in prime_divisors_by_trial(n):
        while p > 2 and rest % p == 0:
            odd.append(p)
            rest //= p
    # trial k tries 2k + 1 while its square is at most the part of n left:
    # up to the second largest odd factor, then up to the largest one's root
    *_, second, largest = [1, 1] + odd
    trials = max((second - 1) // 2, (isqrt(largest) - 1) // 2)
    assert factorize(n, step_budget=trials).primes() == prime_divisors_by_trial(n)
    if trials:
        refusal = rf"^factorize\({n}\): exceeded {trials - 1} trial divisions$"
        with pytest.raises(ResourceLimitError, match=refusal):
            factorize(n, step_budget=trials - 1)


def test_factorization_and_smallest_prime_factor_share_one_trial_loop():
    assert "_trial" in reached(factorize)[0] & reached(smallest_prime_factor)[0]


# ---------------------------------------------------------------------------
# sigma


def test_sigma_frozen_values():
    assert sigma(1) == 1
    assert sigma(6) == 12
    assert sigma(12) == 28
    assert sigma(28) == 56
    assert sigma(496) == 992
    assert sigma(8128) == 16256


def test_sigma_matches_enumeration_up_to_500():
    for n in range(1, 501):
        assert sigma(n) == sigma_by_enumeration(n)


def test_sigma_multiplicative_up_to_200():
    from math import gcd

    table = {n: sigma(n) for n in range(1, 201)}
    for m in range(1, 201):
        for n in range(1, 201):
            if gcd(m, n) == 1:
                assert sigma(m * n) == table[m] * table[n]


# ---------------------------------------------------------------------------
# lucas_lehmer


def test_lucas_lehmer_known_exponents():
    assert [p for p in primes_up_to(31) if lucas_lehmer(p)] == [2, 3, 5, 7, 13, 17, 19, 31]


def test_lucas_lehmer_agrees_with_trial_division():
    for p in primes_up_to(19):
        assert lucas_lehmer(p) == is_prime_trial(2**p - 1)


def test_lucas_lehmer_shift_add_matches_the_remainder_loop():
    # every odd prime p < 1500: 14 Mersenne primes and 224 composite 2**p - 1
    exponents = primes_up_to(1499)[1:]
    verdicts = [lucas_lehmer(p) for p in exponents]
    assert verdicts == [lucas_lehmer_by_remainder(p) for p in exponents]
    mersenne = [p for p, prime in zip(exponents, verdicts) if prime]
    assert mersenne == [3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279]


def test_lucas_lehmer_rejects_composite_exponent():
    with pytest.raises(DomainError):
        lucas_lehmer(4)
    with pytest.raises(DomainError):
        lucas_lehmer(1)


def test_lucas_lehmer_budget_bounds_the_squarings():
    # 11211 squarings of 11213-bit numbers would take seconds; refused up front
    message = r"^lucas_lehmer\(11213\): exceeded 100 squarings$"
    with pytest.raises(ResourceLimitError, match=message):
        lucas_lehmer(11213, step_budget=100)


# ---------------------------------------------------------------------------
# exact rationals


@given(
    p=st.integers(-10**9, 10**9),
    q=st.integers(1, 10**9),
    r=st.integers(-10**9, 10**9),
    s=st.integers(1, 10**9),
)
def test_exact_rational_add_then_subtract_is_identity(p, q, r, s):
    x = Fraction(p, q)
    y = Fraction(r, s)
    assert (x + y) - y == x


def test_rational_str_frozen_values():
    assert rational_str(Fraction(1, 2)) == "1/2"
    assert rational_str(Fraction(0)) == "0/1"
    assert rational_str(Fraction(-1, 14)) == "-1/14"
    assert rational_str(Fraction(36, 24)) == "3/2"
    # past the int-to-str digit limit, as _shown shows an int
    assert rational_str(Fraction(10**5000 + 1, 3)) == "<16610-bit integer>/3"


# ---------------------------------------------------------------------------
# one integer check for every layer


@pytest.mark.parametrize(
    "op, args",
    [
        (yao_knuth_stat, (2.5,)),
        (average_cf_length, (3.0,)),
        (reciprocity_residual, (2.5, 1)),
        (dedekind_sum, (True, 5)),
        (reciprocity_residual, (True, 2)),
        (primes_up_to, (True,)),
        (factorize, (True,)),
        (reciprocity_scan, (True,)),
    ],
)
def test_bool_and_float_arguments_are_domain_errors(op, args):
    with pytest.raises(DomainError, match="must be an integer, got (bool|float)"):
        op(*args)


# Messages show an int too long for str() by its size, so these raise their
# typed error instead of the ValueError str() gives past 4,300 digits.
@pytest.mark.parametrize(
    "op, args, kwargs, error",
    [
        (primes_up_to, (10**5000,), {}, ResourceLimitError),
        (smallest_prime_factor, (10**5000 + 1,), {"step_budget": 3}, ResourceLimitError),
        (factorize, (10**5000 + 1,), {"step_budget": 3}, ResourceLimitError),
        (perfect_scan, (10**5000,), {}, ResourceLimitError),
        (dedekind_sum, (1, -(10**5000)), {}, DomainError),
        (reciprocity_residual, (10**5000, 10**5000), {}, DomainError),
        (w_witness, ([-(10**5000), 1],), {}, DomainError),
        (reciprocity_scan, (10**5000,), {}, ResourceLimitError),
        (grimm_scan, (10**5000,), {}, ResourceLimitError),
        (interval_equivalence_scan, (10**5000,), {}, ResourceLimitError),
        (yao_knuth_stat, (10**5000,), {}, ResourceLimitError),
        (average_cf_length, (10**5000,), {}, ResourceLimitError),
    ],
)
def test_huge_arguments_keep_their_typed_errors(op, args, kwargs, error):
    with pytest.raises(error, match="<16610-bit integer>"):
        op(*args, **kwargs)


def test_negative_arguments_name_the_least_value():
    with pytest.raises(DomainError, match=r"^primes_up_to needs limit >= 0, got -1$"):
        primes_up_to(-1)
    with pytest.raises(DomainError, match=r"^smallest_prime_factor needs n >= 2, got -1$"):
        smallest_prime_factor(-1)
    with pytest.raises(DomainError, match=r"^sigma needs n >= 1, got -1$"):
        sigma(-1)
    with pytest.raises(DomainError, match=r"^lucas_lehmer needs a prime exponent, got -3$"):
        lucas_lehmer(-3)
    with pytest.raises(DomainError, match=r"^lucas_lehmer needs a prime exponent, got 4$"):
        perfect_from_mersenne(4)
    with pytest.raises(DomainError, match=r"^reciprocity_residual needs h >= 1, got 0$"):
        reciprocity_residual(0, 3)
    with pytest.raises(DomainError, match=r"^euclid_lemma_witness needs a >= 1, got 0$"):
        euclid_lemma_witness(3, 0, 5)
    with pytest.raises(DomainError, match=r"^dynamical_run needs y >= 0, got -2$"):
        dynamical_run(3, -2)
    # each argument on its own, first fault first: x is named though y is a bool
    with pytest.raises(DomainError, match=r"^dynamical_run needs x >= 0, got -1$"):
        dynamical_run(-1, True)
    with pytest.raises(DomainError, match=r"^reciprocity_scan needs limit >= 0, got -1$"):
        reciprocity_scan(-1)


def test_no_argument_is_checked_twice(monkeypatch):
    # the CLI leaves reciprocity_scan's limit to the library's own check
    named = {
        getattr(node, "id", None) or getattr(node, "name", None) or getattr(node, "attr", None)
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
    }
    assert "_at_least" not in named
    # perfect_from_mersenne trial-divides its exponent only in lucas_lehmer,
    # so once, under the caller's budget
    assert "smallest_prime_factor" in reached(perfect_from_mersenne)[0]
    with pytest.raises(ResourceLimitError, match=r"^smallest_prime_factor\(9\): exceeded 0 "):
        perfect_from_mersenne(9, step_budget=0)
    monkeypatch.setattr(propositions, "lucas_lehmer", lambda p, step_budget=None: True)
    read, names = mentioned(perfect_from_mersenne)
    assert "smallest_prime_factor" not in read | names
