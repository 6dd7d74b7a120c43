"""Primes, factorization, sigma, and Lucas-Lehmer against brute-force oracles."""

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
    dedekind_sum,
    factorize,
    lucas_lehmer,
    perfect_scan,
    primes_up_to,
    rational_str,
    reciprocity_residual,
    sigma,
    smallest_prime_factor,
    w_witness,
    yao_knuth_stat,
)
from oracles import is_prime_trial, sigma_by_enumeration

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


def test_spf_domain_and_budget():
    with pytest.raises(DomainError):
        smallest_prime_factor(1)
    with pytest.raises(DomainError):
        smallest_prime_factor(0)
    with pytest.raises(ResourceLimitError):
        smallest_prime_factor(2**31 - 1, step_budget=100)


def test_primes_up_to_budget():
    with pytest.raises(ResourceLimitError):
        primes_up_to(10**6, sieve_budget=1000)


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


def test_lucas_lehmer_rejects_composite_exponent():
    with pytest.raises(DomainError):
        lucas_lehmer(4)
    with pytest.raises(DomainError):
        lucas_lehmer(1)


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
