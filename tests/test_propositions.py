"""Coprimality, the prime-divisor lemma, prime extension, and perfect numbers."""

from itertools import combinations
from math import gcd as builtin_gcd

import pytest

from euclidkit import (
    DomainError,
    HypothesisFailedError,
    LemmaWitness,
    ResourceLimitError,
    classify_perfect,
    coprime_by_prop1,
    euclid_lemma_witness,
    euclid_prime_extension,
    perfect_from_mersenne,
    perfect_scan,
    primes_up_to,
    sigma,
)
from oracles import is_prime_trial

# ---------------------------------------------------------------------------
# coprimality by the subtraction chain


def test_coprime_by_prop1_matches_gcd_up_to_300():
    for a in range(1, 301):
        for b in range(1, 301):
            if a == b:
                continue
            assert coprime_by_prop1(a, b) == (builtin_gcd(a, b) == 1)


def test_coprime_by_prop1_equal_inputs():
    assert coprime_by_prop1(1, 1) is True
    with pytest.raises(DomainError):
        coprime_by_prop1(4, 4)


# ---------------------------------------------------------------------------
# prime dividing a product divides a factor


def test_lemma_witness_divides_over_all_small_cases():
    for p in primes_up_to(100):
        for a in range(1, 101):
            for b in range(1, 101):
                witness = euclid_lemma_witness(p, a, b)
                if (a * b) % p != 0:
                    assert witness is LemmaWitness.NEITHER
                elif witness is LemmaWitness.DIVIDES_A:
                    assert a % p == 0
                else:
                    assert witness is LemmaWitness.DIVIDES_B
                    assert b % p == 0
                    assert a % p != 0  # DividesA preferred on ties


def test_lemma_witness_frozen_values():
    assert euclid_lemma_witness(2, 4, 6) is LemmaWitness.DIVIDES_A
    assert euclid_lemma_witness(3, 5, 6) is LemmaWitness.DIVIDES_B
    assert euclid_lemma_witness(5, 3, 4) is LemmaWitness.NEITHER
    assert euclid_lemma_witness(7, 7, 1) is LemmaWitness.DIVIDES_A


def test_lemma_witness_rejects_non_prime_p():
    with pytest.raises(DomainError):
        euclid_lemma_witness(4, 2, 2)
    with pytest.raises(DomainError):
        euclid_lemma_witness(1, 2, 2)
    with pytest.raises(DomainError):
        euclid_lemma_witness(2, 0, 3)


# ---------------------------------------------------------------------------
# a prime outside any finite list


def test_extension_on_every_subset_of_the_first_8_primes():
    first_eight = [2, 3, 5, 7, 11, 13, 17, 19]
    for size in range(0, 9):
        for subset in combinations(first_eight, size):
            ext = euclid_prime_extension(subset)
            product = 1
            for p in subset:
                product *= p
            assert ext.e_value == product + 1
            assert ext.new_prime not in subset
            assert is_prime_trial(ext.new_prime)
            assert ext.e_value % ext.new_prime == 0


def test_extension_frozen_values():
    ext = euclid_prime_extension([2, 3, 5, 7, 11, 13])
    assert ext.e_value == 30031
    assert ext.new_prime == 59
    assert euclid_prime_extension([]).new_prime == 2
    assert euclid_prime_extension([2]).new_prime == 3
    assert euclid_prime_extension([2, 3, 5, 7]).new_prime == 211


def test_extension_rejects_non_primes_and_duplicates():
    with pytest.raises(DomainError):
        euclid_prime_extension([2, 4])
    with pytest.raises(DomainError):
        euclid_prime_extension([2, 2])


# ---------------------------------------------------------------------------
# perfect numbers


def test_perfect_from_mersenne_frozen_certificates():
    for p, value in [(2, 6), (3, 28), (5, 496), (7, 8128), (13, 33550336)]:
        cert = perfect_from_mersenne(p)
        assert cert.value == value
        assert cert.mersenne == 2**p - 1
        assert cert.sigma_value == 2 * value
        assert sigma(value) == 2 * value


def test_perfect_from_mersenne_composite_mersenne_fails_loudly():
    with pytest.raises(HypothesisFailedError):
        perfect_from_mersenne(11)
    with pytest.raises(HypothesisFailedError):
        perfect_from_mersenne(23)
    with pytest.raises(DomainError):
        perfect_from_mersenne(4)


def test_perfect_from_mersenne_budget():
    with pytest.raises(ResourceLimitError):
        perfect_from_mersenne(61, step_budget=10**5)


def test_classify_perfect_frozen_values():
    assert classify_perfect(6) == 2
    assert classify_perfect(28) == 3
    assert classify_perfect(496) == 5
    assert classify_perfect(8128) == 7
    assert classify_perfect(33550336) == 13
    assert classify_perfect(12) is None
    assert classify_perfect(1) is None
    with pytest.raises(DomainError):
        classify_perfect(0)


def test_exhaustive_search_to_ten_million():
    assert perfect_scan(10**7) == [(6, 2), (28, 3), (496, 5), (8128, 7)]


def test_perfect_scan_honours_its_sieve_budget():
    assert perfect_scan(10**4, sieve_budget=10**4) == [(6, 2), (28, 3), (496, 5), (8128, 7)]
    with pytest.raises(ResourceLimitError, match=r"perfect_scan\(10001\): sieve limit is 10000"):
        perfect_scan(10**4 + 1, sieve_budget=10**4)
    with pytest.raises(ResourceLimitError):
        perfect_scan(10**7 + 1)


def test_classify_agrees_with_scan_below_10000():
    found = {n for n, _ in perfect_scan(10**4)}
    for n in range(1, 10001):
        assert (classify_perfect(n) is not None) == (n in found)


def test_euler_decomposition_round_trips():
    for n, p in perfect_scan(10**7):
        cert = perfect_from_mersenne(p)
        assert cert.value == n
        assert classify_perfect(n) == p


# ---------------------------------------------------------------------------
# one integer check for every entry point, naming its own argument


@pytest.mark.parametrize(
    "op, args, name",
    [
        (perfect_scan, (True,), "limit"),
        (perfect_scan, (2.5,), "limit"),
        (classify_perfect, (True,), "n"),
        (coprime_by_prop1, (True, True), "a"),
        (euclid_lemma_witness, (2, True, 4), "a"),
        (euclid_lemma_witness, (2.0, 3, 4), "p"),
        (euclid_prime_extension, ([2, True],), r"primes\[i\]"),
        (perfect_from_mersenne, (True,), "p"),
    ],
)
def test_bool_and_float_arguments_are_domain_errors(op, args, name):
    with pytest.raises(DomainError, match=rf"^{name} must be an integer, got (bool|float)$"):
        op(*args)
