"""Coprimality, the prime-divisor lemma, prime extension, and perfect numbers."""

import subprocess
import sys
import tracemalloc
from itertools import combinations
from math import gcd as builtin_gcd

import numpy as np
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
from euclidkit import propositions
from oracles import is_prime_trial, sigma_by_enumeration, sigma_by_multiples
from reach import mentioned

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


def test_extension_budget_bounds_the_check_of_each_input_prime():
    with pytest.raises(ResourceLimitError) as exc:
        euclid_prime_extension([10**12 + 39], step_budget=1)
    assert str(exc.value) == "smallest_prime_factor(1000000000039): exceeded 1 trial divisions"
    # budget 1 tries d = 3 only, which settles any prime below 25
    assert euclid_prime_extension([3, 23], step_budget=1) == ((3, 23), 70, 2)


def test_extension_refuses_a_value_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="^euclid_prime_extension needs a sequence, got int$"):
        euclid_prime_extension(5)


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


def test_perfect_from_mersenne_refuses_a_sigma_it_cannot_finish(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sigma called")

    monkeypatch.setattr(propositions, "sigma", unreachable)
    message = r"^factorize\(2658455991569831744654692615953842176\): exceeded 10000000 trial"
    with pytest.raises(ResourceLimitError, match=message):
        perfect_from_mersenne(61)


def test_perfect_from_mersenne_budget_seam_is_sigmas():
    # sigma takes (isqrt(2**31 - 1) - 1) // 2 = 23169 trial divisions on 2**30 * (2**31 - 1)
    value = 2**30 * (2**31 - 1)
    assert perfect_from_mersenne(31, step_budget=23169).sigma_value == 2 * value
    with pytest.raises(ResourceLimitError) as by_sigma:
        sigma(value, step_budget=23168)
    with pytest.raises(ResourceLimitError) as up_front:
        perfect_from_mersenne(31, step_budget=23168)
    assert str(up_front.value) == str(by_sigma.value)


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


def test_perfect_scan_refuses_an_over_budget_limit_before_importing_numpy():
    # this module imports numpy itself, so the check runs in a new interpreter
    child = (
        "import sys\n"
        "from euclidkit import ResourceLimitError, perfect_scan\n"
        "try:\n"
        "    perfect_scan(10**7 + 1)\n"
        "except ResourceLimitError as exc:\n"
        "    print(exc, 'numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert result.stdout == "perfect_scan(10000001): sieve limit is 10000000 False\n"


@pytest.mark.parametrize("segment", [7, 64])
def test_small_segments_give_the_same_sums_and_hits(monkeypatch, segment):
    # segment edges, squares that straddle an edge, least cofactors rounded up
    # to the next odd one, and (at 7) first multiples past the segment's end
    monkeypatch.setattr(propositions, "_SEGMENT", segment)
    starts, values, sums = [], [], []
    for m, sig in propositions._sigma_segments(2000):
        assert len(m) == len(sig) <= segment
        starts.append(int(m[0]))
        values += m.tolist()
        sums += sig.tolist()
    assert starts == list(range(1, 2001, 2 * segment))
    assert values == list(range(1, 2001, 2))
    assert sums == [sigma_by_enumeration(m) for m in values]
    assert perfect_scan(10**4) == [(6, 2), (28, 3), (496, 5), (8128, 7)]


@pytest.fixture(scope="module")
def sums_to_10_5():
    return sigma_by_multiples(10**5)


@pytest.mark.parametrize("segment", [7, 64, 1000, propositions._SEGMENT])
def test_segment_sums_match_the_multiples_oracle(monkeypatch, sums_to_10_5, segment):
    # the default segment covers 10**5 in one piece, where every run of
    # multiples fits the ramp; in the smaller ones, small d in later
    # segments run past it and take the prefix-plus-constant fallback
    monkeypatch.setattr(propositions, "_SEGMENT", segment)
    values, sums = [], []
    for m, sig in propositions._sigma_segments(10**5):
        assert m.dtype == sig.dtype == np.int32
        values += m.tolist()  # read before the next segment reuses the arrays
        sums += sig.tolist()
    assert values == list(range(1, 10**5 + 1, 2))
    assert sums == sums_to_10_5[1::2]
    # every n = 2**k * m from its odd part: sigma(n) = (2**(k+1) - 1) * sigma(m)
    odd_sum = dict(zip(values, sums))
    rebuilt = []
    for n in range(1, 10**5 + 1):
        k = (n & -n).bit_length() - 1
        rebuilt.append(((2 << k) - 1) * odd_sum[n >> k])
    assert rebuilt == sums_to_10_5[1:]


def test_sums_widen_to_int64_where_6n_passes_int32():
    # sigma(n) < 6n below 1.3 * 10**14, so int32 holds every sum while
    # 6 * limit < 2**31; the generator is lazy, so next() builds one segment
    assert next(propositions._sigma_segments(10**7))[1].dtype == np.int32
    assert next(propositions._sigma_segments((2**31 - 1) // 6))[1].dtype == np.int32
    m, sig = next(propositions._sigma_segments(2**29))
    assert m.dtype == sig.dtype == np.int64
    assert m.tolist() == list(range(1, 2 * propositions._SEGMENT, 2))
    assert sig.tolist() == sigma_by_multiples(2 * propositions._SEGMENT)[1::2]


def test_perfect_scan_peak_memory_does_not_grow_with_the_limit():
    # three arrays of one segment (2**18 int32 values, 1 MiB each): the ramp,
    # the sums and the excesses, about 3.3 MiB at any limit. A sieve over the
    # whole range holds more than 16 bytes per value, over 30 MiB at this limit.
    perfect_scan(10)  # numpy's own import is not the scan's memory
    tracemalloc.start()
    try:
        assert perfect_scan(2 * 10**6) == [(6, 2), (28, 3), (496, 5), (8128, 7)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.fixture(scope="module")
def perfect_to_8129():
    sums = sigma_by_multiples(8129)
    hits = [n for n in range(1, 8130) if sums[n] == 2 * n]
    return [(n, next(p for p in range(2, 14) if n == 2 ** (p - 1) * (2**p - 1))) for n in hits]


@pytest.mark.parametrize("segment", [7, 64, propositions._SEGMENT])
def test_scan_edges_around_each_perfect_number(monkeypatch, perfect_to_8129, segment):
    # n = 2**k * m <= limit is the edge of the walk up the powers of two
    monkeypatch.setattr(propositions, "_SEGMENT", segment)
    for perfect in (6, 28, 496, 8128):
        for limit in (perfect - 1, perfect, perfect + 1):
            found = perfect_scan(limit)
            assert found == [hit for hit in perfect_to_8129 if hit[0] <= limit], limit


def test_scan_reports_hits_ascending_across_segments_and_powers_of_two(monkeypatch):
    # Planted sums give sigma(n) = 2n at odd and even n alike: 5 and 9 (k = 0),
    # 6 and 30 (k = 1, odd parts 3 and 15 in different segments) and 28
    # (k = 2). The walk meets them as 5, 9, 6, 28, 30; the scan sorts them.
    planted = {3: 4, 5: 10, 7: 8, 9: 18, 15: 20}
    sieve = propositions._sigma_segments

    def planting(limit):
        for m, sig in sieve(limit):
            for j, value in enumerate(m.tolist()):
                sig[j] = planted.get(value, 1)
            yield m, sig

    classified = []
    monkeypatch.setattr(propositions, "_SEGMENT", 7)
    monkeypatch.setattr(propositions, "_sigma_segments", planting)
    monkeypatch.setattr(propositions, "classify_perfect", lambda n: classified.append(n) or 0)
    assert perfect_scan(40) == [(5, 0), (6, 0), (9, 0), (28, 0), (30, 0)]
    assert classified == [5, 6, 9, 28, 30]
    assert perfect_scan(29) == [(5, 0), (6, 0), (9, 0), (28, 0)]


def test_classify_perfect_does_not_reach_the_sieve():
    read, names = mentioned(classify_perfect)
    assert {"sigma", "factorize", "smallest_prime_factor"} <= read
    assert not {"_sigma_sieve", "_sigma_segments", "numpy", "np"} & (read | names)
    # and the mirror: the sieve sums divisors from the definition, assuming
    # neither primality nor the shape classify_perfect then checks
    read, names = mentioned(propositions._sigma_segments)
    assert read == {"_sigma_segments"}
    assert not {
        "lucas_lehmer",
        "perfect_from_mersenne",
        "classify_perfect",
        "sigma",
        "factorize",
        "smallest_prime_factor",
    } & (read | names)


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
