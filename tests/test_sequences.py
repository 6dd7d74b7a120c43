"""Coprime witnesses, the prime-between-squares equivalence, and composite runs."""

import ast
import inspect
import random
import textwrap
from math import gcd as builtin_gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclidkit import (
    DomainError,
    GrimmAssignment,
    ResourceLimitError,
    composite_runs,
    default_window_bound,
    grimm_assign,
    grimm_scan,
    interval_equivalence_scan,
    non_w_max_run,
    prime_interval_equivalence,
    primes_up_to,
    verify_assignment,
    w_witness,
)
from euclidkit.integers import _window_has_prime
from euclidkit.sequences import _interval_sides
from oracles import (
    assignment_by_backtracking,
    is_prime_trial,
    prime_divisors_by_trial,
    witness_by_pair_matrix,
    witness_by_pairwise_gcd,
)

# ---------------------------------------------------------------------------
# coprime witnesses


def test_w_witness_frozen_values():
    report = w_witness([2, 3, 4, 5, 6])
    assert report.witness_index == 4
    assert report.witness_value == 5
    assert w_witness([2, 4, 6]).witness_index is None
    assert w_witness([2, 4, 6]).witness_value is None
    assert w_witness([3, 5, 7]).witness_index == 1
    assert w_witness([1]).witness_index == 1
    assert w_witness([10]).witness_index == 1


def test_w_witness_is_least():
    report = w_witness([5, 7, 9])  # every element qualifies; 5 comes first
    assert report.witness_index == 1
    assert report.witness_value == 5


@given(
    values=st.sets(st.integers(1, 10**4), min_size=1, max_size=20).map(sorted)
)
def test_w_witness_matches_pairwise_gcd_oracle(values):
    report = w_witness(values)
    expected = witness_by_pair_matrix(list(values))
    if expected is None:
        assert report.witness_index is None
    else:
        assert report.witness_index == expected
        v = values[expected - 1]
        assert all(builtin_gcd(v, u) == 1 for u in values if u != v)


@settings(max_examples=60, deadline=None)
@given(
    values=st.sets(st.integers(1, 10**5), min_size=1, max_size=200).map(sorted)
)
def test_w_witness_matches_plain_pairwise_gcd_across_blocks(values):
    assert w_witness(values).witness_index == witness_by_pairwise_gcd(values)


def _evens_with_odd_prime_at(length: int, index: int) -> list[int]:
    """2(M+1), ..., 2(M+length) with the entry at 1-based index replaced by
    the prime 2(M+index) + 1, which exceeds every M+k, so it is the only
    element coprime to all the others."""
    base = 1000
    while not is_prime_trial(2 * (base + index) + 1):
        base += 1
    values = [2 * (base + k) for k in range(1, length + 1)]
    values[index - 1] += 1
    return values


@pytest.mark.parametrize(
    "length, index",
    [(32, 31), (32, 32), (33, 31), (33, 32), (33, 33), (64, 33), (64, 64), (65, 64), (65, 65)],
)
def test_w_witness_at_block_edges(length, index):
    values = _evens_with_odd_prime_at(length, index)
    assert w_witness(values).witness_index == index
    assert witness_by_pairwise_gcd(values) == index
    assert w_witness([2 * v for v in range(1, length + 1)]).witness_index is None


def test_w_witness_sees_a_factor_shared_across_blocks():
    # 101 and 103 share a factor only with their product, 49 places on
    values = [p for p in range(101, 400) if is_prime_trial(p)][:49] + [101 * 103]
    assert w_witness(values).witness_index == 3
    assert witness_by_pairwise_gcd(values) == 3


def test_w_witness_domain():
    with pytest.raises(DomainError):
        w_witness([])
    with pytest.raises(DomainError):
        w_witness([3, 3])
    with pytest.raises(DomainError):
        w_witness([5, 2])
    with pytest.raises(DomainError):
        w_witness([0, 1])


# ---------------------------------------------------------------------------
# primes between squares vs witness windows


def test_interval_equivalence_frozen_values():
    assert prime_interval_equivalence(1) == (True, True)
    assert prime_interval_equivalence(4) == (True, True)
    assert prime_interval_equivalence(100) == (True, True)


def test_interval_equivalence_both_sides_up_to_600():
    for m in range(1, 601):
        prime_exists, is_w = prime_interval_equivalence(m)
        assert prime_exists == is_w
        # third route: trial-division primality over the window
        window = range(m * m + 1, (m + 1) * (m + 1))
        assert prime_exists == any(is_prime_trial(v) for v in window)


def test_interval_equivalence_domain():
    with pytest.raises(DomainError):
        prime_interval_equivalence(0)
    with pytest.raises(DomainError):
        interval_equivalence_scan(-1)
    assert interval_equivalence_scan(0) == []


def test_interval_scan_matches_the_single_window_calls_up_to_300():
    scan = interval_equivalence_scan(300)
    assert scan == [(m, *prime_interval_equivalence(m)) for m in range(1, 301)]
    for m in range(1, 301):
        window = range(m * m + 1, (m + 1) * (m + 1))
        assert w_witness(window).witness_index == witness_by_pairwise_gcd(list(window))


def test_interval_scan_sieves_its_base_primes_within_the_budget():
    assert len(interval_equivalence_scan(50, sieve_budget=50)) == 50
    with pytest.raises(ResourceLimitError):
        interval_equivalence_scan(50, sieve_budget=49)
    with pytest.raises(ResourceLimitError):
        prime_interval_equivalence(50, sieve_budget=49)


def _names_reached(*roots):
    """Read each root and every package function it names, in turn.

    Returns the qualified names of the functions read and every name they
    mention, as a variable or an attribute, called or not.
    """
    read, names, todo = set(), set(), list(roots)
    while todo:
        fn = todo.pop()
        if fn.__qualname__ in read:
            continue
        read.add(fn.__qualname__)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
                named = fn.__globals__.get(node.id)
                if inspect.isfunction(named) and named.__module__.startswith("euclidkit"):
                    todo.append(named)
    return read, names


_PRIMALITY = {"primes_up_to", "factorize", "smallest_prime_factor", "_window_has_prime"}


def test_witness_side_tests_no_primality():
    read, names = _names_reached(w_witness)
    assert read == {
        "w_witness",
        "_increasing_naturals",
        "_at_least",
        "_integer",
        "_shown",
        "_shares_factor",
    }
    assert "gcd" in names
    assert not names & _PRIMALITY


def test_prime_side_takes_no_gcd():
    read, names = _names_reached(_window_has_prime, primes_up_to)
    assert read == {"_window_has_prime", "primes_up_to", "_at_least", "_integer", "_shown"}
    assert "gcd" not in names


def test_interval_sides_reach_both_scans():
    read, names = _names_reached(_interval_sides)
    assert {"w_witness", "_window_has_prime"} <= read
    assert {"gcd", "_window_has_prime"} <= names


@pytest.mark.parametrize(
    "op, args",
    [
        (w_witness, ([True, 2, 3],)),
        (w_witness, ([1, 2.5],)),
        (prime_interval_equivalence, (True,)),
        (interval_equivalence_scan, (2.0,)),
        (grimm_assign, (2.5, 3)),
        (grimm_assign, (24, True)),
        (grimm_scan, (True,)),
        (composite_runs, (10.0,)),
        (non_w_max_run, (True, 3)),
        (non_w_max_run, (5, 3.0)),
        (default_window_bound, (2.5,)),
    ],
)
def test_bool_and_float_arguments_are_domain_errors(op, args):
    with pytest.raises(DomainError, match="must be an integer, got (bool|float)"):
        op(*args)


def test_window_with_large_prime_is_a_w_sequence():
    rng = random.Random(4242)
    checked = 0
    for _ in range(300):
        m = rng.randint(1, 10**5)
        n = rng.randint(2, 40)
        window = list(range(m + 1, m + n + 1))
        primes_beyond_n = [v for v in window if v > n and is_prime_trial(v)]
        if not primes_beyond_n:
            continue
        checked += 1
        report = w_witness(window)
        assert report.witness_index is not None
        # the prime position itself is a valid witness
        p = primes_beyond_n[0]
        assert all(builtin_gcd(p, u) == 1 for u in window if u != p)
        assert report.witness_value <= p
    assert checked > 200  # the property was actually exercised


# ---------------------------------------------------------------------------
# distinct prime divisors for composite runs


def test_grimm_assign_frozen_values():
    result = grimm_assign(89, 7)
    assert result.assignment == (3, 7, 23, 31, 47, 5, 2)
    assert verify_assignment(result)
    result = grimm_assign(24, 4)
    assert result.assignment == (5, 13, 3, 2)
    assert verify_assignment(result)


def test_grimm_assign_rejects_windows_with_primes():
    with pytest.raises(DomainError):
        grimm_assign(4, 3)  # 5 is prime
    with pytest.raises(DomainError):
        grimm_assign(0, 1)
    with pytest.raises(DomainError):
        grimm_assign(24, 0)


def test_grimm_assignment_properties_on_every_run_up_to_2000():
    for start, length in composite_runs(2000):
        result = grimm_assign(start, length)
        assert result is not None
        assert verify_assignment(result)
        assert len(set(result.assignment)) == length
        for i, p in enumerate(result.assignment):
            assert (start + 1 + i) % p == 0
            assert is_prime_trial(p)


def test_grimm_assign_matches_exhaustive_backtracking_on_small_runs():
    for start, length in composite_runs(300):
        divisor_sets = [
            prime_divisors_by_trial(v) for v in range(start + 1, start + length + 1)
        ]
        matched = grimm_assign(start, length) is not None
        assert matched == (assignment_by_backtracking(divisor_sets) is not None)


def test_verify_assignment_rejects_tampering():
    good = grimm_assign(89, 7)
    assert verify_assignment(good)
    duplicated = GrimmAssignment(89, 7, (3, 7, 23, 31, 47, 5, 3))
    assert not verify_assignment(duplicated)
    wrong_divisor = GrimmAssignment(89, 7, (3, 7, 23, 31, 47, 5, 7))
    assert not verify_assignment(wrong_divisor)
    non_prime = GrimmAssignment(89, 7, (9, 7, 23, 31, 47, 5, 2))
    assert not verify_assignment(non_prime)
    wrong_length = GrimmAssignment(89, 6, (3, 7, 23, 31, 47, 5, 2))
    assert not verify_assignment(wrong_length)


def test_composite_runs_frozen_values():
    assert composite_runs(30) == [
        (3, 1),
        (5, 1),
        (7, 3),
        (11, 1),
        (13, 3),
        (17, 1),
        (19, 3),
        (23, 5),
        (29, 1),
    ]
    for start, length in composite_runs(500):
        assert is_prime_trial(start)
        assert is_prime_trial(start + length + 1)
        for v in range(start + 1, start + length + 1):
            assert not is_prime_trial(v)


def test_grimm_scan_small_horizon():
    results = grimm_scan(1000)
    assert len(results) == 167
    assert all(matched and validated for _, _, matched, _, validated in results)
    starts = [m for m, *_ in results]
    assert starts == [s for s, _ in composite_runs(1020) if s < 1000]


def test_grimm_scan_keeps_the_run_that_starts_at_limit():
    assert grimm_scan(7) == [
        (3, 1, True, (2,), True),
        (5, 1, True, (2,), True),
        (7, 3, True, (2, 3, 5), True),
    ]
    for limit in range(4, 201):
        runs = [(m, n) for m, n, *_ in grimm_scan(limit)]
        assert runs == [(s, n) for s, n in composite_runs(2 * limit) if s <= limit], limit


# ---------------------------------------------------------------------------
# witness-free runs


def test_non_w_max_run_frozen_values():
    assert non_w_max_run(2183, 20) == 17
    assert non_w_max_run(1, 10) == 0


def test_non_w_max_run_agrees_with_oracle_windows():
    # witness-freeness checked independently for every window length
    m = 2183
    lengths = [
        n
        for n in range(1, 21)
        if witness_by_pair_matrix(list(range(m + 1, m + n + 1))) is None
    ]
    assert max(lengths) == 17
    assert non_w_max_run(m, 20) == 17


def test_non_w_max_run_not_monotone_in_length():
    # at m = 2183 the run of 17 contains shorter windows that do have witnesses
    m = 2183
    free = {
        n
        for n in range(1, 18)
        if w_witness(range(m + 1, m + n + 1)).witness_index is None
    }
    assert 17 in free
    assert free != set(range(1, 18))


def test_default_window_bound_values():
    assert default_window_bound(0) == 2
    assert default_window_bound(2183) == 237
    assert default_window_bound(1) >= 1
    with pytest.raises(DomainError):
        default_window_bound(-1)


def test_non_w_max_run_domain_and_cap():
    with pytest.raises(DomainError):
        non_w_max_run(-1, 5)
    with pytest.raises(DomainError):
        non_w_max_run(10, 0)
    with pytest.raises(DomainError):
        non_w_max_run(10, 50, window_cap=20)
    with pytest.raises(DomainError, match="got n_max = <16610-bit integer>"):
        non_w_max_run(10, 10**5000)
