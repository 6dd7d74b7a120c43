"""Coprime witnesses, the prime-between-squares equivalence, and composite runs."""

import gc
import hashlib
import inspect
import random
import time
from array import array
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
from euclidkit import sequences
from euclidkit.integers import (
    DEFAULT_SIEVE_LIMIT,
    _least_primes,
    _window_flags,
    smallest_prime_factor,
)
from euclidkit.sequences import (
    _certified_primes,
    _confirmed_match,
    _interval_sides,
    _match,
    _run_divisors,
    _witness_index,
)
from oracles import (
    assignment_by_backtracking,
    is_prime_trial,
    prime_divisors_by_trial,
    witness_by_pair_matrix,
    witness_by_pairwise_gcd,
)
from reach import divisions, mentioned, reached

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


@settings(max_examples=80, deadline=None)
@given(
    start=st.integers(1, 10**6),
    length=st.one_of(st.sampled_from([31, 32, 33, 64, 65]), st.integers(1, 200)),
)
def test_witness_index_on_a_range_matches_the_same_values_as_a_tuple(start, length):
    # a range's block products come from math.perm, a tuple's from math.prod
    window = range(start, start + length)
    assert _witness_index(window) == _witness_index(tuple(window))


@settings(max_examples=80, deadline=None)
@given(
    start=st.integers(1, 10**6),
    length=st.one_of(st.sampled_from([1, 2, 31, 32, 33, 63, 64, 65]), st.integers(1, 200)),
)
def test_witness_index_on_a_range_matches_the_pairwise_oracle(start, length):
    # the range's full blocks come from one map of math.perm, its tail from
    # one more perm, and its own-block test from gcd(v * v, product)
    window = range(start, start + length)
    assert _witness_index(window) == witness_by_pairwise_gcd(list(window))


def test_w_witness_sees_a_factor_shared_inside_its_own_block():
    # 101 and 103 share a factor only with their product, the last value of
    # the same block of 32, so no other block's product can rule them out
    values = [p for p in range(101, 400) if is_prime_trial(p)][:31] + [101 * 103]
    assert len(values) == sequences._BLOCK
    assert w_witness(values).witness_index == 3
    assert witness_by_pairwise_gcd(values) == 3
    assert w_witness([101, 103, 107, 101 * 103]).witness_index == 3


@pytest.mark.parametrize("length", [32, 33, 37])
def test_witness_index_on_a_range_sees_the_neighbour_31_places_on(length):
    # 1147 = 31 * 37 shares a factor with 1178 = 31 * 38 only, 31 places on in
    # its own block; 1184 = 32 * 37 is past every window here
    window = range(1147, 1147 + length)
    assert [v for v in window[1:] if builtin_gcd(1147, v) > 1] == [1178]
    assert _witness_index(window) == witness_by_pairwise_gcd(list(window)) == 5
    assert w_witness(window).witness_value == 1151


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


def test_w_witness_refuses_a_value_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="^w_witness needs a sequence, got int$"):
        w_witness(5)


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


def test_interval_scan_groups_match_the_single_window_calls(monkeypatch):
    groups = []

    def recording_sides(first, last, base_primes):
        groups.append((first, last))
        return _interval_sides(first, last, base_primes)

    monkeypatch.setattr(sequences, "_SEGMENT", 1000)
    monkeypatch.setattr(sequences, "_interval_sides", recording_sides)
    scan = interval_equivalence_scan(300)
    monkeypatch.undo()
    assert scan == [(m, *prime_interval_equivalence(m)) for m in range(1, 301)]
    assert [first for first, _ in groups] == [1] + [last + 1 for _, last in groups[:-1]]
    assert groups[-1][1] == 300
    for first, last in groups:
        assert last <= first * first  # the sieve's base primes lie below its window
        assert first == last or (last + 1) ** 2 - first * first - 1 <= 1000
    assert len(groups) > 50 and any(first < last for first, last in groups[3:])


def test_interval_scan_sieves_its_base_primes_within_the_budget():
    assert len(interval_equivalence_scan(50, sieve_budget=50)) == 50
    with pytest.raises(ResourceLimitError):
        interval_equivalence_scan(50, sieve_budget=49)
    with pytest.raises(ResourceLimitError):
        prime_interval_equivalence(50, sieve_budget=49)


def test_interval_scan_refuses_a_limit_past_its_default_budget(monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the limit is refused before any sieve")

    monkeypatch.setattr(sequences, "primes_up_to", no_sieve)
    with pytest.raises(ResourceLimitError, match=r"\(10001\): limit is 10000$"):
        interval_equivalence_scan(sequences.DEFAULT_INTERVAL_LIMIT + 1)
    with pytest.raises(ResourceLimitError):
        interval_equivalence_scan(10**7)


# The w side tests no primality, and does not use non_w_max_run either: that
# applies Euclid VII.1-2 to a window, which would restate the proof of the
# equivalence the two sides check.
_NOT_ON_THE_W_SIDE = {
    "primes_up_to",
    "factorize",
    "smallest_prime_factor",
    "_window_flags",
    "non_w_max_run",
}


def test_witness_side_tests_no_primality():
    read, names = mentioned(w_witness)
    assert read == {
        "w_witness",
        "_witness_index",
        "_increasing_naturals",
        "_items",
        "_at_least",
        "_integer",
        "_shown",
        "_shares_factor",
        "WReport.witness_value",
    }
    assert "gcd" in names
    assert not names & _NOT_ON_THE_W_SIDE


@pytest.mark.parametrize("kernel", [_witness_index, sequences._shares_factor])
def test_witness_kernel_takes_no_division(kernel):
    # multiplication and gcd only: no remainder, quotient, true division or shift,
    # so a block's tail comes by slicing and its candidates by walking it
    assert divisions(reached(kernel)[1]) == []


def test_prime_side_takes_no_gcd():
    read, names = mentioned(_window_flags, primes_up_to)
    assert read == {
        "_window_flags", "primes_up_to", "_at_least", "_integer", "_shown", "_within", "_budget"
    }
    assert "gcd" not in names


def test_interval_sides_reach_both_scans():
    for root in (_interval_sides, interval_equivalence_scan):
        read, names = mentioned(root)
        assert {"_witness_index", "_window_flags"} <= read
        assert {"gcd", "_window_flags"} <= names
        assert "non_w_max_run" not in names


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


@pytest.mark.parametrize(
    "record, message",
    [
        (GrimmAssignment(7, True, (2,)), "length must be an integer, got bool"),
        (GrimmAssignment(True, 1, (2,)), "start must be an integer, got bool"),
        (GrimmAssignment(7, 3, (2, 3, True)), "assignment[i] must be an integer, got bool"),
        (GrimmAssignment(-3, 1, (2,)), "verify_assignment needs start >= 0, got -3"),
        (GrimmAssignment(7, 0, ()), "verify_assignment needs length >= 1, got 0"),
        (("a", 1, (2,)), "start must be an integer, got str"),
        ((7, 3, None), "verify_assignment needs a sequence, got NoneType"),
        ((7, 3, "235"), "assignment[i] must be an integer, got str"),
        (5, "verify_assignment needs a sequence, got int"),
        ((1, 2), "verify_assignment needs 3 fields, got 2"),
        ((7, 3, (2, 3, 5), 0), "verify_assignment needs 3 fields, got 4"),
        # several faults: the first faulty field is the one named
        (GrimmAssignment(-3, True, (2,)), "verify_assignment needs start >= 0, got -3"),
    ],
)
def test_verify_assignment_refuses_a_malformed_record(record, message):
    with pytest.raises(DomainError) as exc:
        verify_assignment(record)
    assert str(exc.value) == message


def test_verify_assignment_takes_any_sequence_of_ints_as_the_assignment():
    assert verify_assignment((7, 3, [2, 3, 5]))
    assert verify_assignment((7, 3, iter((2, 3, 5))))
    assert not verify_assignment((7, 3, [2, 5, 3]))


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


def test_grimm_scan_rows_match_trial_division_to_3000():
    rows = grimm_scan(3000)
    rebuilt = []
    for start, length in composite_runs(3100):
        if start > 3000:
            break
        divisors = [prime_divisors_by_trial(v) for v in range(start + 1, start + length + 1)]
        assignment, stuck = _match(divisors)
        assert stuck == []
        rebuilt.append((start, length, True, assignment, True))
    assert rows == rebuilt
    # the rows as the trial-division scan (one factorize per element) gave them
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "e3611c48610dcba598b58b802aabd11200d333ec7435a60b603b6b0221b18bdc"


def test_grimm_scan_honours_its_sieve_budget(monkeypatch):
    assert len(grimm_scan(100, sieve_budget=100)) == 24
    with pytest.raises(ResourceLimitError, match=r"^grimm_scan\(101\): sieve limit is 100$"):
        grimm_scan(101, sieve_budget=100)

    def no_work(*args, **kwargs):
        raise AssertionError("the limit is refused before any search or sieve")

    monkeypatch.setattr(sequences, "_least_primes", no_work)
    monkeypatch.setattr(sequences, "smallest_prime_factor", no_work)
    with pytest.raises(ResourceLimitError):
        grimm_scan(101, sieve_budget=100)


@pytest.mark.parametrize(
    "call", [lambda: grimm_scan(3000), lambda: grimm_assign(89, 7)], ids=["scan", "assign"]
)
def test_grimm_matching_leaves_no_garbage_cycles(call):
    # a search that calls itself through a closure cell makes one cycle per
    # window, which holds its divisor lists and owner map until the cyclic
    # collector runs
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _hall_deficient(divisors, stuck) -> bool:
    """stuck names distinct positions whose primes are fewer than they are."""
    primes = set().union(*(divisors[i] for i in stuck))
    return len(set(stuck)) == len(stuck) > len(primes)


def test_match_agrees_with_backtracking_on_random_families():
    rng = random.Random(13)
    primes = [2, 3, 5, 7, 11, 13, 17]
    infeasible = 0
    for _ in range(20000):
        pool = primes[: rng.randint(1, 7)]
        divisors = [
            sorted(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            for _ in range(rng.randint(1, 7))
        ]
        assignment, stuck = _match(divisors)
        assert (assignment is not None) == (assignment_by_backtracking(divisors) is not None)
        assert _confirmed_match(divisors, 0) == assignment
        if assignment is None:
            infeasible += 1
            assert all(0 <= i < len(divisors) for i in stuck)
            assert _hall_deficient(divisors, stuck), divisors
        else:
            assert stuck == []
            assert len(set(assignment)) == len(divisors)
            assert all(p in options for p, options in zip(assignment, divisors))
    assert 5000 < infeasible < 15000  # both branches were exercised


@pytest.mark.parametrize(
    "divisors", [[[2], [2]], [[2, 5], [2], [5], [3]]], ids=["two-on-one", "three-on-two"]
)
def test_hand_built_infeasible_families_carry_a_hall_certificate(divisors):
    assignment, stuck = _match(divisors)
    assert assignment is None
    assert _hall_deficient(divisors, stuck)
    assert _confirmed_match(divisors, 0) is None


def test_eleven_positions_on_ten_primes_are_refused_without_a_search():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    divisors = [primes[:] for _ in range(11)]
    start = time.perf_counter()
    assert _confirmed_match(divisors, 0) is None
    assert time.perf_counter() - start < 0.5  # exhaustive backtracking took seconds


@pytest.mark.parametrize(
    "certificate",
    [
        lambda divisors: [0],
        lambda divisors: list(range(len(divisors))),
        lambda divisors: [len(divisors) - 1] * 3,
        lambda divisors: [-1, len(divisors) - 1],
    ],
    ids=["first", "all", "repeated", "aliased"],
)
@pytest.mark.parametrize(
    "call, run",
    [(lambda: grimm_assign(89, 7), "89+1..96"), (lambda: grimm_scan(100), "3+1..4")],
    ids=["grimm_assign", "grimm_scan"],
)
def test_a_bogus_infeasibility_certificate_raises(monkeypatch, call, run, certificate):
    # every window here has an assignment, so no certificate can pass the check
    monkeypatch.setattr(sequences, "_match", lambda divisors: (None, certificate(divisors)))
    with pytest.raises(RuntimeError) as exc:
        call()
    assert str(exc.value) == f"infeasibility certificate fails at run {run}"


def test_verify_assignment_trial_divides_and_never_reaches_a_sieve():
    read, names = mentioned(verify_assignment)
    assert "smallest_prime_factor" in read
    assert not {"_least_primes", "primes_up_to", "_run_divisors", "factorize"} & (read | names)


def test_grimm_scan_checks_fit_itself_and_primality_by_certificate_alone():
    read, names = mentioned(grimm_scan)
    assert {"_fits", "_certified_primes"} <= read
    assert "verify_assignment" not in read | names
    assert "_fits" in mentioned(verify_assignment)[0]
    assert list(inspect.signature(verify_assignment).parameters) == ["result"]


def test_a_planted_composite_fails_its_row(monkeypatch):
    rows = grimm_scan(100)
    real_match = sequences._match

    def tampered(divisors):
        assignment, stuck = real_match(divisors)
        if divisors == [_cut(prime_divisors_by_trial(v), 7) for v in range(90, 97)]:
            return (assignment[0], 91, *assignment[2:]), stuck  # 91 = 7 * 13 fits
        return assignment, stuck

    monkeypatch.setattr(sequences, "_match", tampered)
    planted = (89, 7, True, (3, 91, 23, 31, 47, 5, 2), False)
    assert grimm_scan(100) == [planted if row[0] == 89 else row for row in rows]


def test_grimm_scan_certifies_each_distinct_prime_once(monkeypatch):
    calls, seen = [], []
    certify = sequences._certified_primes

    def counted(n, **kwargs):
        calls.append(n)
        return smallest_prime_factor(n, **kwargs)

    def recorded(values):
        seen.append(sorted(values))
        return certify(values)

    monkeypatch.setattr(sequences, "smallest_prime_factor", counted)
    monkeypatch.setattr(sequences, "_certified_primes", recorded)
    limit = 10**4
    top = next(v for v in range(limit + 1, 2 * limit) if is_prime_trial(v))
    rows = grimm_scan(limit)
    assert all(matched and validated for _, _, matched, _, validated in rows)
    distinct = sorted({p for _, _, _, assignment, _ in rows for p in assignment})
    searched = list(range(limit + 1, top + 1))  # the search for the first prime past limit
    # the search is the scan's only trial division, and one certificate
    # sees each distinct assigned prime exactly once
    assert calls == searched and len(searched) == 7
    assert seen == [distinct]
    # a second scan carries nothing over: it certifies every prime again
    calls.clear()
    seen.clear()
    assert grimm_scan(limit) == rows
    assert calls == searched
    assert seen == [distinct]


def _cut(primes: list[int], bound: int) -> list[int]:
    """primes up to the first one >= bound, as grimm_scan lists them."""
    return next((primes[: i + 1] for i, p in enumerate(primes) if p >= bound), primes)


def test_a_prime_proven_by_an_earlier_run_is_still_checked_for_divisibility(monkeypatch):
    rows = grimm_scan(100)
    # 11 is certified for an earlier run, and divides none of 90 .. 96
    assert any(11 in assignment for m, _, _, assignment, _ in rows if m < 89)
    real_match = sequences._match

    def tampered(divisors):
        assignment, stuck = real_match(divisors)
        if divisors == [_cut(prime_divisors_by_trial(v), 7) for v in range(90, 97)]:
            return (11, *assignment[1:]), stuck
        return assignment, stuck

    monkeypatch.setattr(sequences, "_match", tampered)
    expected = [
        (89, 7, True, (11, *row[3][1:]), False) if row[0] == 89 else row for row in rows
    ]
    assert grimm_scan(100) == expected


def test_verify_assignment_refuses_zero_and_one():
    # each divides nothing or everything, and neither is a prime
    assert not verify_assignment(GrimmAssignment(89, 7, (0, 7, 23, 31, 47, 5, 2)))
    assert not verify_assignment(GrimmAssignment(89, 7, (1, 7, 23, 31, 47, 5, 2)))


def test_certified_primes_match_trial_division_below_200000():
    limit = 2 * 10**5
    assert _certified_primes(range(limit)) == set(filter(is_prime_trial, range(limit)))
    assert _certified_primes([1, 0, 1]) == set()
    assert _certified_primes([10**6 + 3, 4, 997 * 997, 10**6 + 3]) == {10**6 + 3}


def test_prime_certificate_reaches_no_sieve_and_takes_no_division():
    # gcd against a running factorial only: no sieve, no trial division,
    # no remainder or quotient taken in Python
    read, names = mentioned(_certified_primes)
    assert read == {"_certified_primes"}
    assert "gcd" in names
    sieve = {"_least_primes", "primes_up_to", "_window_flags", "_run_divisors"}
    trial_division = {"factorize", "smallest_prime_factor"}
    assert not (sieve | trial_division) & names
    assert divisions(reached(_certified_primes)[1]) == []


def test_matching_on_cut_divisor_lists_equals_matching_on_full_ones():
    # a prime p >= n divides one element of an n-run at most, so the lists
    # grimm_scan cuts after it give _match the same assignment and the same
    # Hall certificate as the whole lists
    rng = random.Random(21)
    infeasible = 0
    for _ in range(40):
        m = rng.randrange(1, 10 ** rng.randint(1, 9))
        full = [prime_divisors_by_trial(v) for v in range(m + 1, m + 61)]
        for n in range(1, 61):
            assignment, stuck = _match(full[:n])
            assert _match([_cut(primes, n) for primes in full[:n]]) == (assignment, stuck)
            infeasible += assignment is None
    assert infeasible > 100  # both branches were exercised
    table = _least_primes(0, array("I", range(5001)), primes_up_to(70))
    whole = [prime_divisors_by_trial(v) for v in range(1, 5001)]
    for bound in (1, 2, 7, 30, 60):
        assert _run_divisors(table, 1, 5001, bound) == [_cut(primes, bound) for primes in whole]


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


def _assert_every_prefix_agrees(m, n_max, has_witness):
    for n in range(1, n_max + 1):
        assert (non_w_max_run(m, n) == n) == (not has_witness(range(m + 1, m + n + 1))), (m, n)


def test_non_w_max_run_agrees_with_w_witness_on_every_prefix():
    rng = random.Random(2184)
    starts = [*range(60), *(rng.randrange(10**6) for _ in range(20))]
    starts += [rng.randrange(10**30) for _ in range(20)]
    for m in starts:
        _assert_every_prefix_agrees(m, 60, lambda w: w_witness(w).witness_index is not None)


@pytest.mark.parametrize("m", [10**40 + 7, 2183 + 30030 * 10**36])
def test_non_w_max_run_at_forty_digits_agrees_with_the_pairwise_oracle(m):
    # witness_by_pair_matrix takes gcds by descending from min(a, b), out of
    # reach at 40 digits; the plain pairwise math.gcd oracle shares no code
    # with the package. 2183 + 30030 k keeps 2183's residues mod 2..13, and
    # with them its witness-free run of 17.
    _assert_every_prefix_agrees(m, 90, lambda w: witness_by_pairwise_gcd(list(w)) is not None)
    assert non_w_max_run(m, 90) == (17 if m % 30030 == 2183 else 0)


def test_default_window_bound_values():
    assert default_window_bound(0) == 2
    assert default_window_bound(2183) == 237
    assert default_window_bound(1) >= 1
    # capped at the sieve limit that non_w_max_run enforces
    assert default_window_bound(10**686) == 9980209
    assert default_window_bound(10**687) == DEFAULT_SIEVE_LIMIT == 10**7
    with pytest.raises(DomainError):
        default_window_bound(-1)


def test_non_w_max_run_domain_and_cap():
    with pytest.raises(DomainError):
        non_w_max_run(-1, 5)
    with pytest.raises(DomainError):
        non_w_max_run(10, 0)
    # the sieve of the primes up to n_max is the only size limit
    with pytest.raises(
        ResourceLimitError, match=r"^primes_up_to\(10000001\): sieve limit is 10000000$"
    ):
        non_w_max_run(10, DEFAULT_SIEVE_LIMIT + 1)
    with pytest.raises(
        ResourceLimitError,
        match=r"^primes_up_to\(<16610-bit integer>\): sieve limit is 10000000$",
    ):
        non_w_max_run(10, 10**5000)


@pytest.mark.parametrize("m", [0, 10, 2183, 999_999_999_999])
def test_non_w_max_run_defaults_to_the_window_bound(m):
    assert non_w_max_run(m) == non_w_max_run(m, default_window_bound(m))


def test_non_w_max_run_checks_m_before_it_takes_the_default_bound():
    # with or without n_max, a negative m is refused in non_w_max_run's name
    for args in [(-3,), (-3, 5), (-3, None)]:
        with pytest.raises(DomainError, match=r"^non_w_max_run needs m >= 0, got -3$"):
            non_w_max_run(*args)
