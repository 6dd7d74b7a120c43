"""Gcd traces, Bezout certificates, and division rebuilt from certificates."""

import ast
import importlib.util
import random
import textwrap
import tracemalloc
from math import gcd as builtin_gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euclidkit import (
    BezoutCertificate,
    CertificateMismatchError,
    DomainError,
    EuclidStep,
    ResourceLimitError,
    cf_dynamics,
    cf_expand,
    cli,
    division_from_bezout,
    dynamical_run,
    euclid,
    gcd_many,
    gcd_remainder,
    gcd_subtractive,
    lcm,
    lowest_terms,
    xgcd,
)
from euclidkit.euclid import SubtractiveSteps
from oracles import (
    bezout_by_back_substitution,
    dynamics_by_loop,
    quotient_sum_by_divmod,
    remainder_chain_by_divmod,
    subtractive_steps_by_loop,
)
from reach import defined_in, divisions, reached

# ---------------------------------------------------------------------------
# frozen examples


def test_gcd_remainder_frozen_chain():
    g, trace = gcd_remainder(240, 46)
    assert g == 2
    assert trace.method == "remainder"
    assert trace.step_count == 5
    assert trace.quotients() == [5, 4, 1, 1, 2]
    assert [(s.larger, s.smaller, s.remainder) for s in trace.steps] == [
        (240, 46, 10),
        (46, 10, 6),
        (10, 6, 4),
        (6, 4, 2),
        (4, 2, 0),
    ]


def test_gcd_subtractive_frozen_chain():
    g, trace = gcd_subtractive(1071, 462)
    assert g == 21
    assert trace.method == "subtractive"
    assert trace.step_count == 11
    assert all(step.quotient is None for step in trace.steps)
    assert trace.steps[0].larger == 1071
    assert trace.steps[0].remainder == 609


def test_gcd_equal_pair_has_empty_subtractive_trace():
    g, trace = gcd_subtractive(7, 7)
    assert g == 7
    assert trace.step_count == 0
    g, trace = gcd_remainder(7, 7)
    assert g == 7
    assert trace.step_count == 1


def test_xgcd_frozen_values():
    cert = xgcd(240, 46)
    assert (cert.g, cert.x, cert.y) == (2, -9, 47)
    assert cert.holds()
    cert = xgcd(46, 240)
    assert (cert.g, cert.x, cert.y) == (2, 47, -9)
    cert = xgcd(1, 1)
    assert (cert.g, cert.x, cert.y) == (1, 0, 1)


def test_records_are_named_tuples_with_the_readme_repr():
    # The README shows this repr. Fields stay read-only, and the tuple
    # semantics are part of the contract: equality with a plain tuple,
    # unpacking, len, _replace and _asdict.
    cert = xgcd(240, 46)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"# {cert!r}\n" in readme
    assert repr(cert) == "BezoutCertificate(a=240, b=46, g=2, x=-9, y=47)"
    with pytest.raises(AttributeError):
        cert.x = 0
    with pytest.raises(AttributeError):
        cert.note = "extra"
    assert cert == (240, 46, 2, -9, 47)
    a, b, g, x, y = cert
    assert (len(cert), a * x + b * y) == (5, g)
    assert cert._replace(x=14, y=-73) == BezoutCertificate(240, 46, 2, 14, -73)
    assert cert._asdict() == {"a": 240, "b": 46, "g": 2, "x": -9, "y": 47}
    _, trace = gcd_remainder(240, 46)
    assert trace == ("remainder", trace.steps)
    assert trace.steps[0] == EuclidStep(240, 46, 5, 10) == (240, 46, 5, 10)


def test_quotients_only_defined_for_remainder_traces():
    _, trace = gcd_subtractive(10, 4)
    with pytest.raises(DomainError):
        trace.quotients()


# ---------------------------------------------------------------------------
# invariants on exhaustive ranges


def test_every_remainder_step_preserves_the_gcd_up_to_200():
    for a in range(1, 201):
        for b in range(1, 201):
            g, trace = gcd_remainder(a, b)
            for step in trace.steps:
                assert step.larger == step.smaller * step.quotient + step.remainder
                assert 0 <= step.remainder < step.smaller
                if step.remainder:
                    assert builtin_gcd(step.larger, step.smaller) == builtin_gcd(
                        step.smaller, step.remainder
                    )
            assert trace.steps[-1].remainder == 0
            assert trace.steps[-1].smaller == g


def test_subtractive_steps_are_differences_of_sorted_pairs():
    for a in range(1, 121):
        for b in range(1, 121):
            g, trace = gcd_subtractive(a, b)
            for step in trace.steps:
                assert step.larger > step.smaller
                assert step.quotient is None
                assert step.remainder == step.larger - step.smaller
            assert g == builtin_gcd(a, b)


def _fields(step):
    return (step.larger, step.smaller, step.quotient, step.remainder)


def test_subtractive_trace_matches_the_loop_oracle_up_to_150():
    for a in range(1, 151):
        for b in range(1, 151):
            expected = subtractive_steps_by_loop(a, b)
            _, trace = gcd_subtractive(a, b)
            steps = trace.steps
            n = len(expected)
            assert len(steps) == trace.step_count == n
            assert [_fields(step) for step in steps] == expected
            assert [_fields(steps[i]) for i in range(-n, n)] == expected + expected
            assert [_fields(step) for step in reversed(steps)] == expected[::-1]


def test_subtractive_steps_slice_and_reject_out_of_range_indices():
    _, trace = gcd_subtractive(1071, 462)
    expected = tuple(trace.steps)
    assert trace.steps[2:9:3] == expected[2:9:3]
    assert trace.steps[::-1] == expected[::-1]
    for index in (11, -12):
        with pytest.raises(IndexError):
            trace.steps[index]


def test_subtractive_traces_keep_value_semantics():
    first, second = gcd_subtractive(1071, 462)[1], gcd_subtractive(1071, 462)[1]
    assert first == second
    assert hash(first) == hash(second)
    assert first.steps == tuple(first.steps)
    assert tuple(first.steps) == first.steps
    assert hash(first.steps) == hash(tuple(first.steps))
    assert first != gcd_subtractive(462, 1071 + 462)[1]
    assert gcd_subtractive(7, 7)[1] == gcd_subtractive(5, 5)[1]  # both empty
    assert first.steps != list(first.steps)
    assert repr(first.steps) == (
        "SubtractiveSteps(runs=((1071, 462, 2), (462, 147, 3), (147, 21, 6)), len=11)"
    )


@settings(deadline=None)
@given(
    a=st.integers(10**199, 10**400 - 1),
    b=st.integers(10**199, 10**400 - 1),
    data=st.data(),
)
def test_long_subtractive_traces_count_and_chain_their_steps(a, b, data):
    total = quotient_sum_by_divmod(a, b)
    assume(total <= 10**5)
    g, trace = gcd_subtractive(a, b)
    steps = trace.steps
    assert g == builtin_gcd(a, b)
    assert len(steps) == total - 1
    if not steps:
        return
    for _ in range(5):
        i = data.draw(st.integers(0, len(steps) - 1))
        step = steps[i]
        assert step.remainder == step.larger - step.smaller > 0
        if i + 1 < len(steps):
            after = steps[i + 1]
            assert (after.larger, after.smaller) == (
                max(step.smaller, step.remainder),
                min(step.smaller, step.remainder),
            )
        else:
            assert step.smaller == step.remainder == g


def test_scaling_lemma_up_to_50():
    for a in range(1, 51):
        for b in range(1, 51):
            g_ab, _ = gcd_remainder(a, b)
            for c in range(1, 51):
                g_scaled, _ = gcd_remainder(a * c, b * c)
                assert g_scaled == c * g_ab
                assert (g_scaled == c) == (g_ab == 1)


def test_prime_lemma_gcd_pb_ab_is_b():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for p in primes:
        for a in range(1, 51):
            if a % p == 0:
                continue
            for b in range(1, 51):
                g, _ = gcd_remainder(p * b, a * b)
                assert g == b


# ---------------------------------------------------------------------------
# step-count bounds


def _digits(n: int) -> int:
    return len(str(n))


@given(a=st.integers(1, 2**64 - 1), b=st.integers(1, 2**64 - 1))
def test_lame_bound_random_64_bit_pairs(a, b):
    _, trace = gcd_remainder(a, b)
    assert trace.step_count <= 5 * _digits(max(a, b))


def test_fibonacci_pairs_are_the_worst_case():
    fib = [1, 1]
    while len(fib) < 62:
        fib.append(fib[-1] + fib[-2])
    for k in range(3, 61):
        _, trace = gcd_remainder(fib[k], fib[k - 1])  # (F_{k+1}, F_k), 1-indexed
        assert trace.step_count == k - 1


# ---------------------------------------------------------------------------
# division from a Bezout certificate


def test_division_from_bezout_branch_certificates():
    # a = b*(1 - x - y) + t with t = (x - 1)*(b - a) + g, at each place t lands
    # x = 0: g = b and t = a
    assert division_from_bezout(6, 3, BezoutCertificate(6, 3, 3, 0, 1)) == (2, 0)
    # x = 1: t = g < b
    assert division_from_bezout(3, 2, BezoutCertificate(3, 2, 1, 1, -1)) == (1, 1)
    # x = 1: t = g = b
    assert division_from_bezout(6, 3, BezoutCertificate(6, 3, 3, 1, -1)) == (2, 0)
    # t in [0, b)
    assert division_from_bezout(3, 5, BezoutCertificate(3, 5, 1, 2, -1)) == (0, 3)
    # t > b (only possible when b > a)
    assert division_from_bezout(46, 240, xgcd(46, 240)) == (0, 46)
    # t = b (equal pair)
    assert division_from_bezout(3, 3, BezoutCertificate(3, 3, 3, 2, -1)) == (1, 0)
    # t < 0
    assert division_from_bezout(240, 46, xgcd(240, 46)) == (5, 10)
    # t < 0 and an exact multiple of b
    assert division_from_bezout(6, 3, BezoutCertificate(6, 3, 3, 3, -5)) == (2, 0)


def test_division_from_bezout_normalizes_negative_x():
    cert = BezoutCertificate(240, 46, 2, -9 - 46, 47 + 240)
    assert cert.holds()
    assert division_from_bezout(240, 46, cert) == (5, 10)


@given(a=st.integers(1, 5000), b=st.integers(1, 5000), shift=st.integers(-3, 3))
def test_division_from_bezout_accepts_shifted_certificates(a, b, shift):
    base = xgcd(a, b)
    cert = BezoutCertificate(a, b, base.g, base.x + shift * b, base.y - shift * a)
    assert division_from_bezout(a, b, cert) == divmod(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (705754639823, 658489299188),
        (1033474460560, 920412273759),
        (1079511085166, 596813804922),
        (10**7, 3),
    ],
)
def test_division_from_bezout_answers_long_quotients_and_large_t(a, b):
    assert division_from_bezout(a, b, xgcd(a, b)) == divmod(a, b)


@settings(deadline=None)
@given(
    a=st.integers(10**99, 10**349),
    b=st.integers(10**99, 10**349),
    scale=st.integers(1, 10**50),
    shift=st.integers(-(10**6), 10**6),
)
def test_division_from_bezout_on_long_pairs_and_shifted_certificates(a, b, scale, shift):
    a, b = a * scale, b * scale
    for a, b in [(a, b), (b, a)]:
        base = xgcd(a, b)
        g = base.g
        cert = BezoutCertificate(a, b, g, base.x + shift * (b // g), base.y - shift * (a // g))
        assert cert.holds()
        assert division_from_bezout(a, b, cert) == divmod(a, b)


def test_division_from_bezout_budget_counts_doublings_per_ladder():
    # gcd validation: 1024 = 1 * 2**10 takes 10 doublings
    assert division_from_bezout(1024, 1, xgcd(1024, 1), step_budget=10) == (1024, 0)
    with pytest.raises(ResourceLimitError) as exc:
        division_from_bezout(1024, 1, xgcd(1024, 1), step_budget=9)
    assert str(exc.value) == "gcd validation for (1024, 1) exceeded 9 doubling steps"
    # the floor: this shifted certificate has t = 1 - 2k = -2047, and
    # 2 * 2**9 <= 2047 < 2 * 2**10 takes 9 doublings; validating gcd(3, 2) one
    k = 2**10
    cert = BezoutCertificate(3, 2, 1, 1 + 2 * k, -1 - 3 * k)
    assert division_from_bezout(3, 2, cert, step_budget=9) == (1, 1)
    with pytest.raises(ResourceLimitError) as exc:
        division_from_bezout(3, 2, cert, step_budget=8)
    assert str(exc.value) == "division_from_bezout(3, 2): exceeded 8 doubling steps"


def test_division_from_bezout_memory_stays_linear_in_the_input():
    a = 10**2000 + 1
    cert = xgcd(a, 3)
    tracemalloc.start()
    try:
        assert division_from_bezout(a, 3, cert) == divmod(a, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _ladder_context() -> str:
    return "ladder under test:"


@settings(deadline=None)
@given(
    c=st.integers(0, 10**400 - 1),
    b=st.integers(1, 10**200 - 1),
    k=st.integers(0, 1328),
    form=st.sampled_from(["any", "below b", "b * 2**k", "b * 2**k - 1"]),
)
def test_ladder_is_divmod(c, b, k, form):
    k %= ((10**400 - 1) // b).bit_length()  # so that b * 2**k < 10**400
    c = {"any": c, "below b": c % b, "b * 2**k": b << k, "b * 2**k - 1": (b << k) - 1}[form]
    assert euclid._ladder(c, b, c.bit_length(), _ladder_context) == divmod(c, b)


@pytest.mark.parametrize("b", [1, 3, 10**50 + 7])
@pytest.mark.parametrize("k", [1, 10, 1000])
def test_ladder_budget_is_the_number_of_doublings(b, k):
    assert euclid._ladder(b << k, b, k, _ladder_context) == (1 << k, 0)
    with pytest.raises(ResourceLimitError) as exc:
        euclid._ladder(b << k, b, k - 1, _ladder_context)
    assert str(exc.value) == f"ladder under test: exceeded {k - 1} doubling steps"


# the dividing helpers, which the witness and certificate claims allow and these do not
_EUCLID_HELPERS = ("gcd", "_gcd", "xgcd", "gcd_remainder", "_division_chain")


def test_division_from_bezout_divides_nowhere():
    read, seen = reached(division_from_bezout)
    assert read == {
        "division_from_bezout",
        "_ladder",
        "_positive",
        "_budget",
        "_at_least",
        "_items",
        "_integer",
        "_shown",
        "BezoutCertificate.holds",
    }
    assert divisions(seen, _EUCLID_HELPERS) == []


def test_the_div_from_bezout_command_divides_only_where_xgcd_does():
    # without --x, --y and --g the command builds its certificate by xgcd,
    # and that call is its one division route
    found = divisions(reached(cli._cmd_div_from_bezout)[1], _EUCLID_HELPERS)
    assert [what for fn, _, what in found if fn == "_cmd_div_from_bezout"] == ["xgcd"]
    in_xgcd = divisions(reached(xgcd)[1], _EUCLID_HELPERS)
    assert sorted(d for d in found if d[0] != "_cmd_div_from_bezout") == sorted(in_xgcd)
    assert in_xgcd


def test_division_checker_flags_a_division():
    read, seen = reached(lcm)
    assert read == {"lcm", "_positive", "_integer", "_shown"}
    assert [what for _, _, what in divisions(seen, _EUCLID_HELPERS)] == ["FloorDiv", "gcd"]


def test_division_from_bezout_rejects_bad_certificates():
    good = xgcd(240, 46)
    with pytest.raises(CertificateMismatchError):
        division_from_bezout(240, 47, good)  # wrong pair
    with pytest.raises(CertificateMismatchError):
        division_from_bezout(240, 46, BezoutCertificate(240, 46, 2, 1, 1))  # identity
    with pytest.raises(CertificateMismatchError):
        division_from_bezout(4, 2, BezoutCertificate(4, 2, 4, 1, 0))  # g is not the gcd
    # any record of the five fields is read as a certificate, and only such a record
    assert division_from_bezout(240, 46, (240, 46, 2, -9, 47)) == (5, 10)
    with pytest.raises(DomainError, match=r"^division_from_bezout needs a sequence, got NoneType$"):
        division_from_bezout(240, 46, None)
    with pytest.raises(DomainError) as exc:
        division_from_bezout(240, 46, (240, 46, 2))
    assert str(exc.value) == "division_from_bezout needs 5 certificate fields, got 3"
    # a and b are integers before they are compared with the pair: 240.0 == 240
    for pair, record, refusal in [
        ((240, 46), (240.0, 46, 2, -9, 47), "cert.a must be an integer, got float"),
        ((1, 1), (True, 1, 1, 1, 0), "cert.a must be an integer, got bool"),
        ((240, 46), (240, 46.0, 2, -9, 47), "cert.b must be an integer, got float"),
    ]:
        with pytest.raises(DomainError, match=f"^{refusal}$"):
            division_from_bezout(*pair, record)


@pytest.mark.parametrize(
    "a, b, cert, message",
    [
        (4, 2, BezoutCertificate(4, 2, 2, 0.5, 0), "cert.x must be an integer, got float"),
        (7, 3, BezoutCertificate(7, 3, 1.0, 1, -2), "cert.g must be an integer, got float"),
        (7, 3, BezoutCertificate(7, 3, 1, True, -2), "cert.x must be an integer, got bool"),
    ],
)
def test_division_from_bezout_rejects_non_integer_certificate_fields(a, b, cert, message):
    # each identity holds numerically, so only the type check stops a wrong
    # quotient such as (1.5, 1.0) for x = 0.5
    with pytest.raises(DomainError) as exc:
        division_from_bezout(a, b, cert)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Bezout validity


@given(a=st.integers(1, 10**12), b=st.integers(1, 10**12))
def test_bezout_identity_holds_on_random_pairs(a, b):
    cert = xgcd(a, b)
    assert cert.holds()
    assert cert.g == builtin_gcd(a, b)


# ---------------------------------------------------------------------------
# derived helpers


def test_gcd_many_and_lcm_frozen_values():
    assert gcd_many([12, 18, 30]) == 6
    assert gcd_many([7]) == 7
    assert gcd_many([5, 7, 11]) == 1
    assert lcm(4, 6) == 12
    assert lcm(7, 7) == 7
    assert lcm(2**40, 2**41) == 2**41


def test_lowest_terms_frozen_and_coprime():
    assert lowest_terms(240, 46) == (120, 23)
    assert lowest_terms(7, 7) == (1, 1)
    rng = random.Random(99)
    for _ in range(500):
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        num, den = lowest_terms(a, b)
        assert builtin_gcd(num, den) == 1
        assert a * den == b * num


# ---------------------------------------------------------------------------
# domain errors and budgets


def test_zero_and_negative_arguments_are_domain_errors():
    # _division_chain checks the operands for every routine that reads it
    for bad_pair, message in [
        ((0, 5), "^a must be at least 1, got 0$"),
        ((5, 0), "^b must be at least 1, got 0$"),
        ((-3, 5), "^a must be at least 1, got -3$"),
        ((5, -3), "^b must be at least 1, got -3$"),
    ]:
        for op in (gcd_remainder, gcd_subtractive, xgcd, cf_expand):
            with pytest.raises(DomainError, match=message):
                op(*bad_pair)
    with pytest.raises(DomainError):
        gcd_many([])
    with pytest.raises(DomainError):
        gcd_many([3, 0])


def test_gcd_many_refuses_a_value_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="^gcd_many needs a sequence, got int$"):
        gcd_many(5)


def test_bool_and_non_integer_arguments_are_domain_errors():
    with pytest.raises(DomainError, match="^a must be an integer, got bool$"):
        gcd_remainder(True, 1)
    with pytest.raises(DomainError, match="^b must be an integer, got bool$"):
        gcd_subtractive(1, True)
    with pytest.raises(DomainError, match="^a must be an integer, got float$"):
        gcd_subtractive(2.0, 1)
    with pytest.raises(DomainError, match="^b must be an integer, got bool$"):
        xgcd(3, False)
    with pytest.raises(DomainError, match="^a must be an integer, got float$"):
        cf_expand(2.0, 1)
    with pytest.raises(DomainError, match="^b must be an integer, got str$"):
        cf_expand(2, "1")


def test_subtractive_budget_is_enforced():
    with pytest.raises(ResourceLimitError):
        gcd_subtractive(10**6, 1, step_budget=10)
    with pytest.raises(ResourceLimitError):
        gcd_subtractive(10**40, 1)
    with pytest.raises(ResourceLimitError):
        division_from_bezout(10**6, 1, xgcd(10**6, 1), step_budget=10)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gcd_subtractive(10**5000, 1),
        lambda: dynamical_run(10**5000, 1),
        lambda: division_from_bezout(10**5000, 1, xgcd(10**5000, 1), step_budget=10),
    ],
    ids=["gcd_subtractive", "dynamical_run", "division_from_bezout"],
)
def test_budget_errors_name_inputs_over_4300_digits_by_bit_length(call):
    # str() refuses ints over 4300 digits, so the message must not call it
    with pytest.raises(ResourceLimitError, match=r"\(<16610-bit integer>, 1\)"):
        call()


def test_domain_errors_name_oversized_values_by_bit_length():
    with pytest.raises(DomainError, match="a must be at least 1, got -<16610-bit integer>"):
        gcd_remainder(-(10**5000), 1)
    with pytest.raises(CertificateMismatchError, match="<16610-bit integer>"):
        division_from_bezout(10**5000, 1, BezoutCertificate(10**5000, 1, 1, 1, 0))


def test_subtractive_trace_longer_than_sys_maxsize():
    g, trace = gcd_subtractive(10**40, 1, step_budget=10**40)
    assert g == 1
    assert trace.step_count == 10**40 - 1
    assert trace.steps[0] == EuclidStep(10**40, 1, None, 10**40 - 1)
    assert trace.steps[10**39] == EuclidStep(9 * 10**39, 1, None, 9 * 10**39 - 1)
    assert trace.steps[-1] == EuclidStep(2, 1, None, 1)
    assert next(reversed(trace.steps)) == trace.steps[-1]


def test_subtractive_budget_edge_is_sum_of_quotients_minus_one():
    # 1071/462 = [2; 3, 7], so the trace has 2 + 3 + 7 - 1 = 11 steps
    assert gcd_subtractive(1071, 462, step_budget=11)[1].step_count == 11
    with pytest.raises(ResourceLimitError) as exc:
        gcd_subtractive(1071, 462, step_budget=10)
    assert str(exc.value) == "gcd_subtractive(1071, 462): exceeded 10 subtraction steps"


# ---------------------------------------------------------------------------
# one division chain


def _check_chain_routines(a: int, b: int) -> None:
    chain = remainder_chain_by_divmod(a, b)
    quotients = [q for _, _, q, _ in chain]
    total = sum(quotients)
    g, trace = gcd_remainder(a, b)
    assert g == chain[-1][1]
    assert trace.steps == tuple(chain)
    assert all(type(step) is EuclidStep for step in trace.steps)
    assert tuple(xgcd(a, b)) == (a, b, *bezout_by_back_substitution(a, b))
    assert cf_expand(a, b).quotients == tuple(quotients)
    g_sub, sub = gcd_subtractive(a, b, step_budget=total)
    assert g_sub == g
    assert sub.steps == SubtractiveSteps((hi, lo, q if r else q - 1) for hi, lo, q, r in chain)
    assert sub.steps.length == total - 1
    run = dynamical_run(a, b, step_budget=total)
    if total <= 10**4:
        assert (run.step_count, run.terminal, tuple(run.product)) == dynamics_by_loop(a, b)
    else:
        assert (run.step_count, run.terminal) == (total, (0, g))
        assert run.product.apply(a, b) == run.terminal
        assert run.product.determinant == 1


_UP_TO_400_DIGITS = st.integers(1, 400).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))


@settings(deadline=None)
@given(a=_UP_TO_400_DIGITS, b=_UP_TO_400_DIGITS)
def test_chain_routines_match_the_divmod_oracles(a, b):
    _check_chain_routines(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (46, 240),  # a < b: the chain starts with quotient 0
        (10**300 + 7, 10**399 + 9),
        (7, 7),  # a == b: one step, no subtraction
        (10**399 + 1, 10**399 + 1),
        (12, 4),  # b | a: one step
        (4, 12),
        (3 * 10**300 + 3, 10**300 + 1),
        (1, 1),  # b = 1
        (10**5, 1),
        (10**399 + 1, 1),
    ],
)
def test_chain_routines_match_the_divmod_oracles_at_the_edges(a, b):
    _check_chain_routines(a, b)


def _chain_facts(*modules) -> tuple[set[str], ...]:
    """Which functions, methods and module bodies reached from modules take
    divmod, divide in a loop, name _division_chain, and name _positive."""
    _, seen = reached(*defined_in(*modules), *modules)
    found = divisions(seen, _EUCLID_HELPERS)
    loops = [(f, n.lineno, n.end_lineno) for f, n, _ in seen if isinstance(n, ast.For | ast.While)]
    return (
        {fn for fn, _, what in found if what == "divmod"},
        {fn for fn, line, _ in found if any(fn == g and a <= line <= b for g, a, b in loops)},
        {fn for fn, _, value in seen if value is euclid._division_chain},
        {fn for fn, _, value in seen if value is euclid._positive},
    )


def test_one_division_chain_serves_every_chain_routine():
    divmods, dividing_loops, callers, checkers = _chain_facts(euclid, cf_dynamics)
    assert divmods == {"_division_chain"}
    # the two statistics scans keep their own remainder loops, which keep no
    # chain: summing over _division_chain took them 2-3x as long at a = 100437
    assert dividing_loops == {"_division_chain", "yao_knuth_stat", "average_cf_length"}
    assert callers == {"gcd_remainder", "gcd_subtractive", "xgcd", "cf_expand", "dynamical_run"}
    # the chain checks its own operands, so no reader checks them again
    assert checkers == {
        "_division_chain", "division_from_bezout", "gcd_many", "lcm", "lowest_terms"
    }
    assert not callers & checkers
    imports = [node for _, node, _ in reached(cf_dynamics)[1] if isinstance(node, ast.ImportFrom)]
    from_euclid = [a.name for node in imports if node.module == "euclid" for a in node.names]
    assert from_euclid == ["DEFAULT_STEP_BUDGET", "_division_chain"]


def test_chain_checker_flags_a_second_chain(tmp_path):
    (tmp_path / "second_chain.py").write_text(
        textwrap.dedent(
            """
            from euclidkit.euclid import _division_chain, _positive
            def gcd(x, y):
                while y:
                    x, y = y, x % y
                return x
            class Pair(tuple):
                def split(self):
                    return divmod(*self)
            def ratio(a, b):
                _positive(a, "a")
                return _division_chain(a, b)[0]
            q, r = divmod(7, 2)
            """
        )
    )
    spec = importlib.util.spec_from_file_location("second_chain", tmp_path / "second_chain.py")
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    # ratio reaches the real chain, so its facts join the planted ones
    assert _chain_facts(planted) == (
        {"Pair.split", "second_chain", "_division_chain"},
        {"gcd", "_division_chain"},
        {"ratio"},
        {"ratio", "_division_chain"},
    )
