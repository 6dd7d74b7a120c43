"""Continued fractions, partial-quotient statistics, and the subtractive map."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclidkit import (
    DomainError,
    cf_dynamics,
    ResourceLimitError,
    UnimodularMatrix,
    average_cf_length,
    cf_expand,
    cf_value,
    dynamical_run,
    gcd_remainder,
    gcd_subtractive,
    lowest_terms,
    xgcd,
    yao_knuth_stat,
)
from euclidkit.cf_dynamics import BOTTOM_MINUS_TOP, IDENTITY, TOP_MINUS_BOTTOM
from oracles import (
    cf_value_by_fractions,
    division_steps_by_divmod,
    dynamics_by_loop,
    quotient_sum_by_divmod,
    quotient_total_by_cf,
    subtractive_steps_by_loop,
)

# ---------------------------------------------------------------------------
# continued fractions


def test_cf_expand_frozen_values():
    assert cf_expand(355, 113).quotients == (3, 7, 16)
    assert cf_expand(240, 46).quotients == (5, 4, 1, 1, 2)
    assert cf_expand(46, 240).quotients == (0, 5, 4, 1, 1, 2)
    assert cf_expand(7, 7).quotients == (1,)
    assert cf_expand(1, 4).quotients == (0, 4)


def test_cf_value_frozen_values():
    assert cf_value((3, 7, 16)) == (355, 113)
    assert cf_value((0,)) == (0, 1)
    assert cf_value((4,)) == (4, 1)
    assert cf_value((0, 5, 4, 1, 1, 2)) == (23, 120)


def test_cf_round_trip_up_to_300():
    for a in range(1, 301):
        for b in range(1, 301):
            assert cf_value(cf_expand(a, b)) == lowest_terms(a, b)


def test_cf_quotient_sum_matches_remainder_trace_up_to_300():
    for a in range(1, 301):
        for b in range(1, 301):
            cf = cf_expand(a, b)
            _, trace = gcd_remainder(a, b)
            assert sum(cf.quotients) == sum(trace.quotients())
            assert len(cf.quotients) == trace.step_count


@given(
    quotients=st.lists(st.integers(1, 50), min_size=1, max_size=12).map(
        lambda qs: [qs[0] - 1] + qs[1:]
    )
)
def test_cf_value_matches_fraction_oracle(quotients):
    num, den = cf_value(quotients)
    assert Fraction(num, den) == cf_value_by_fractions(quotients)


def test_cf_rejects_malformed_quotients():
    with pytest.raises(DomainError):
        cf_value(())
    with pytest.raises(DomainError):
        cf_value((-1, 2))
    with pytest.raises(DomainError):
        cf_value((3, 0, 2))
    with pytest.raises(DomainError, match="must be an integer, got bool"):
        cf_value([True, 2])
    with pytest.raises(DomainError, match="must be an integer, got float"):
        cf_value([1, 2.0])
    with pytest.raises(DomainError):
        cf_expand(0, 5)


@pytest.mark.parametrize(
    "quotients, message",
    [
        ((), "a continued fraction needs at least one quotient"),
        ((True, 2), "quotients[i] must be an integer, got bool"),
        ((1, Fraction(2)), "quotients[i] must be an integer, got Fraction"),
        ((-1, 2), "the leading quotient must be >= 0, got -1"),
        ((3, 0), "quotients after the first must be >= 1, got 0"),
        ((2.0,), "quotients[i] must be an integer, got float"),
        # two faults: the type fault is named first
        ((-1, 2.0), "quotients[i] must be an integer, got float"),
        ((3, 0, 2.5), "quotients[i] must be an integer, got float"),
    ],
)
def test_cf_value_names_each_malformed_quotient(quotients, message):
    with pytest.raises(DomainError) as exc:
        cf_value(quotients)
    assert str(exc.value) == message


def test_cf_value_refuses_a_value_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="^cf_value needs a sequence, got int$"):
        cf_value(5)


# ---------------------------------------------------------------------------
# partial-quotient statistics


def test_quotient_sum_hand_oracle_at_3():
    # 3/1 = [3]; 3/2 = [1,2]; 3/3 = [1]: total 3 + 3 + 1 = 7
    assert yao_knuth_stat(3).total == 7


def test_quotient_sum_matches_cf_oracle():
    for a in (10, 50, 100):
        assert yao_knuth_stat(a).total == quotient_total_by_cf(a)


def test_quotient_sum_frozen_values():
    assert yao_knuth_stat(100).total == 1579
    assert yao_knuth_stat(1000).total == 32519
    stat = yao_knuth_stat(1000)
    assert stat.predicted > 0
    assert stat.ratio == stat.total / stat.predicted


def test_quotient_sum_growth_trend():
    for a in (100, 200, 500, 1000):
        assert yao_knuth_stat(2 * a).total > yao_knuth_stat(a).total


def _check_statistics(a):
    stat = yao_knuth_stat(a)
    steps = division_steps_by_divmod(a)
    assert (stat.total, stat.steps) == (quotient_total_by_cf(a), steps)
    assert average_cf_length(a) == steps / a


def test_half_range_statistics_match_the_full_range_oracles():
    # both parities, and a = 2, 3, 4, where the walked half holds 0 or 1 denominators
    for a in range(2, 301):
        _check_statistics(a)


@settings(deadline=None, max_examples=30)
@given(a=st.integers(2, 10**4))
def test_half_range_statistics_match_the_oracles_up_to_ten_thousand(a):
    _check_statistics(a)


def test_statistics_frozen_at_100437():
    stat = yao_knuth_stat(100437)
    assert stat.total == 9367677
    assert stat.steps / 100437 == average_cf_length(100437) == 9.866672640560749


def test_quotient_scan_walks_only_the_lower_half(monkeypatch):
    asked = []

    def counted_range(*args):
        asked.append(len(range(*args)))
        return range(*args)

    # the scan looks range up as a module global before the builtin
    monkeypatch.setattr(cf_dynamics, "range", counted_range, raising=False)
    for a in (2, 3, 4, 5, 1000, 1001):
        asked.clear()
        cf_dynamics._quotient_scan(a, None, "yao_knuth_stat")
        assert asked and sum(asked) <= (a - 1) // 2


def test_average_cf_length_frozen():
    assert average_cf_length(100) == 3.57
    with pytest.raises(DomainError):
        average_cf_length(1)
    with pytest.raises(DomainError):
        yao_knuth_stat(1)


@pytest.mark.parametrize("scan", [yao_knuth_stat, average_cf_length])
def test_statistics_refuse_a_limit_past_their_budget(scan, monkeypatch):
    assert scan(10, scan_budget=10) == scan(10)

    def no_chain(*args):
        raise AssertionError("the limit is refused before the first chain")

    # the loops look range up as a module global before the builtin
    monkeypatch.setattr(cf_dynamics, "range", no_chain, raising=False)
    with pytest.raises(AssertionError):
        scan(10, scan_budget=10)
    with pytest.raises(ResourceLimitError, match=rf"^{scan.__name__}\(11\): scan budget is 10$"):
        scan(11, scan_budget=10)


# ---------------------------------------------------------------------------
# the subtractive map and its matrix certificate


def test_dynamical_run_frozen_orbits():
    run = dynamical_run(21, 13)
    assert run.step_count == 7
    assert run.terminal == (0, 1)
    assert (run.product.m11, run.product.m12, run.product.m21, run.product.m22) == (
        13,
        -21,
        -8,
        13,
    )
    run = dynamical_run(8, 2)
    assert run.terminal == (0, 2)
    assert run.step_count == 4


def test_tie_takes_the_first_branch():
    run = dynamical_run(5, 5)
    assert run.step_count == 1
    assert run.terminal == (0, 5)


def test_dynamics_terminal_is_gcd_with_matrix_certificate_up_to_200():
    from math import gcd as builtin_gcd

    for x in range(1, 201):
        for y in range(1, 201):
            run = dynamical_run(x, y)
            d = max(run.terminal)
            assert sorted(run.terminal) == [0, d]
            assert d == builtin_gcd(x, y)
            assert run.product.apply(x, y) == run.terminal
            assert run.product.determinant == 1


def test_bezout_coefficients_read_off_the_product_row_up_to_200():
    for x in range(1, 201):
        for y in range(1, 201):
            run = dynamical_run(x, y)
            d = max(run.terminal)
            m = run.product
            u, v = (m.m11, m.m12) if run.terminal[0] == d else (m.m21, m.m22)
            assert u * x + v * y == d


def _cofactors_from_the_product(a: int, b: int) -> tuple[int, int]:
    # the orbit ends at (0, g), so m11*a + m12*b = 0 with m11, m12 coprime
    # (the determinant is 1): |m12| = a/g and |m11| = b/g
    m = dynamical_run(a, b, step_budget=sum(cf_expand(a, b).quotients)).product
    return abs(m.m12), abs(m.m11)


def test_the_product_row_gives_the_xgcd_cofactors_up_to_200():
    for a in range(1, 201):
        for b in range(1, 201):
            cert = xgcd(a, b)
            assert _cofactors_from_the_product(a, b) == (cert.u, cert.v)


@settings(deadline=None)
@given(a=st.integers(1, 10**300), b=st.integers(1, 10**300), common=st.integers(1, 10**20))
def test_the_product_row_gives_the_xgcd_cofactors(a, b, common):
    a, b = a * common, b * common
    cert = xgcd(a, b)
    assert _cofactors_from_the_product(a, b) == (cert.u, cert.v)
    assert cert.holds()


def test_dynamics_step_count_is_subtractive_plus_trailing_up_to_200():
    # from the equal pair the map takes exactly one more step to a zero coordinate;
    # both counts come from quotient runs, so the loop oracles check the identity
    for x in range(1, 201):
        for y in range(1, 201):
            _, trace = gcd_subtractive(x, y)
            count = dynamical_run(x, y).step_count
            assert count == trace.step_count + 1
            assert count == dynamics_by_loop(x, y)[0] == len(subtractive_steps_by_loop(x, y)) + 1


def test_dynamical_run_matches_the_loop_oracle_up_to_150():
    for x in range(0, 151):
        for y in range(0, 151):
            if x == y == 0:
                continue
            run = dynamical_run(x, y)
            m = run.product
            assert run.start == (x, y)
            assert (run.step_count, run.terminal, (m.m11, m.m12, m.m21, m.m22)) == (
                dynamics_by_loop(x, y)
            )


def test_dynamics_budget_edge_is_sum_of_quotients():
    # 1071/462 = [2; 3, 7], so the orbit has 2 + 3 + 7 = 12 steps
    assert dynamical_run(1071, 462, step_budget=12).step_count == 12
    assert dynamical_run(462, 1071, step_budget=12).step_count == 12
    with pytest.raises(ResourceLimitError) as exc:
        dynamical_run(1071, 462, step_budget=11)
    assert str(exc.value) == "dynamical_run(1071, 462): exceeded 11 steps"


def test_dynamics_on_100_digit_coprime_inputs():
    x, y = 3**209, 2**332
    assert len(str(x)) == len(str(y)) == 100
    run = dynamical_run(x, y)
    assert run.step_count == quotient_sum_by_divmod(y, x)
    assert run.terminal == (0, 1)
    assert run.product.determinant == 1
    assert run.product.apply(x, y) == run.terminal


def test_matrix_algebra():
    assert IDENTITY.determinant == 1
    assert TOP_MINUS_BOTTOM.determinant == 1
    assert BOTTOM_MINUS_TOP.determinant == 1
    assert TOP_MINUS_BOTTOM.apply(21, 13) == (8, 13)
    assert BOTTOM_MINUS_TOP.apply(8, 13) == (8, 5)
    assert UnimodularMatrix(1, 0, 0, 1) == IDENTITY


def test_dynamics_domain_and_budget():
    # a zero coordinate is already terminal; only the origin is rejected
    assert dynamical_run(0, 5).step_count == 0
    assert dynamical_run(5, 0).terminal == (5, 0)
    with pytest.raises(DomainError):
        dynamical_run(0, 0)
    with pytest.raises(DomainError):
        dynamical_run(-1, 5)
    with pytest.raises(ResourceLimitError):
        dynamical_run(10**6, 1, step_budget=10)


def test_dynamics_rejects_bool_and_non_integer_coordinates():
    with pytest.raises(DomainError, match="x must be an integer, got float"):
        dynamical_run(2.5, 1)
    with pytest.raises(DomainError, match="x must be an integer, got bool"):
        dynamical_run(True, 1)
