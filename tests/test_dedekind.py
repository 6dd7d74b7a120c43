"""Sawtooth values, Dedekind sums, and exact reciprocity."""

import ast
from fractions import Fraction
from math import gcd as builtin_gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from euclidkit import (
    DomainError,
    ResourceLimitError,
    cf_expand,
    cli,
    dedekind,
    dedekind_sum,
    euclid,
    gcd_remainder,
    reciprocity_residual,
    reciprocity_scan,
    sawtooth,
)
from oracles import dedekind_by_terms, sawtooth_by_fraction
from reach import reached

# ---------------------------------------------------------------------------
# sawtooth


def test_sawtooth_frozen_values():
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(3, 4)) == Fraction(1, 4)
    assert sawtooth(Fraction(-5, 4)) == Fraction(1, 4)
    assert sawtooth(0) == 0
    assert sawtooth(7) == 0
    assert sawtooth(Fraction(-3)) == 0


@pytest.mark.parametrize(
    "x, name", [(True, "bool"), (None, "NoneType"), ("abc", "str"), (float("inf"), "float")]
)
def test_sawtooth_refuses_what_is_not_a_rational(x, name):
    with pytest.raises(DomainError, match=rf"^sawtooth needs a rational, got {name}$"):
        sawtooth(x)


def test_sawtooth_reads_numeric_strings_and_finite_floats():
    assert sawtooth("1/3") == Fraction(-1, 6)
    assert sawtooth(0.25) == Fraction(-1, 4)


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**4))
def test_sawtooth_oddness_and_bound(num, den):
    x = Fraction(num, den)
    value = sawtooth(x)
    assert value == -sawtooth(-x)
    assert abs(value) < Fraction(1, 2)
    assert value == sawtooth_by_fraction(x)
    if x.denominator == 1:
        assert value == 0
    else:
        assert value == x - (x.numerator // x.denominator) - Fraction(1, 2)


# ---------------------------------------------------------------------------
# Dedekind sums


def test_dedekind_sum_frozen_values():
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(3, 1) == 0
    assert dedekind_sum(2, 5) == 0
    assert dedekind_sum(5, 7) == Fraction(-1, 14)
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 2) == 0


def test_dedekind_sum_matches_term_by_term_oracle():
    for k in range(1, 61):
        for h in range(0, 61):
            assert dedekind_sum(h, k) == dedekind_by_terms(h, k)


def test_dedekind_sum_periodicity_up_to_80():
    for k in range(1, 81):
        for h in range(1, 81):
            assert dedekind_sum(h + k, k) == dedekind_sum(h, k)


def test_dedekind_sum_oddness_up_to_80():
    for k in range(1, 81):
        for h in range(1, 81):
            assert dedekind_sum(-h, k) == -dedekind_sum(h, k)


def test_dedekind_sum_domain():
    with pytest.raises(DomainError):
        dedekind_sum(1, 0)
    with pytest.raises(DomainError):
        dedekind_sum(1, -3)


# ---------------------------------------------------------------------------
# reciprocity


def _reciprocity_formula(h: int, k: int) -> Fraction:
    return Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4)


def test_reciprocity_witness_pair_1_3():
    # s(1,3) + s(3,1) must hit the formula's value 1/18 + 0 = 2/36
    assert dedekind_sum(1, 3) + dedekind_sum(3, 1) == _reciprocity_formula(1, 3)
    assert reciprocity_residual(1, 3) == 0


def test_reciprocity_residual_is_exactly_zero_up_to_150():
    pairs = 0
    for k in range(1, 151):
        for h in range(1, k):
            if builtin_gcd(h, k) != 1:
                continue
            pairs += 1
            residual = reciprocity_residual(h, k)
            assert residual == 0
            assert isinstance(residual, Fraction)
    assert pairs == 6857


def test_reciprocity_sum_matches_formula_directly():
    for h, k in [(1, 2), (2, 5), (5, 7), (13, 84), (59, 149)]:
        assert dedekind_sum(h, k) + dedekind_sum(k, h) == _reciprocity_formula(h, k)


def test_reciprocity_residual_domain():
    with pytest.raises(DomainError):
        reciprocity_residual(2, 4)  # not coprime
    with pytest.raises(DomainError):
        reciprocity_residual(0, 3)
    with pytest.raises(DomainError):
        reciprocity_residual(3, 0)
    with pytest.raises(DomainError, match=r"^k must be an integer, got bool$"):
        reciprocity_residual(2, True)


# ---------------------------------------------------------------------------
# the reciprocity scan


def test_reciprocity_scan_matches_reciprocity_residual_for_every_limit_to_60():
    per_pair = [
        (h, k, reciprocity_residual(h, k))
        for k in range(1, 61)
        for h in range(1, k)
        if builtin_gcd(h, k) == 1
    ]
    for limit in range(61):
        upto = [(h, k, r) for h, k, r in per_pair if k <= limit]
        assert reciprocity_scan(limit) == (len(upto), [(h, k, r) for h, k, r in upto if r])


def test_row_matches_the_term_by_term_oracle_to_300():
    # Every entry, summed or filled by a fold, against an unfolded sum: the
    # Fraction oracle below 60, and from there _terms, which
    # test_dedekind_sum_matches_term_by_term_oracle pins to it (the oracle
    # alone would take minutes up to 300).
    for k in range(1, 301):
        row = dedekind._row(k)
        assert len(row) == k
        for h in range(k):
            if builtin_gcd(h, k) != 1:
                assert row[h] is None, (h, k)
            elif k < 60:
                assert row[h] == 4 * k * k * dedekind_by_terms(h, k), (h, k)
            else:
                assert row[h] == dedekind._terms(h, k), (h, k)


@pytest.mark.parametrize(
    "k, self_inverse",
    [
        pytest.param(24, 8, id="every-unit-its-own-inverse"),
        pytest.param(120, 16, id="many-units-their-own-inverse"),
        pytest.param(251, 2, id="prime"),
    ],
)
def test_row_matches_the_oracle_on_every_orbit_shape(k, self_inverse):
    # h*h = 1 mod k makes the orbit {h, k - h, h^-1, k - h^-1} the pair {h, k - h}
    units = [h for h in range(1, k) if builtin_gcd(h, k) == 1]
    assert sum(h * h % k == 1 for h in units) == self_inverse
    row = dedekind._row(k)
    for h in units:
        assert row[h] == 4 * k * k * dedekind_by_terms(h, k), h


def test_row_fills_an_inverse_above_half_from_the_sum_at_h():
    # 2 * 6 = 1 mod 11: the walk over h <= 5 sums at 2 and fills 2, 9, 6 and 5
    row = dedekind._row(11)
    assert row[2] == row[6] == -row[5] == -row[9] == 4 * 11 * 11 * dedekind_by_terms(6, 11)
    assert row[6] == 110


def test_reciprocity_scan_to_400_finds_no_nonzero_residual():
    assert reciprocity_scan(400) == (48677, [])


def test_a_planted_wrong_term_shows_as_a_nonzero_residual(monkeypatch, capsys):
    row = dedekind._row

    def planted(k):  # T(7, 31) one too large
        entries = row(k)
        if k == 31:
            entries[7] += 1
        return entries

    monkeypatch.setattr(dedekind, "_row", planted)
    # T(7, 31) is T1 of (7, 31) and, by periodicity, T2 of (31, 38)
    one_term = Fraction(1, 4 * 31 * 31)
    assert reciprocity_scan(40) == (489, [(7, 31, one_term), (31, 38, one_term)])
    assert cli.main(["reciprocity-scan", "--limit", "40", "--format", "report"]) == 1
    assert capsys.readouterr() == (
        "command: reciprocity-scan\nparam format: report\nparam limit: 40\n"
        "summary pairs_checked: 489\nsummary nonzero_residuals: 2\n"
        "violation: nonzero residual at h=7 k=31: 1/3844\n"
        "violation: nonzero residual at h=31 k=38: 1/3844\n",
        "",
    )


def test_reciprocity_scan_refuses_a_limit_above_its_budget_before_any_row(monkeypatch):
    monkeypatch.setattr(dedekind, "_row", None)  # any row built would fail
    with pytest.raises(ResourceLimitError, match=r"^reciprocity_scan\(50\): limit is 49$"):
        reciprocity_scan(50, scan_budget=49)
    with pytest.raises(ResourceLimitError, match=r"^reciprocity_scan\(1001\): limit is 1000$"):
        reciprocity_scan(1001)


def _into_euclid(node, value) -> bool:
    """Whether node names _division_chain or resolves into the euclid module."""
    return "_division_chain" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
        value is euclid or getattr(value, "__module__", None) == euclid.__name__
    )


def test_the_reciprocity_checks_reach_no_euclid_chain():
    # from the command a user runs as well as from the library scan
    roots = (cli._cmd_reciprocity_scan, reciprocity_scan, dedekind._row, reciprocity_residual)
    read, seen = reached(*roots)
    assert read == {
        "_cmd_reciprocity_scan",
        "Report.__init__",
        "_field",
        "rational_str",
        "reciprocity_scan",
        "_row",
        "reciprocity_residual",
        "_residual_numerator",
        "_terms",
        "_at_least",
        "_integer",
        "_shown",
        "_within",
        "_budget",
    }
    assert [(fn, ast.unparse(node)) for fn, node, value in seen if _into_euclid(node, value)] == []


def test_euclid_checker_flags_the_euclid_chain():
    _, seen = reached(cf_expand, gcd_remainder)
    assert {(fn, ast.unparse(node)) for fn, node, value in seen if _into_euclid(node, value)} >= {
        ("cf_expand", "_division_chain"),
        ("gcd_remainder", "_division_chain"),
    }
