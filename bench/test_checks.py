"""Tests of the benchmark's output checkers: each accepts the right value and
rejects a deliberately wrong one.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import checks as ck
from checks import CheckError
from proc import import_times
from run import END_TO_END, PER_LAYER


def rejects(check, *args):
    with pytest.raises(CheckError):
        check(*args)


def test_gcd_rejects_a_wrong_gcd():
    ck.check_gcd(240, 46, 2)
    rejects(ck.check_gcd, 240, 46, 4)


def test_bezout_rejects_a_broken_identity():
    ck.check_bezout(240, 46, 2, -9, 47)
    rejects(ck.check_bezout, 240, 46, 2, -9, 48)
    rejects(ck.check_bezout, 240, 46, 1, -9, 47)


def test_division_rejects_divmod_off_by_one():
    ck.check_division(240, 46, 5, 10)
    rejects(ck.check_division, 240, 46, 4, 56)
    rejects(ck.check_division, 240, 46, 5, 11)


def test_remainder_chain_and_cf_round_trip():
    ck.check_cf_round_trip(355, 113, [3, 7, 16], 355, 113)
    rejects(ck.check_cf_round_trip, 355, 113, [3, 7, 15], 355, 113)
    rejects(ck.check_cf_round_trip, 355, 113, [3, 7, 16], 710, 226)


def test_lowest_terms_rejects_an_unreduced_pair():
    ck.check_lowest_terms(12, 18, 2, 3)
    rejects(ck.check_lowest_terms, 12, 18, 4, 6)


def test_subtractive_step_count_is_sum_of_quotients_minus_one():
    ck.check_subtractive(1071, 462, 21, sum(ck.quotients(1071, 462)) - 1)
    rejects(ck.check_subtractive, 1071, 462, 21, sum(ck.quotients(1071, 462)))


def test_dynamics_checks_steps_product_and_terminal():
    ck.check_dynamics(21, 13, 7, (0, 1), (13, -21, -8, 13))
    rejects(ck.check_dynamics, 21, 13, 6, (0, 1), (13, -21, -8, 13))
    rejects(ck.check_dynamics, 21, 13, 7, (0, 1), (13, -21, -8, 14))
    rejects(ck.check_dynamics, 21, 13, 7, (1, 0), (13, -21, -8, 13))


def test_dynamics_rows_follow_the_subtractive_map():
    after = [(8, 13), (8, 5), (3, 5), (3, 2), (1, 2), (1, 1), (0, 1)]
    rows = [{"step": str(i), "x": str(x), "y": str(y)} for i, (x, y) in enumerate(after, start=1)]
    ck.check_dynamics_rows(21, 13, rows, 7)
    before = [(21, 13), *after[:-1]]
    ck.check_dynamics_rows(21, 13, [dict(r, x=str(x), y=str(y)) for r, (x, y) in zip(rows, before)], 7)
    rejects(ck.check_dynamics_rows, 21, 13, rows[:-1], 7)
    rejects(ck.check_dynamics_rows, 21, 13, [*rows[:2], dict(rows[2], x="4"), *rows[3:]], 7)
    rejects(ck.check_dynamics_rows, 21, 13, [dict(r, step=str(int(r["step"]) + 1)) for r in rows], 7)


def test_trace_rows_reject_a_missing_or_wrong_row():
    rows = [
        {"step": "1", "larger": "240", "smaller": "46", "quotient": "5", "remainder": "10"},
        {"step": "2", "larger": "46", "smaller": "10", "quotient": "4", "remainder": "6"},
    ]
    ck.check_trace_rows(rows, "remainder", 2)
    rejects(ck.check_trace_rows, rows, "remainder", 3)
    rejects(ck.check_trace_rows, [rows[0], dict(rows[1], remainder="7")], "remainder", 2)


def test_dedekind_matches_known_values_and_rejects_a_wrong_sum():
    assert ck.dedekind_by_terms(5, 7) == Fraction(-1, 14)
    assert ck.dedekind_by_terms(1, 3) == Fraction(1, 18)
    assert ck.dedekind_by_terms(6, 3) == 0
    ck.check_dedekind(5, 7, Fraction(-1, 14))
    rejects(ck.check_dedekind, 5, 7, Fraction(1, 14))


def test_yao_knuth_rejects_a_wrong_total():
    total, steps = ck.quotient_totals(1000)
    predicted = 6 / math.pi**2 * 1000 * math.log(1000) ** 2
    ck.check_yao_knuth(1000, total, predicted, total / predicted, steps / 1000)
    rejects(ck.check_yao_knuth, 1000, total + 1, predicted, (total + 1) / predicted, steps / 1000)


def test_reciprocity_rejects_a_nonzero_residual_or_a_wrong_pair_count():
    ck.check_reciprocity_scan(150, 6857, 0, [])
    rejects(ck.check_reciprocity_scan, 150, 6857, 1, ["nonzero residual at h=2 k=3: 1/6"])
    rejects(ck.check_reciprocity_scan, 150, 6856, 0, [])


def test_perfect_scan_rejects_a_missing_perfect_number():
    ck.check_perfect_scan([(6, 2), (28, 3), (496, 5), (8128, 7)])
    rejects(ck.check_perfect_scan, [(6, 2), (28, 3), (8128, 7)])
    ck.check_perfect_certificate(7, 127, 8128, 16256)
    rejects(ck.check_perfect_certificate, 7, 127, 8128, 16257)


def test_grimm_rejects_a_repeated_prime_or_a_non_divisor():
    ck.check_grimm_assignment(23, 5, [2, 5, 13, 3, 7])
    rejects(ck.check_grimm_assignment, 23, 5, [2, 5, 13, 3, 2])
    rejects(ck.check_grimm_assignment, 23, 5, [2, 5, 13, 3, 11])


def test_grimm_scan_rejects_runs_that_differ_from_the_sieve():
    runs = ck.composite_runs(30)
    assert runs == [(3, 1), (5, 1), (7, 3), (11, 1), (13, 3), (17, 1), (19, 3), (23, 5), (29, 1)]
    assignments = [[2], [2], [2, 3, 5], [2], [7, 3, 2], [2], [5, 3, 2], [2, 5, 13, 3, 7], [2]]
    rows = [
        {"m": str(m), "n": str(n), "matched": "true", "assignment": ",".join(map(str, a))}
        for (m, n), a in zip(runs, assignments)
    ]
    ck.check_grimm_scan(rows, runs)
    rejects(ck.check_grimm_scan, rows[:-1], runs)
    rejects(ck.check_grimm_scan, rows[:-1] + [dict(rows[-1], assignment="2,5,13,3,2")], runs)


def test_interval_rejects_a_wrong_prime_verdict():
    ck.check_interval(5, True, True)
    rejects(ck.check_interval, 5, False, False)
    rejects(ck.check_interval, 5, True, False)
    ck.check_interval_scan(2000, 2000, 0, [])
    rejects(ck.check_interval_scan, 2000, 2000, 1, ["m=7: prime_exists=true is_w=false"])
    rejects(ck.check_interval_scan, 2000, 1999, 0, [])


def test_euclid_extension_rejects_a_wrong_new_prime():
    ck.check_euclid_extension([2, 3, 5, 7, 11, 13], 30031, 59)
    rejects(ck.check_euclid_extension, [2, 3, 5, 7, 11, 13], 30031, 509)


def test_formats_must_carry_identical_values():
    text = ck.parse_output("xgcd  a=240 b=46 format=text\ng = 2\nx = -9\ny = 47\n", "text")
    report = ck.parse_output(
        "command: xgcd\nparam a: 240\nparam b: 46\nparam format: report\n"
        "summary g: 2\nsummary x: -9\nsummary y: 47\n",
        "report",
    )
    ck.check_formats_agree(text, report)
    report["summary"]["y"] = "48"
    rejects(ck.check_formats_agree, text, report)


def test_import_times_read_top_level_package_and_numpy():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1976 |      92651 |       numpy\n"
        "import time:       723 |     127106 |   euclidkit\n"
        "import time:     11113 |     141860 | euclidkit.cli\n"
    )
    assert import_times(stderr) == (0.14186, 0.092651)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
