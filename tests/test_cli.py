"""Golden transcripts, exit codes, and format agreement for the command line."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from euclidkit import cf_dynamics, cli

GCD_REPORT_GOLDEN = """\
command: gcd
param a: 240
param b: 46
param format: report
param method: remainder
param trace: true
row step=1 larger=240 smaller=46 quotient=5 remainder=10
row step=2 larger=46 smaller=10 quotient=4 remainder=6
row step=3 larger=10 smaller=6 quotient=1 remainder=4
row step=4 larger=6 smaller=4 quotient=1 remainder=2
row step=5 larger=4 smaller=2 quotient=2 remainder=0
summary gcd: 2
summary step_count: 5
"""

GCD_SUBTRACTIVE_TEXT_GOLDEN = """\
gcd  a=1071 b=462 format=text method=subtractive trace=true
  step=1 larger=1071 smaller=462 remainder=609
  step=2 larger=609 smaller=462 remainder=147
  step=3 larger=462 smaller=147 remainder=315
  step=4 larger=315 smaller=147 remainder=168
  step=5 larger=168 smaller=147 remainder=21
  step=6 larger=147 smaller=21 remainder=126
  step=7 larger=126 smaller=21 remainder=105
  step=8 larger=105 smaller=21 remainder=84
  step=9 larger=84 smaller=21 remainder=63
  step=10 larger=63 smaller=21 remainder=42
  step=11 larger=42 smaller=21 remainder=21
gcd = 21
step_count = 11
"""

XGCD_REPORT_GOLDEN = """\
command: xgcd
param a: 240
param b: 46
param format: report
summary g: 2
summary x: -9
summary y: 47
"""

DIV_FROM_BEZOUT_REPORT_GOLDEN = """\
command: div-from-bezout
param a: 240
param b: 46
param format: report
summary g: 2
summary cert_x: -9
summary cert_y: 47
summary quotient: 5
summary remainder: 10
"""

DIV_FROM_BEZOUT_LONG_TEXT_GOLDEN = """\
div-from-bezout  a=10000000 b=3 format=text
g = 1
cert_x = 1
cert_y = -3333333
quotient = 3333333
remainder = 1
"""

DIV_FROM_BEZOUT_LONG_REPORT_GOLDEN = """\
command: div-from-bezout
param a: 10000000
param b: 3
param format: report
summary g: 1
summary cert_x: 1
summary cert_y: -3333333
summary quotient: 3333333
summary remainder: 1
"""

CF_REPORT_GOLDEN = """\
command: cf
param a: 355
param b: 113
param format: report
summary quotients: 3,7,16
summary length: 3
summary value: 355/113
"""

DYNAMICS_REPORT_GOLDEN = """\
command: dynamics
param format: report
param trace: false
param x: 21
param y: 13
summary step_count: 7
summary terminal_x: 0
summary terminal_y: 1
summary gcd: 1
summary product: 13,-21,-8,13
summary determinant: 1
"""

DYNAMICS_TRACE_REPORT_GOLDEN = """\
command: dynamics
param format: report
param trace: true
param x: 21
param y: 13
row step=1 x=8 y=13
row step=2 x=8 y=5
row step=3 x=3 y=5
row step=4 x=3 y=2
row step=5 x=1 y=2
row step=6 x=1 y=1
row step=7 x=0 y=1
summary step_count: 7
summary terminal_x: 0
summary terminal_y: 1
summary gcd: 1
summary product: 13,-21,-8,13
summary determinant: 1
"""

DYNAMICS_TRACE_TEXT_GOLDEN = """\
dynamics  format=text trace=true x=21 y=13
  step=1 x=8 y=13
  step=2 x=8 y=5
  step=3 x=3 y=5
  step=4 x=3 y=2
  step=5 x=1 y=2
  step=6 x=1 y=1
  step=7 x=0 y=1
step_count = 7
terminal_x = 0
terminal_y = 1
gcd = 1
product = 13,-21,-8,13
determinant = 1
"""

DEDEKIND_REPORT_GOLDEN = """\
command: dedekind
param format: report
param h: 5
param k: 7
summary value: -1/14
"""

PERFECT_REPORT_GOLDEN = """\
command: perfect
param format: report
param p: 7
summary mersenne: 127
summary value: 8128
summary sigma: 16256
"""

EUCLID_EXTEND_REPORT_GOLDEN = """\
command: euclid-extend
param format: report
param primes: 2,3,5,7,11,13
summary e: 30031
summary new_prime: 59
"""

WSEQ_REPORT_GOLDEN = """\
command: wseq
param format: report
param values: 2,3,4,5,6
summary is_w: true
summary witness_index: 4
summary witness_value: 5
"""

INTERVAL_EQUIV_REPORT_GOLDEN = """\
command: interval-equiv
param format: report
param m: 4
summary prime_exists: true
summary is_w: true
summary equal: true
"""

GRIMM_REPORT_GOLDEN = """\
command: grimm
param format: report
param m: 89
param n: 7
summary matched: true
summary assignment: 3,7,23,31,47,5,2
summary validated: true
"""

NONW_REPORT_GOLDEN = """\
command: nonw
param format: report
param m: 2183
param max: 20
summary bound: 20
summary longest_run: 17
"""

RECIPROCITY_SCAN_REPORT_GOLDEN = """\
command: reciprocity-scan
param format: report
param limit: 20
summary pairs_checked: 127
summary nonzero_residuals: 0
"""

LOWEST_TERMS_REPORT_GOLDEN = """\
command: lowest-terms
param a: 240
param b: 46
param format: report
summary reduced_a: 120
summary reduced_b: 23
"""

STATS_YAO_KNUTH_REPORT_GOLDEN = """\
command: stats yao-knuth
param a: 1000
param format: report
summary total: 32519
summary predicted: 29008.5079736563
summary ratio: 1.1210159457195
summary mean_cf_length: 5.423
"""

PERFECT_SCAN_REPORT_GOLDEN = """\
command: perfect
param format: report
param scan: 10000
row n=6 p=2
row n=28 p=3
row n=496 p=5
row n=8128 p=7
summary count: 4
"""

GRIMM_SCAN_REPORT_GOLDEN = """\
command: grimm
param format: report
param scan: 100
row m=3 n=1 matched=true assignment=2
row m=5 n=1 matched=true assignment=2
row m=7 n=3 matched=true assignment=2,3,5
row m=11 n=1 matched=true assignment=2
row m=13 n=3 matched=true assignment=7,3,2
row m=17 n=1 matched=true assignment=2
row m=19 n=3 matched=true assignment=5,3,2
row m=23 n=5 matched=true assignment=2,5,13,3,7
row m=29 n=1 matched=true assignment=2
row m=31 n=5 matched=true assignment=2,11,17,5,3
row m=37 n=3 matched=true assignment=19,3,2
row m=41 n=1 matched=true assignment=2
row m=43 n=3 matched=true assignment=11,3,2
row m=47 n=5 matched=true assignment=3,7,5,17,2
row m=53 n=5 matched=true assignment=3,5,7,19,2
row m=59 n=1 matched=true assignment=2
row m=61 n=5 matched=true assignment=31,7,2,5,3
row m=67 n=3 matched=true assignment=17,3,2
row m=71 n=1 matched=true assignment=2
row m=73 n=5 matched=true assignment=37,3,19,7,2
row m=79 n=3 matched=true assignment=5,3,2
row m=83 n=5 matched=true assignment=3,5,43,29,2
row m=89 n=7 matched=true assignment=3,7,23,31,47,5,2
row m=97 n=3 matched=true assignment=7,3,2
summary runs: 24
summary matched_runs: 24
"""

INTERVAL_EQUIV_SCAN_REPORT_GOLDEN = """\
command: interval-equiv
param format: report
param scan: 50
summary checked: 50
summary mismatches: 0
"""

HELP_GOLDEN = """\
usage: euclidkit [-h]
                 {gcd,xgcd,div-from-bezout,lowest-terms,cf,stats,dynamics,dedekind,reciprocity-scan,perfect,euclid-extend,wseq,interval-equiv,grimm,nonw}
                 ...

Command-line interface: one subcommand per verification primitive.

positional arguments:
  {gcd,xgcd,div-from-bezout,lowest-terms,cf,stats,dynamics,dedekind,reciprocity-scan,perfect,euclid-extend,wseq,interval-equiv,grimm,nonw}
    gcd                 gcd with a replayable trace
    xgcd                Bezout certificate by back-substitution
    div-from-bezout     quotient and remainder rebuilt from a certificate
    lowest-terms        reduce a pair by its gcd
    cf                  continued fraction of a/b and its round trip
    stats               corpus statistics
    dynamics            subtractive map orbit and step matrices
    dedekind            exact Dedekind sum s(h, k)
    reciprocity-scan    verify reciprocity on all coprime pairs up to --limit
    perfect             perfect-number certificate or scan
    euclid-extend       a prime outside any finite list
    wseq                least coprime witness of a sequence
    interval-equiv      prime between squares vs coprime witness window
    grimm               distinct prime divisors for composite runs
    nonw                longest witness-free run from m+1

options:
  -h, --help            show this help message and exit
"""


def run_cli(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "euclidkit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# golden transcripts


def test_gcd_report_golden():
    result = run_cli("gcd", "240", "46", "--trace", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == GCD_REPORT_GOLDEN
    assert result.stderr == ""


def test_gcd_text_golden():
    result = run_cli("gcd", "240", "46")
    assert result.returncode == 0
    assert result.stdout == (
        "gcd  a=240 b=46 format=text method=remainder trace=false\n"
        "gcd = 2\n"
        "step_count = 5\n"
    )


def test_gcd_subtractive_trace_text_golden():
    result = run_cli("gcd", "1071", "462", "--method", "subtractive", "--trace")
    assert result.returncode == 0
    assert result.stdout == GCD_SUBTRACTIVE_TEXT_GOLDEN


def test_xgcd_report_golden():
    result = run_cli("xgcd", "240", "46", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == XGCD_REPORT_GOLDEN


def test_div_from_bezout_report_golden():
    result = run_cli("div-from-bezout", "240", "46", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == DIV_FROM_BEZOUT_REPORT_GOLDEN


def test_div_from_bezout_with_explicit_certificate():
    result = run_cli(
        "div-from-bezout", "240", "46", "--x", "-9", "--y", "47", "--g", "2"
    )
    assert result.returncode == 0
    assert "quotient = 5" in result.stdout
    assert "remainder = 10" in result.stdout


def test_lowest_terms_report_golden():
    result = run_cli("lowest-terms", "240", "46", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == LOWEST_TERMS_REPORT_GOLDEN


def test_cf_report_golden():
    result = run_cli("cf", "355", "113", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == CF_REPORT_GOLDEN


def test_dynamics_report_golden():
    result = run_cli("dynamics", "21", "13", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == DYNAMICS_REPORT_GOLDEN


def test_dedekind_report_golden():
    result = run_cli("dedekind", "5", "7", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == DEDEKIND_REPORT_GOLDEN


def test_dedekind_text_golden():
    result = run_cli("dedekind", "2", "5")
    assert result.returncode == 0
    assert result.stdout == "dedekind  format=text h=2 k=5\nvalue = 0/1\n"


def test_perfect_report_golden():
    result = run_cli("perfect", "7", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == PERFECT_REPORT_GOLDEN


def test_euclid_extend_report_golden():
    result = run_cli(
        "euclid-extend", "2", "3", "5", "7", "11", "13", "--format", "report"
    )
    assert result.returncode == 0
    assert result.stdout == EUCLID_EXTEND_REPORT_GOLDEN


def test_wseq_report_golden():
    result = run_cli("wseq", "2", "3", "4", "5", "6", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == WSEQ_REPORT_GOLDEN


def test_wseq_without_witness_reports_false():
    result = run_cli("wseq", "2", "4", "6")
    assert result.returncode == 0
    assert result.stdout == (
        "wseq  format=text values=2,4,6\n"
        "is_w = false\n"
        "witness_index = none\n"
        "witness_value = none\n"
    )


def test_interval_equiv_report_golden():
    result = run_cli("interval-equiv", "4", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == INTERVAL_EQUIV_REPORT_GOLDEN


def test_grimm_report_golden():
    result = run_cli("grimm", "89", "7", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == GRIMM_REPORT_GOLDEN


def test_grimm_scan_summary():
    result = run_cli("grimm", "--scan", "100", "--format", "report")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "row m=89 n=7 matched=true assignment=3,7,23,31,47,5,2" in lines
    assert lines[-2] == "summary runs: 24"
    assert lines[-1] == "summary matched_runs: 24"


def test_nonw_report_golden():
    result = run_cli("nonw", "2183", "--max", "20", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == NONW_REPORT_GOLDEN


def test_nonw_default_bound():
    result = run_cli("nonw", "10")
    assert result.returncode == 0
    assert result.stdout == "nonw  format=text m=10\nbound = 25\nlongest_run = 0\n"


def test_reciprocity_scan_report_golden():
    result = run_cli("reciprocity-scan", "--limit", "20", "--format", "report")
    assert result.returncode == 0
    assert result.stdout == RECIPROCITY_SCAN_REPORT_GOLDEN


def test_interval_equiv_scan():
    result = run_cli("interval-equiv", "--scan", "50", "--format", "report")
    assert result.returncode == 0
    assert "summary checked: 50" in result.stdout
    assert "summary mismatches: 0" in result.stdout


def test_stats_yao_knuth_integer_lines():
    result = run_cli("stats", "yao-knuth", "1000", "--format", "report")
    assert result.returncode == 0
    assert "summary total: 32519" in result.stdout


def run_main(capsys, *args):
    """One invocation in this process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["stats", "yao-knuth", "1000"], STATS_YAO_KNUTH_REPORT_GOLDEN),
        (["perfect", "--scan", "10000"], PERFECT_SCAN_REPORT_GOLDEN),
        (["grimm", "--scan", "100"], GRIMM_SCAN_REPORT_GOLDEN),
        (["interval-equiv", "--scan", "50"], INTERVAL_EQUIV_SCAN_REPORT_GOLDEN),
    ],
)
def test_scan_and_statistics_report_goldens(capsys, argv, golden):
    assert run_main(capsys, *argv, "--format", "report") == (0, golden, "")


def test_dynamics_trace_goldens(capsys):
    argv = ["dynamics", "21", "13", "--trace"]
    assert run_main(capsys, *argv) == (0, DYNAMICS_TRACE_TEXT_GOLDEN, "")
    assert run_main(capsys, *argv, "--format", "report") == (
        0,
        DYNAMICS_TRACE_REPORT_GOLDEN,
        "",
    )


def test_div_from_bezout_long_quotient_goldens(capsys):
    argv = ["div-from-bezout", "10000000", "3"]
    assert run_main(capsys, *argv) == (0, DIV_FROM_BEZOUT_LONG_TEXT_GOLDEN, "")
    assert run_main(capsys, *argv, "--format", "report") == (
        0,
        DIV_FROM_BEZOUT_LONG_REPORT_GOLDEN,
        "",
    )


def test_dynamics_trace_flags_a_run_the_step_matrices_do_not_replay(capsys, monkeypatch):
    run = cf_dynamics.dynamical_run(21, 13)
    wrong = cf_dynamics.DynamicsRun(run.start, run.step_count, (1, 0), run.product)
    monkeypatch.setattr(cf_dynamics, "dynamical_run", lambda *args, **kwargs: wrong)
    code, out, _ = run_main(capsys, "dynamics", "21", "13", "--trace")
    assert code == 1
    assert out.endswith("VIOLATION: replay ends at (0, 1), not at (1, 0)\n")


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_1_on_falsified_hypothesis():
    result = run_cli("perfect", "11")
    assert result.returncode == 1
    assert "VIOLATION: 2**11 - 1 is composite; no perfect number here" in result.stdout


def test_exit_code_2_on_domain_error():
    result = run_cli("gcd", "0", "5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "a must be at least 1, got 0" in result.stderr


def test_exit_code_2_on_bad_certificate():
    result = run_cli("div-from-bezout", "240", "46", "--x", "1", "--y", "1", "--g", "2")
    assert result.returncode == 2
    assert "certificate identity fails" in result.stderr


def test_exit_code_2_on_incomplete_certificate():
    result = run_cli("div-from-bezout", "240", "46", "--x", "1", "--y", "1")
    assert result.returncode == 2
    assert "needs all of --x, --y, --g or none" in result.stderr


def test_exit_code_2_on_unknown_command():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_exit_code_2_on_prime_in_grimm_window():
    result = run_cli("grimm", "4", "3")
    assert result.returncode == 2
    assert "window element 5 is not composite" in result.stderr


def test_exit_code_3_on_exhausted_budget():
    result = run_cli("gcd", "1000000", "1", "--method", "subtractive", "--budget", "10")
    assert result.returncode == 3
    assert "exceeded 10 subtraction steps" in result.stderr


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "gcd" in result.stdout


def test_exit_code_1_report_goldens(capsys):
    message = "2**11 - 1 is composite; no perfect number here"
    assert run_main(capsys, "perfect", "11") == (
        1,
        f"perfect  format=text p=11\nVIOLATION: {message}\n",
        "",
    )
    assert run_main(capsys, "perfect", "11", "--format", "report") == (
        1,
        f"command: perfect\nparam format: report\nparam p: 11\nviolation: {message}\n",
        "",
    )


# Exit 2 and 3 reports echo the parameters like any other report, in the
# layout --format asks for, with the error as their one violation and no rows
# or summary. They go to --out when it is given, and to stderr otherwise.
ERROR_GOLDENS = [
    pytest.param(
        ["gcd", "0", "5"],
        2,
        {
            "text": "gcd  a=0 b=5 format=text method=remainder trace=false\n"
            "VIOLATION: a must be at least 1, got 0\n",
            "report": "command: gcd\nparam a: 0\nparam b: 5\nparam format: report\n"
            "param method: remainder\nparam trace: false\n"
            "violation: a must be at least 1, got 0\n",
        },
        id="gcd-domain",
    ),
    pytest.param(
        ["div-from-bezout", "10000000", "3", "--budget", "5"],
        3,
        {
            "text": "div-from-bezout  a=10000000 b=3 budget=5 format=text\n"
            "VIOLATION: gcd validation for (10000000, 3) exceeded 5 doubling steps\n",
            "report": "command: div-from-bezout\nparam a: 10000000\nparam b: 3\n"
            "param budget: 5\nparam format: report\n"
            "violation: gcd validation for (10000000, 3) exceeded 5 doubling steps\n",
        },
        id="div-from-bezout-budget",
    ),
    pytest.param(
        ["gcd", "1000000", "1", "--method", "subtractive", "--budget", "10"],
        3,
        {
            "text": "gcd  a=1000000 b=1 budget=10 format=text method=subtractive trace=false\n"
            "VIOLATION: gcd_subtractive(1000000, 1): exceeded 10 subtraction steps\n",
            "report": "command: gcd\nparam a: 1000000\nparam b: 1\nparam budget: 10\n"
            "param format: report\nparam method: subtractive\nparam trace: false\n"
            "violation: gcd_subtractive(1000000, 1): exceeded 10 subtraction steps\n",
        },
        id="gcd-subtractive-budget",
    ),
    pytest.param(
        ["reciprocity-scan", "--limit", "-3"],
        2,
        {
            "text": "reciprocity-scan  format=text limit=-3\n"
            "VIOLATION: reciprocity-scan needs limit >= 0, got -3\n",
            "report": "command: reciprocity-scan\nparam format: report\nparam limit: -3\n"
            "violation: reciprocity-scan needs limit >= 0, got -3\n",
        },
        id="reciprocity-scan-negative-limit",
    ),
]


@pytest.mark.parametrize("fmt", ["text", "report"])
@pytest.mark.parametrize("argv, code, goldens", ERROR_GOLDENS)
def test_error_report_goldens(capsys, argv, code, goldens, fmt):
    assert run_main(capsys, *argv, "--format", fmt) == (code, "", goldens[fmt])


def test_error_report_goes_to_out(capsys, tmp_path):
    out_path = tmp_path / "error.txt"
    argv = ["gcd", "0", "5", "--format", "report", "--out", str(out_path)]
    assert run_main(capsys, *argv) == (2, "", "")
    assert out_path.read_text(encoding="utf-8") == (
        "command: gcd\nparam a: 0\nparam b: 5\nparam format: report\n"
        f"param method: remainder\nparam out: {out_path}\nparam trace: false\n"
        "violation: a must be at least 1, got 0\n"
    )


@pytest.mark.parametrize(
    "argv, golden",
    [
        pytest.param(
            ["perfect", "7", "--scan", "5"],
            "perfect  format=text p=7 scan=5\n"
            "VIOLATION: perfect needs an exponent or --scan, not both\n",
            id="perfect-both",
        ),
        pytest.param(
            ["reciprocity-scan"],
            "reciprocity-scan  format=text\nVIOLATION: reciprocity-scan needs --limit\n",
            id="reciprocity-scan-no-limit",
        ),
        pytest.param(
            ["grimm", "89"],
            "grimm  format=text m=89\n"
            "VIOLATION: grimm needs both m and n for a single window\n",
            id="grimm-no-n",
        ),
        pytest.param(
            ["interval-equiv"],
            "interval-equiv  format=text\n"
            "VIOLATION: interval-equiv needs m or --scan, not both\n",
            id="interval-equiv-neither",
        ),
    ],
)
def test_usage_error_goldens(capsys, argv, golden):
    assert run_main(capsys, *argv) == (2, "", golden)


def test_argparse_usage_errors_keep_the_bare_layout(capsys, tmp_path):
    out_path = tmp_path / "usage.txt"
    assert run_main(capsys, "gcd", "0", "--format", "report", "--out", str(out_path)) == (
        2,
        "",
        "usage\nVIOLATION: the following arguments are required: b\n",
    )
    assert not out_path.exists()


def test_perfect_scan_honours_budget(capsys):
    assert run_main(capsys, "perfect", "--scan", "10000", "--budget", "1") == (
        3,
        "",
        "perfect  budget=1 format=text scan=10000\n"
        "VIOLATION: perfect_scan(10000): sieve limit is 1\n",
    )


def test_reciprocity_scan_limit_zero_checks_no_pair(capsys):
    assert run_main(capsys, "reciprocity-scan", "--limit", "0") == (
        0,
        "reciprocity-scan  format=text limit=0\npairs_checked = 0\nnonzero_residuals = 0\n",
        "",
    )


def test_nested_command_error_names_the_full_command(capsys):
    assert run_main(capsys, "stats", "yao-knuth", "1") == (
        2,
        "",
        "stats yao-knuth  a=1 format=text\nVIOLATION: yao_knuth_stat needs a >= 2, got 1\n",
    )


def test_help_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert run_main(capsys, "--help") == (0, HELP_GOLDEN, "")


# ---------------------------------------------------------------------------
# output file


def test_out_flag_writes_the_report(tmp_path):
    out_path = tmp_path / "run.txt"
    result = run_cli("gcd", "240", "46", "--format", "report", "--out", str(out_path))
    assert result.returncode == 0
    assert result.stdout == ""
    content = out_path.read_text(encoding="utf-8")
    assert "summary gcd: 2" in content
    assert f"param out: {out_path}" in content


# ---------------------------------------------------------------------------
# the two formats carry identical values


def _parse_report(text):
    params, summary, rows, violations = {}, {}, [], []
    command = None
    for line in text.splitlines():
        if line.startswith("command: "):
            command = line[len("command: ") :]
        elif line.startswith("param "):
            key, value = line[len("param ") :].split(": ", 1)
            params[key] = value
        elif line.startswith("row "):
            rows.append(dict(kv.split("=", 1) for kv in line[len("row ") :].split(" ")))
        elif line.startswith("summary "):
            key, value = line[len("summary ") :].split(": ", 1)
            summary[key] = value
        elif line.startswith("violation: "):
            violations.append(line[len("violation: ") :])
    return command, params, rows, summary, violations


def _parse_text(text):
    lines = text.splitlines()
    headline = lines[0]
    if "  " in headline:
        command, param_str = headline.split("  ", 1)
        params = dict(kv.split("=", 1) for kv in param_str.split(" "))
    else:
        command, params = headline, {}
    rows, summary, violations = [], {}, []
    for line in lines[1:]:
        if line.startswith("  "):
            rows.append(dict(kv.split("=", 1) for kv in line.strip().split(" ")))
        elif line.startswith("VIOLATION: "):
            violations.append(line[len("VIOLATION: ") :])
        elif " = " in line:
            key, value = line.split(" = ", 1)
            summary[key] = value
    return command, params, rows, summary, violations


FORMAT_IDENTITY_COMMANDS = [
    ["gcd", "240", "46", "--trace"],
    ["gcd", "1071", "462", "--method", "subtractive", "--trace"],
    ["xgcd", "99", "78"],
    ["div-from-bezout", "99", "78"],
    ["lowest-terms", "36", "24"],
    ["cf", "355", "113"],
    ["stats", "yao-knuth", "50"],
    ["dynamics", "21", "13"],
    ["dedekind", "5", "7"],
    ["reciprocity-scan", "--limit", "12"],
    ["perfect", "7"],
    ["perfect", "11"],
    ["euclid-extend", "2", "3", "5"],
    ["wseq", "2", "3", "4", "5", "6"],
    ["interval-equiv", "4"],
    ["grimm", "89", "7"],
    ["nonw", "2183", "--max", "20"],
]


def test_text_and_report_formats_carry_identical_values():
    for argv in FORMAT_IDENTITY_COMMANDS:
        text_code, text_report = cli.execute(argv)
        report_code, report_report = cli.execute([*argv, "--format", "report"])
        assert text_code == report_code, argv
        t_cmd, t_params, t_rows, t_summary, t_violations = _parse_text(
            cli.render_text(text_report)
        )
        r_cmd, r_params, r_rows, r_summary, r_violations = _parse_report(
            cli.render_report(report_report)
        )
        assert t_cmd == r_cmd, argv
        t_params.pop("format")
        r_params.pop("format")
        assert t_params == r_params, argv
        assert t_rows == r_rows, argv
        assert t_summary == r_summary, argv
        assert t_violations == r_violations, argv


# ---------------------------------------------------------------------------
# byte-identical replay


REPLAY_COMMANDS = [
    ["gcd", "240", "46", "--trace", "--format", "report"],
    ["xgcd", "240", "46", "--format", "report"],
    ["stats", "yao-knuth", "500", "--format", "report"],
    ["grimm", "--scan", "500", "--format", "report"],
    ["perfect", "--scan", "10000", "--format", "report"],
    ["reciprocity-scan", "--limit", "40", "--format", "report"],
    ["interval-equiv", "--scan", "60", "--format", "report"],
    ["wseq", "2", "3", "4", "5", "6", "--format", "report"],
    ["euclid-extend", "2", "3", "5", "7", "11", "13", "--format", "report"],
    ["nonw", "2183", "--max", "20", "--format", "report"],
]


def test_reports_replay_byte_identically_across_hash_seeds():
    for argv in REPLAY_COMMANDS:
        first = run_cli(*argv, hash_seed="0")
        second = run_cli(*argv, hash_seed="1")
        third = run_cli(*argv, hash_seed="0")
        assert first.returncode == second.returncode == third.returncode, argv
        assert first.stdout == second.stdout == third.stdout, argv


# ---------------------------------------------------------------------------
# the README's command block and the command table agree


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_command_lines_parse_and_cover_every_command():
    parser = cli._build_parser()
    documented = set()
    for argv in _readme_command_lines():
        assert argv[0] == "euclidkit", argv
        documented.add(parser.parse_args(argv[1:]).subcommand.name)
    assert documented == {command.name for command in cli.COMMANDS}
