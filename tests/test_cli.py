"""Golden transcripts, exit codes, and format agreement for the command line."""

import hashlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from euclidkit import cf_dynamics, cli, primes_up_to, sequences

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


# ---------------------------------------------------------------------------
# golden transcripts


def run_main(capsys, *args):
    """One invocation in this process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


# Whole-output goldens, one row each: (test, argv, stdout). Every row runs in
# this process through run_main and must exit 0 with exactly that stdout and
# nothing on stderr. A test is a name with an optional "[id]"; the rows of a
# name that has more than one become its parameters, so each golden keeps the
# test id it had as a test of its own.
OUTPUT_GOLDENS = [
    ("gcd_report_golden", "gcd 240 46 --trace --format report", GCD_REPORT_GOLDEN),
    (
        "gcd_text_golden",
        "gcd 240 46",
        "gcd  a=240 b=46 format=text method=remainder trace=false\ngcd = 2\nstep_count = 5\n",
    ),
    (
        "gcd_subtractive_trace_text_golden",
        "gcd 1071 462 --method subtractive --trace",
        GCD_SUBTRACTIVE_TEXT_GOLDEN,
    ),
    ("xgcd_report_golden", "xgcd 240 46 --format report", XGCD_REPORT_GOLDEN),
    (
        "div_from_bezout_report_golden",
        "div-from-bezout 240 46 --format report",
        DIV_FROM_BEZOUT_REPORT_GOLDEN,
    ),
    (
        "div_from_bezout_with_explicit_certificate",
        "div-from-bezout 240 46 --x -9 --y 47 --g 2",
        "div-from-bezout  a=240 b=46 format=text g=2 x=-9 y=47\n"
        "g = 2\ncert_x = -9\ncert_y = 47\nquotient = 5\nremainder = 10\n",
    ),
    (
        "div_from_bezout_long_quotient_goldens[text]",
        "div-from-bezout 10000000 3",
        DIV_FROM_BEZOUT_LONG_TEXT_GOLDEN,
    ),
    (
        "div_from_bezout_long_quotient_goldens[report]",
        "div-from-bezout 10000000 3 --format report",
        DIV_FROM_BEZOUT_LONG_REPORT_GOLDEN,
    ),
    (
        # the complete certificate needs no gcd validation, and its floor ladder
        # no doubling (t = 1), so a budget of 5 is enough
        "div_from_bezout_complete_certificate_within_budget",
        "div-from-bezout 10000000 3 --budget 5",
        DIV_FROM_BEZOUT_LONG_TEXT_GOLDEN.replace("format=text", "budget=5 format=text"),
    ),
    (
        "lowest_terms_report_golden",
        "lowest-terms 240 46 --format report",
        LOWEST_TERMS_REPORT_GOLDEN,
    ),
    ("cf_report_golden", "cf 355 113 --format report", CF_REPORT_GOLDEN),
    ("dynamics_report_golden", "dynamics 21 13 --format report", DYNAMICS_REPORT_GOLDEN),
    ("dynamics_trace_goldens[text]", "dynamics 21 13 --trace", DYNAMICS_TRACE_TEXT_GOLDEN),
    (
        "dynamics_trace_goldens[report]",
        "dynamics 21 13 --trace --format report",
        DYNAMICS_TRACE_REPORT_GOLDEN,
    ),
    ("dedekind_report_golden", "dedekind 5 7 --format report", DEDEKIND_REPORT_GOLDEN),
    ("dedekind_text_golden", "dedekind 2 5", "dedekind  format=text h=2 k=5\nvalue = 0/1\n"),
    ("perfect_report_golden", "perfect 7 --format report", PERFECT_REPORT_GOLDEN),
    (
        "euclid_extend_report_golden",
        "euclid-extend 2 3 5 7 11 13 --format report",
        EUCLID_EXTEND_REPORT_GOLDEN,
    ),
    ("wseq_report_golden", "wseq 2 3 4 5 6 --format report", WSEQ_REPORT_GOLDEN),
    (
        "wseq_without_witness_reports_false",
        "wseq 2 4 6",
        "wseq  format=text values=2,4,6\n"
        "is_w = false\nwitness_index = none\nwitness_value = none\n",
    ),
    (
        "interval_equiv_report_golden",
        "interval-equiv 4 --format report",
        INTERVAL_EQUIV_REPORT_GOLDEN,
    ),
    (
        "interval_equiv_scan",
        "interval-equiv --scan 50",
        "interval-equiv  format=text scan=50\nchecked = 50\nmismatches = 0\n",
    ),
    ("grimm_report_golden", "grimm 89 7 --format report", GRIMM_REPORT_GOLDEN),
    ("nonw_report_golden", "nonw 2183 --max 20 --format report", NONW_REPORT_GOLDEN),
    ("nonw_default_bound", "nonw 10", "nonw  format=text m=10\nbound = 25\nlongest_run = 0\n"),
    # Pillai's first witness-free run of 17 (2184..2200) is still the longest
    # with a bound of 10^4, and a 12-digit m on its default bound
    (
        "nonw_long_window_goldens[text-pillai-run-at-max-10000]",
        "nonw 2183 --max 10000",
        "nonw  format=text m=2183 max=10000\nbound = 10000\nlongest_run = 17\n",
    ),
    (
        "nonw_long_window_goldens[text-twelve-digit-m-default-bound]",
        "nonw 999999999999",
        "nonw  format=text m=999999999999\nbound = 3054\nlongest_run = 0\n",
    ),
    (
        "nonw_long_window_goldens[report-pillai-run-at-max-10000]",
        "nonw 2183 --max 10000 --format report",
        "command: nonw\nparam format: report\nparam m: 2183\n"
        "param max: 10000\nsummary bound: 10000\nsummary longest_run: 17\n",
    ),
    (
        "nonw_long_window_goldens[report-twelve-digit-m-default-bound]",
        "nonw 999999999999 --format report",
        "command: nonw\nparam format: report\nparam m: 999999999999\n"
        "summary bound: 3054\nsummary longest_run: 0\n",
    ),
    (
        "reciprocity_scan_report_golden",
        "reciprocity-scan --limit 20 --format report",
        RECIPROCITY_SCAN_REPORT_GOLDEN,
    ),
    (
        "stats_yao_knuth_integer_lines",
        "stats yao-knuth 1000",
        "stats yao-knuth  a=1000 format=text\ntotal = 32519\npredicted = 29008.5079736563\n"
        "ratio = 1.1210159457195\nmean_cf_length = 5.423\n",
    ),
    (
        "scan_and_statistics_report_goldens",
        "stats yao-knuth 1000 --format report",
        STATS_YAO_KNUTH_REPORT_GOLDEN,
    ),
    (
        "scan_and_statistics_report_goldens",
        "perfect --scan 10000 --format report",
        PERFECT_SCAN_REPORT_GOLDEN,
    ),
    (
        "scan_and_statistics_report_goldens",
        "grimm --scan 100 --format report",
        GRIMM_SCAN_REPORT_GOLDEN,
    ),
    (
        "scan_and_statistics_report_goldens",
        "interval-equiv --scan 50 --format report",
        INTERVAL_EQUIV_SCAN_REPORT_GOLDEN,
    ),
]


def _golden_test(cases):
    """The test of one name's rows, given as pytest.params of (argv, stdout):
    parametrized by them when there is more than one."""
    if len(cases) > 1:

        @pytest.mark.parametrize("argv, stdout", cases)
        def test(capsys, argv, stdout):
            assert run_main(capsys, *argv) == (0, stdout, "")

    else:

        def test(capsys, case=cases[0].values):  # a default is no fixture
            argv, stdout = case
            assert run_main(capsys, *argv) == (0, stdout, "")

    return test


def _golden_tests(rows):
    """Test name -> test, for the rows of OUTPUT_GOLDENS."""
    cases = {}
    for key, argv, stdout in rows:
        name, _, case_id = key.partition("[")
        cases.setdefault(f"test_{name}", []).append(
            pytest.param(argv.split(), stdout, id=case_id.rstrip("]") or None)
        )
    return {name: _golden_test(params) for name, params in cases.items()}


globals().update(_golden_tests(OUTPUT_GOLDENS))


def test_grimm_scan_summary(capsys):
    code, out, _ = run_main(capsys, "grimm", "--scan", "100", "--format", "report")
    assert code == 0
    lines = out.splitlines()
    assert "row m=89 n=7 matched=true assignment=3,7,23,31,47,5,2" in lines
    assert lines[-2] == "summary runs: 24"
    assert lines[-1] == "summary matched_runs: 24"


# sha256 of `reciprocity-scan --limit 150` output in each format, the README size
RECIPROCITY_SCAN_150_SHA256 = {
    "text": "94fc844317e2929492e157d7e762aec5fec7f3673ef59e691b5b82fd7110c36d",
    "report": "3cff5f2ee1da110439d1dde7cf4b1959795dd3671bba31b7b5cde50efc1e8bb2",
}


@pytest.mark.parametrize("fmt", ["text", "report"])
def test_reciprocity_scan_at_the_readme_size_is_byte_identical(capsys, fmt):
    code, out, err = run_main(capsys, "reciprocity-scan", "--limit", "150", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RECIPROCITY_SCAN_150_SHA256[fmt]


# sha256 of `grimm --scan 100000` output in each format, the README size
GRIMM_SCAN_100000_SHA256 = {
    "text": "61dfcd1fe251f2c697a9d269d25701339799d79d09c04c4e4d1c7ad98077f5a1",
    "report": "71dbcfe02e7d82ce6b5ebc305292c4be9669348038b8867fe09020d48273d85c",
}


@pytest.mark.parametrize("fmt", ["text", "report"])
def test_grimm_scan_at_the_readme_size_is_byte_identical(capsys, fmt):
    code, out, err = run_main(capsys, "grimm", "--scan", "100000", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GRIMM_SCAN_100000_SHA256[fmt]


# sha256 of `interval-equiv --scan 2000` output in each format, the README size
INTERVAL_SCAN_2000_SHA256 = {
    "text": "b3cbb1e361469a6aca34eb495719821db30cf85ea4286bf76d56c7e06a749a0f",
    "report": "d76bc87b6a6dff8542c368cc5f7bc2c8980e2ccba87e259e592d8aa17a77e1eb",
}


@pytest.mark.parametrize("fmt", ["text", "report"])
def test_interval_scan_at_the_readme_size_is_byte_identical(capsys, fmt):
    code, out, err = run_main(capsys, "interval-equiv", "--scan", "2000", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == INTERVAL_SCAN_2000_SHA256[fmt]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_a_single_large_window_keeps_a_small_peak():
    # the witness side takes the window's block products on its range; a
    # tuple of its 2 * 10**6 values took the process to about 128 MiB.
    # VmHWM is the peak of this process image alone: ru_maxrss would carry
    # the parent's peak across the exec
    child = (
        "import re, sys\n"
        "from euclidkit.cli import main\n"
        "code = main(['interval-equiv', '1000000'])\n"
        "status = open('/proc/self/status').read()\n"
        "print(re.search(r'VmHWM:\\s+(\\d+) kB', status)[1], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.endswith("prime_exists = true\nis_w = true\nequal = true\n")
    assert int(result.stderr) <= 60 * 1024  # KiB


def test_dynamics_trace_flags_a_run_the_step_matrices_do_not_replay(capsys, monkeypatch):
    run = cf_dynamics.dynamical_run(21, 13)
    wrong = cf_dynamics.DynamicsRun(run.start, run.step_count, (1, 0), run.product)
    monkeypatch.setattr(cf_dynamics, "dynamical_run", lambda *args, **kwargs: wrong)
    code, out, _ = run_main(capsys, "dynamics", "21", "13", "--trace")
    assert code == 1
    assert out.endswith("VIOLATION: replay ends at (0, 1), not at (1, 0)\n")


@pytest.mark.parametrize(
    "argv, tail",
    [
        pytest.param(["interval-equiv", "--scan", "2"], "checked = 2\nmismatches = 1\n", id="scan"),
        pytest.param(
            ["interval-equiv", "2"], "prime_exists = true\nis_w = false\nequal = false\n", id="m"
        ),
    ],
)
def test_interval_equiv_flags_a_mismatch(capsys, monkeypatch, argv, tail):
    verdicts = [(1, True, True), (2, True, False)]
    monkeypatch.setattr(sequences, "interval_equivalence_scan", lambda n, sieve_budget: verdicts)
    monkeypatch.setattr(
        sequences, "prime_interval_equivalence", lambda m, sieve_budget: (True, False)
    )
    code, out, _ = run_main(capsys, *argv)
    assert code == 1
    assert out.endswith(tail + "VIOLATION: m=2: prime_exists=true is_w=false\n")


@pytest.mark.parametrize(
    "fmt, line",
    [("text", "VIOLATION: {}\n"), ("report", "violation: {}\n")],
)
def test_grimm_scan_flags_a_run_that_fails_re_validation(capsys, monkeypatch, fmt, line):
    # a certificate that proves no prime fails every row
    monkeypatch.setattr(sequences, "_certified_primes", lambda values: set())
    code, out, _ = run_main(capsys, "grimm", "--scan", "100", "--format", fmt)
    assert code == 1
    assert line.format("run 3+1..3+1: assignment failed independent re-validation") in out
    assert line.format("run 89+1..89+7: assignment failed independent re-validation") in out
    assert out.count("failed independent re-validation") == 24  # every run
    assert "admits no distinct prime assignment" not in out


GRIMM_INFEASIBLE_GOLDENS = {
    "text": "grimm  format=text m=89 n=7\nmatched = false\n"
    "VIOLATION: run 89+1..89+7 admits no distinct prime assignment\n",
    "report": "command: grimm\nparam format: report\nparam m: 89\nparam n: 7\n"
    "summary matched: false\n"
    "violation: run 89+1..89+7 admits no distinct prime assignment\n",
}

GRIMM_SCAN_INFEASIBLE_GOLDENS = {
    "text": "grimm  format=text scan=10\n"
    "  m=3 n=1 matched=true assignment=2\n"
    "  m=5 n=1 matched=true assignment=2\n"
    "  m=7 n=3 matched=false assignment=\n"
    "runs = 3\nmatched_runs = 2\n"
    "VIOLATION: run 7+1..7+3 admits no distinct prime assignment\n",
    "report": "command: grimm\nparam format: report\nparam scan: 10\n"
    "row m=3 n=1 matched=true assignment=2\n"
    "row m=5 n=1 matched=true assignment=2\n"
    "row m=7 n=3 matched=false assignment=\n"
    "summary runs: 3\nsummary matched_runs: 2\n"
    "violation: run 7+1..7+3 admits no distinct prime assignment\n",
}

GRIMM_UNVALIDATED_GOLDENS = {
    "text": "grimm  format=text m=89 n=7\nmatched = true\n"
    "assignment = 3,7,23,31,47,5,2\nvalidated = false\n"
    "VIOLATION: assignment failed independent re-validation\n",
    "report": "command: grimm\nparam format: report\nparam m: 89\nparam n: 7\n"
    "summary matched: true\nsummary assignment: 3,7,23,31,47,5,2\n"
    "summary validated: false\n"
    "violation: assignment failed independent re-validation\n",
}


@pytest.mark.parametrize("fmt", ["text", "report"])
def test_grimm_reports_an_infeasible_window(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sequences, "grimm_assign", lambda m, n, step_budget: None)
    code, out, _ = run_main(capsys, "grimm", "89", "7", "--format", fmt)
    assert (code, out) == (1, GRIMM_INFEASIBLE_GOLDENS[fmt])


@pytest.mark.parametrize("fmt", ["text", "report"])
def test_grimm_scan_reports_an_infeasible_run(capsys, monkeypatch, fmt):
    rows = [*sequences.grimm_scan(10)[:-1], (7, 3, False, (), False)]  # last run infeasible
    monkeypatch.setattr(sequences, "grimm_scan", lambda limit, sieve_budget: rows)
    code, out, _ = run_main(capsys, "grimm", "--scan", "10", "--format", fmt)
    assert (code, out) == (1, GRIMM_SCAN_INFEASIBLE_GOLDENS[fmt])


@pytest.mark.parametrize("fmt", ["text", "report"])
def test_grimm_flags_a_window_that_fails_re_validation(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sequences, "verify_assignment", lambda result, **_: False)
    code, out, _ = run_main(capsys, "grimm", "89", "7", "--format", fmt)
    assert (code, out) == (1, GRIMM_UNVALIDATED_GOLDENS[fmt])


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_1_on_falsified_hypothesis(run_cli):
    result = run_cli("perfect", "11")
    assert result.returncode == 1
    assert "VIOLATION: 2**11 - 1 is composite; no perfect number here" in result.stdout


def test_exit_code_2_on_domain_error(run_cli):
    result = run_cli("gcd", "0", "5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "a must be at least 1, got 0" in result.stderr


def test_exit_code_2_on_bad_certificate(run_cli):
    result = run_cli("div-from-bezout", "240", "46", "--x", "1", "--y", "1", "--g", "2")
    assert result.returncode == 2
    assert "certificate identity fails" in result.stderr


def test_exit_code_2_on_incomplete_certificate(run_cli):
    result = run_cli("div-from-bezout", "240", "46", "--x", "1", "--y", "1")
    assert result.returncode == 2
    assert "needs all of --x, --y, --g or none" in result.stderr


def test_exit_code_2_on_unknown_command(run_cli):
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_exit_code_2_on_prime_in_grimm_window(run_cli):
    result = run_cli("grimm", "4", "3")
    assert result.returncode == 2
    assert "window element 5 is not composite" in result.stderr


def test_exit_code_3_on_exhausted_budget(run_cli):
    result = run_cli("gcd", "1000000", "1", "--method", "subtractive", "--budget", "10")
    assert result.returncode == 3
    assert "exceeded 10 subtraction steps" in result.stderr


def test_help_exits_zero(run_cli):
    result = run_cli("--help")
    assert result.returncode == 0
    assert "gcd" in result.stdout


def test_exit_2_and_3_reports_keep_command_and_parameters_only():
    common = {"format": "text", "trace": "false"}
    cases = [
        (["gcd", "0", "5"], 2, {"a": "0", "b": "5", "method": "remainder"}),
        (
            ["gcd", "1000000", "1", "--method", "subtractive", "--budget", "10"],
            3,
            {"a": "1000000", "b": "1", "method": "subtractive", "budget": "10"},
        ),
    ]
    for argv, expected_code, params in cases:
        code, report = cli.execute(argv)
        assert (code, report.command) == (expected_code, "gcd")
        assert report.parameters == {**common, **params}
        assert (report.rows, report.summary, len(report.violations)) == ([], {}, 1)
    assert cli.Report("gcd").rows is not cli.Report("gcd").rows  # fresh defaults


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
    pytest.param(  # five fields: g is validated by a remainder chain of ladders
        ["div-from-bezout", "10000000", "3", "--x", "1", "--y", "-3333333", "--g", "1"]
        + ["--budget", "5"],
        3,
        {
            "text": "div-from-bezout  a=10000000 b=3 budget=5 format=text g=1 x=1 y=-3333333\n"
            "VIOLATION: gcd validation for (10000000, 3) exceeded 5 doubling steps\n",
            "report": "command: div-from-bezout\nparam a: 10000000\nparam b: 3\n"
            "param budget: 5\nparam format: report\nparam g: 1\nparam x: 1\nparam y: -3333333\n"
            "violation: gcd validation for (10000000, 3) exceeded 5 doubling steps\n",
        },
        id="div-from-bezout-budget",
    ),
    pytest.param(  # xgcd's complete certificate: the floor ladder is the only one
        ["div-from-bezout", "46", "240", "--budget", "4"],
        3,
        {
            "text": "div-from-bezout  a=46 b=240 budget=4 format=text\n"
            "VIOLATION: division_from_bezout(46, 240): exceeded 4 doubling steps\n",
            "report": "command: div-from-bezout\nparam a: 46\nparam b: 240\n"
            "param budget: 4\nparam format: report\n"
            "violation: division_from_bezout(46, 240): exceeded 4 doubling steps\n",
        },
        id="div-from-bezout-floor-budget",
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
        ["gcd", "5", "3", "--method", "subtractive", "--budget", "-1"],
        2,
        {
            "text": "gcd  a=5 b=3 budget=-1 format=text method=subtractive trace=false\n"
            "VIOLATION: gcd_subtractive needs budget >= 0, got -1\n",
            "report": "command: gcd\nparam a: 5\nparam b: 3\nparam budget: -1\n"
            "param format: report\nparam method: subtractive\nparam trace: false\n"
            "violation: gcd_subtractive needs budget >= 0, got -1\n",
        },
        id="gcd-subtractive-negative-budget",
    ),
    pytest.param(
        # perfect_from_mersenne hands its budget to lucas_lehmer and sigma,
        # and checks it first, so the refusal names the function called
        ["perfect", "7", "--budget", "-1"],
        2,
        {
            "text": "perfect  budget=-1 format=text p=7\n"
            "VIOLATION: perfect_from_mersenne needs budget >= 0, got -1\n",
            "report": "command: perfect\nparam budget: -1\nparam format: report\nparam p: 7\n"
            "violation: perfect_from_mersenne needs budget >= 0, got -1\n",
        },
        id="perfect-negative-budget",
    ),
    pytest.param(
        ["reciprocity-scan", "--limit", "-3"],
        2,
        {
            "text": "reciprocity-scan  format=text limit=-3\n"
            "VIOLATION: reciprocity_scan needs limit >= 0, got -3\n",
            "report": "command: reciprocity-scan\nparam format: report\nparam limit: -3\n"
            "violation: reciprocity_scan needs limit >= 0, got -3\n",
        },
        id="reciprocity-scan-negative-limit",
    ),
    pytest.param(
        ["reciprocity-scan", "--limit", "50", "--budget", "49"],
        3,
        {
            "text": "reciprocity-scan  budget=49 format=text limit=50\n"
            "VIOLATION: reciprocity_scan(50): limit is 49\n",
            "report": "command: reciprocity-scan\nparam budget: 49\nparam format: report\n"
            "param limit: 50\nviolation: reciprocity_scan(50): limit is 49\n",
        },
        id="reciprocity-scan-budget",
    ),
    pytest.param(
        ["gcd", "240", "46", "--budget", "1"],
        2,
        {
            "text": "gcd  a=240 b=46 budget=1 format=text method=remainder trace=false\n"
            "VIOLATION: gcd --budget needs --method subtractive\n",
            "report": "command: gcd\nparam a: 240\nparam b: 46\nparam budget: 1\n"
            "param format: report\nparam method: remainder\nparam trace: false\n"
            "violation: gcd --budget needs --method subtractive\n",
        },
        id="gcd-remainder-budget",
    ),
    pytest.param(
        ["perfect", "44497", "--budget", "1000"],
        3,
        {
            "text": "perfect  budget=1000 format=text p=44497\n"
            "VIOLATION: lucas_lehmer(44497): exceeded 1000 squarings\n",
            "report": "command: perfect\nparam budget: 1000\nparam format: report\nparam p: 44497\n"
            "violation: lucas_lehmer(44497): exceeded 1000 squarings\n",
        },
        id="perfect-lucas-lehmer-budget",
    ),
    pytest.param(
        ["perfect", "61"],
        3,
        {
            "text": "perfect  format=text p=61\n"
            "VIOLATION: factorize(2658455991569831744654692615953842176):"
            " exceeded 10000000 trial divisions\n",
            "report": "command: perfect\nparam format: report\nparam p: 61\n"
            "violation: factorize(2658455991569831744654692615953842176):"
            " exceeded 10000000 trial divisions\n",
        },
        id="perfect-sigma-budget",
    ),
    pytest.param(
        ["grimm", "--scan", "101", "--budget", "100"],
        3,
        {
            "text": "grimm  budget=100 format=text scan=101\n"
            "VIOLATION: grimm_scan(101): sieve limit is 100\n",
            "report": "command: grimm\nparam budget: 100\nparam format: report\nparam scan: 101\n"
            "violation: grimm_scan(101): sieve limit is 100\n",
        },
        id="grimm-scan-budget",
    ),
    pytest.param(
        ["grimm", "89", "7", "--budget", "1"],
        3,
        {
            "text": "grimm  budget=1 format=text m=89 n=7\n"
            "VIOLATION: factorize(91): exceeded 1 trial divisions\n",
            "report": "command: grimm\nparam budget: 1\nparam format: report\nparam m: 89\n"
            "param n: 7\nviolation: factorize(91): exceeded 1 trial divisions\n",
        },
        id="grimm-assign-budget",
    ),
    pytest.param(
        ["nonw", "-3"],
        2,
        {
            "text": "nonw  format=text m=-3\nVIOLATION: non_w_max_run needs m >= 0, got -3\n",
            "report": "command: nonw\nparam format: report\nparam m: -3\n"
            "violation: non_w_max_run needs m >= 0, got -3\n",
        },
        id="nonw-negative-m",
    ),
    pytest.param(
        ["nonw", "-3", "--max", "5"],
        2,
        {
            "text": "nonw  format=text m=-3 max=5\nVIOLATION: non_w_max_run needs m >= 0, got -3\n",
            "report": "command: nonw\nparam format: report\nparam m: -3\nparam max: 5\n"
            "violation: non_w_max_run needs m >= 0, got -3\n",
        },
        id="nonw-negative-m-with-max",
    ),
    pytest.param(
        ["nonw", "0", "--max", "10000001"],
        3,
        {
            "text": "nonw  format=text m=0 max=10000001\n"
            "VIOLATION: primes_up_to(10000001): sieve limit is 10000000\n",
            "report": "command: nonw\nparam format: report\nparam m: 0\nparam max: 10000001\n"
            "violation: primes_up_to(10000001): sieve limit is 10000000\n",
        },
        id="nonw-sieve-limit",
    ),
    pytest.param(
        ["interval-equiv", "--scan", "51", "--budget", "50"],
        3,
        {
            "text": "interval-equiv  budget=50 format=text scan=51\n"
            "VIOLATION: interval_equivalence_scan(51): limit is 50\n",
            "report": "command: interval-equiv\nparam budget: 50\nparam format: report\n"
            "param scan: 51\nviolation: interval_equivalence_scan(51): limit is 50\n",
        },
        id="interval-equiv-scan-budget",
    ),
    pytest.param(
        ["stats", "yao-knuth", "11", "--budget", "10"],
        3,
        {
            "text": "stats yao-knuth  a=11 budget=10 format=text\n"
            "VIOLATION: yao_knuth_stat(11): scan budget is 10\n",
            "report": "command: stats yao-knuth\nparam a: 11\nparam budget: 10\n"
            "param format: report\nviolation: yao_knuth_stat(11): scan budget is 10\n",
        },
        id="stats-yao-knuth-scan-budget",
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


# An invalid choice fails the parse before --format is read, so both formats
# give the bare layout.
BOGUS_GOLDEN = (
    "usage\nVIOLATION: argument command: invalid choice: 'bogus' (choose from 'gcd', 'xgcd', "
    "'div-from-bezout', 'lowest-terms', 'cf', 'stats', 'dynamics', 'dedekind', "
    "'reciprocity-scan', 'perfect', 'euclid-extend', 'wseq', 'interval-equiv', 'grimm', 'nonw')\n"
)
STATS_BOGUS_GOLDEN = (
    "usage\nVIOLATION: argument stat: invalid choice: 'bogus' (choose from 'yao-knuth')\n"
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
        pytest.param(["bogus"], BOGUS_GOLDEN, id="bogus-text"),
        pytest.param(["bogus", "--format", "report"], BOGUS_GOLDEN, id="bogus-report"),
        pytest.param(["stats", "bogus"], STATS_BOGUS_GOLDEN, id="stats-bogus-text"),
        pytest.param(
            ["stats", "bogus", "--format", "report"], STATS_BOGUS_GOLDEN, id="stats-bogus-report"
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


def test_stats_yao_knuth_scans_once(capsys, monkeypatch):
    scan = cf_dynamics._quotient_scan
    calls = []

    def counted_scan(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(cf_dynamics, "_quotient_scan", counted_scan)
    code, out, _ = run_main(capsys, "stats", "yao-knuth", "1000")
    assert code == 0 and "mean_cf_length = 5.423\n" in out
    assert calls == [(1000, None, "yao_knuth_stat")]


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


# The first 1,300 odd primes, 3 .. 10663: 1 + their product has more digits
# than Python converts to a string.
ODD_PRIMES_PAST_THE_DIGIT_LIMIT = [str(p) for p in primes_up_to(10663)[1:]]


def test_euclid_extend_past_the_digit_limit_golden(capsys):
    primes = ODD_PRIMES_PAST_THE_DIGIT_LIMIT
    assert len(primes) == 1300
    assert run_main(capsys, "euclid-extend", *primes, "--format", "report") == (
        0,
        f"command: euclid-extend\nparam format: report\nparam primes: {','.join(primes)}\n"
        "summary e: <15236-bit integer>\nsummary new_prime: 2\n",
        "",
    )


def test_euclid_extend_budget_bounds_the_input_primality_check(capsys):
    # trial division of 10**12 + 39 would take about 500,000 steps
    assert run_main(capsys, "euclid-extend", "1000000000039", "--budget", "1") == (
        3,
        "",
        "euclid-extend  budget=1 format=text primes=1000000000039\n"
        "VIOLATION: smallest_prime_factor(1000000000039): exceeded 1 trial divisions\n",
    )


@pytest.mark.parametrize(
    "value, shown",
    [
        ([2, 3, 5], "2,3,5"),
        ((2, True, False), "2,true,false"),
        ((2, 10**4400), f"2,<{(10**4400).bit_length()}-bit integer>"),
        ((Fraction(1, 2), Fraction(10**5000 + 1, 3)), "1/2,<16610-bit integer>/3"),
        ((), ""),
    ],
    ids=["ints", "bools", "past-the-digit-limit", "rationals", "empty"],
)
def test_field_renders_sequences_element_by_element(value, shown):
    # every element follows the value policy; a fast path for int-only sequences must too
    assert cli._field(value) == shown


def test_help_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert run_main(capsys, "--help") == (0, HELP_GOLDEN, "")


@pytest.mark.parametrize("command", cli.COMMANDS, ids=lambda command: command.name)
def test_command_help_names_every_declared_argument(capsys, monkeypatch, command):
    # the parser gives arguments only to the command argv names; its help has them all
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(capsys, *command.name.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: euclidkit {command.name} [-h]")
    for token in [*command.arguments.split(), "--format", "--out"]:
        assert f"\n  {token.rstrip('?*+')}" in out, token


def _registered(parser) -> list[str]:
    """The command names a parser has a subparser for, "group leaf" when nested."""
    names = []
    for action in parser._subparsers._group_actions if parser._subparsers else []:
        for name, sub in action.choices.items():
            names += [f"{name} {leaf}" for leaf in _registered(sub)] or [name]
    return names


@pytest.mark.parametrize("command", cli.COMMANDS, ids=lambda command: command.name)
def test_the_parser_registers_only_the_command_argv_names(command):
    assert _registered(cli._build_parser([*command.name.split(), "1"])) == [command.name]


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["bogus"], ["stats", "bogus"]],
    ids=["empty", "help", "bogus", "stats-bogus"],
)
def test_the_parser_registers_every_command_when_argv_names_none(argv):
    names = [command.name for command in cli.COMMANDS]
    assert len(names) == 15
    assert _registered(cli._build_parser(argv)) == names


# ---------------------------------------------------------------------------
# output file


def test_out_flag_writes_the_report(capsys, tmp_path):
    out_path = tmp_path / "run.txt"
    argv = ["gcd", "240", "46", "--format", "report", "--out", str(out_path)]
    assert run_main(capsys, *argv) == (0, "", "")
    content = out_path.read_text(encoding="utf-8")
    assert "summary gcd: 2" in content
    assert f"param out: {out_path}" in content


@pytest.mark.parametrize("fmt", ["text", "report"])
@pytest.mark.parametrize(
    "argv", [["gcd", "240", "46"], ["gcd", "0", "5"]], ids=["success", "error"]
)
@pytest.mark.parametrize(
    "target, reason",
    [
        pytest.param("directory", "Is a directory", id="directory"),
        pytest.param("missing-parent", "No such file or directory", id="missing-parent"),
    ],
)
def test_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, target, reason, argv, fmt):
    out_path = tmp_path if target == "directory" else tmp_path / "missing" / "run.txt"
    assert run_main(capsys, *argv, "--format", fmt, "--out", str(out_path)) == (
        2,
        "",
        f"cannot write {out_path}: {reason}\n",
    )
    assert list(tmp_path.iterdir()) == []


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
    ["grimm", "--scan", "100"],
    ["perfect", "--scan", "10000"],
    ["interval-equiv", "--scan", "30"],
    ["dynamics", "21", "13", "--trace"],
]


def test_text_and_report_formats_carry_identical_values():
    for argv in FORMAT_IDENTITY_COMMANDS:
        text_code, text_report = cli.execute(argv)
        report_code, report_report = cli.execute([*argv, "--format", "report"])
        assert text_code == report_code, argv
        t_cmd, t_params, t_rows, t_summary, t_violations = _parse_text(
            cli.render(text_report, "text")
        )
        r_cmd, r_params, r_rows, r_summary, r_violations = _parse_report(
            cli.render(report_report, "report")
        )
        assert t_cmd == r_cmd, argv
        t_params.pop("format")
        r_params.pop("format")
        assert t_params == r_params, argv
        assert t_rows == r_rows, argv
        assert t_summary == r_summary, argv
        assert t_violations == r_violations, argv


# ---------------------------------------------------------------------------
# no input escapes as an exception

GRID_VALUES = (-3, 0, 1, 2, 5, 12, 97)  # small: dedekind h k is O(k) and has no budget


def _grid_argv(command, value, with_options):
    """command's argv with each integer argument set to value: every
    positional; or, with options, the required positionals and every integer
    option, --budget 1 where declared. --method subtractive and --trace are
    set wherever declared."""
    argv = command.name.split()
    for token in command.arguments.split():
        name = token.rstrip("?*+")
        if name == "--method":
            argv += [name, "subtractive"]
        elif name == "--trace":
            argv.append(name)
        elif not name.startswith("--"):
            if not with_options or token[-1] not in "?*":
                argv.append(str(value))
        elif with_options:
            argv += [name, "1" if name == "--budget" else str(value)]
    return argv


@pytest.mark.parametrize(
    "argvs",
    [
        pytest.param(
            [_grid_argv(command, v, opts) for v in GRID_VALUES for opts in (False, True)],
            id=command.name,
        )
        for command in cli.COMMANDS
    ]
    + [
        pytest.param(
            [["euclid-extend", *ODD_PRIMES_PAST_THE_DIGIT_LIMIT]], id="euclid-extend-huge"
        )
    ],
)
def test_no_input_escapes_as_an_exception(argvs):
    for argv in argvs:
        code, report = cli.execute(argv)
        assert code in (0, 1, 2, 3), argv
        cli.render(report, "text")
        cli.render(report, "report")


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


def test_reports_replay_byte_identically_across_hash_seeds(run_cli):
    for argv in REPLAY_COMMANDS:
        first = run_cli(*argv, hash_seed="0")
        second = run_cli(*argv, hash_seed="1")
        third = run_cli(*argv, hash_seed="0")
        assert first.returncode == second.returncode == third.returncode, argv
        assert first.stdout == second.stdout == third.stdout, argv


# ---------------------------------------------------------------------------
# the README's command block and the command table agree


def test_readme_command_lines_parse_and_cover_every_command(readme_command_lines):
    documented = set()
    for argv in readme_command_lines:
        assert argv[0] == "euclidkit", argv
        documented.add(cli._build_parser(argv[1:]).parse_args(argv[1:]).subcommand.name)
    assert documented == {command.name for command in cli.COMMANDS}
