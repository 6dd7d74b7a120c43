"""The CLI workloads: one `python -m euclidkit` child at a time, in a closed loop.

cli-small runs the README quick commands, each in both output formats, so
start-up, import and the CLI's parse and render dominate. cli-scans runs the
README scan commands at their documented sizes, where the sieve, matching,
witness and Dedekind layers do seconds of work per process.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks as ck
from checks import CheckError, KnownFault, expect
from proc import child_env, run_child
from record import OpRecord, Round
from tracing import TRACE_MARK

TRACE_CHILD = str(Path(__file__).with_name("trace_child.py"))

PERFECT_SCAN = 10**7
GRIMM_SCAN = 10**5
INTERVAL_SCAN = 2000
RECIPROCITY_LIMIT = 150


@dataclass
class CliOp:
    label: str
    argv: list[str]  # subcommand and arguments, without --format
    check: Callable[[dict], None]  # parsed output -> raises CheckError or KnownFault
    part: int = 0


def _op(label, argv, check) -> CliOp:
    return CliOp(label, [str(v) for v in argv], check)


def _ints(csv: str) -> list[int]:
    return [int(v) for v in csv.split(",")] if csv else []


# --- cli-small: the README quick commands, inputs drawn from the seed ---------


def _gcd_remainder(rng):
    a, b = rng.randrange(10**5, 10**9), rng.randrange(10**5, 10**9)
    qs = ck.quotients(a, b)

    def check(out):
        s = out["summary"]
        ck.check_gcd(a, b, int(s["gcd"]))
        expect(int(s["step_count"]) == len(qs), f"gcd({a}, {b}) reports {s['step_count']} steps")
        ck.check_trace_rows(out["rows"], "remainder", len(qs))
        ck.check_remainder_chain(a, b, [int(r["quotient"]) for r in out["rows"]], qs)

    return _op("gcd", ["gcd", a, b, "--trace"], check)


def _gcd_subtractive(rng):
    while True:  # short chains: one trace row per subtraction
        a, b = rng.randrange(100, 10**4), rng.randrange(100, 10**4)
        qs = ck.quotients(a, b)
        if sum(qs) <= 300:
            break

    def check(out):
        s = out["summary"]
        ck.check_subtractive(a, b, int(s["gcd"]), int(s["step_count"]), qs)
        ck.check_trace_rows(out["rows"], "subtractive", int(s["step_count"]))

    return _op("gcd-subtractive", ["gcd", a, b, "--method", "subtractive", "--trace"], check)


def _xgcd(rng):
    a, b = rng.getrandbits(64) | 1, rng.getrandbits(64) | 1

    def check(out):
        s = out["summary"]
        ck.check_bezout(a, b, int(s["g"]), int(s["x"]), int(s["y"]))

    return _op("xgcd", ["xgcd", a, b], check)


def _div_from_bezout(rng):
    a, b = 240, 46

    def check(out):
        s = out["summary"]
        ck.check_bezout(a, b, int(s["g"]), int(s["cert_x"]), int(s["cert_y"]))
        ck.check_division(a, b, int(s["quotient"]), int(s["remainder"]))

    return _op("div-from-bezout", ["div-from-bezout", a, b], check)


def _lowest_terms(rng):
    g = rng.randrange(2, 1000)
    a, b = g * rng.randrange(1, 10**6), g * rng.randrange(1, 10**6)

    def check(out):
        s = out["summary"]
        ck.check_lowest_terms(a, b, int(s["reduced_a"]), int(s["reduced_b"]))

    return _op("lowest-terms", ["lowest-terms", a, b], check)


def _cf(rng):
    a, b = rng.getrandbits(64) | 1, rng.getrandbits(64) | 1

    def check(out):
        s = out["summary"]
        qs = _ints(s["quotients"])
        num, den = (int(v) for v in s["value"].split("/"))
        ck.check_cf_round_trip(a, b, qs, num, den)
        expect(int(s["length"]) == len(qs), f"cf length {s['length']} for {len(qs)} quotients")

    return _op("cf", ["cf", a, b], check)


def _yao_knuth(rng):
    a = 1000
    expected = ck.quotient_totals(a)

    def check(out):
        s = out["summary"]
        ck.check_yao_knuth(
            a, int(s["total"]), float(s["predicted"]), float(s["ratio"]), float(s["mean_cf_length"]), expected
        )

    return _op("stats-yao-knuth", ["stats", "yao-knuth", a], check)


def _dynamics(rng):
    # fixed inputs: the trace fault is kept on an input that no seed changes
    x, y = 21, 13

    def check(out):
        s = out["summary"]
        steps = int(s["step_count"])
        terminal = (int(s["terminal_x"]), int(s["terminal_y"]))
        ck.check_dynamics(x, y, steps, terminal, _ints(s["product"]))
        expect(int(s["gcd"]) == math.gcd(x, y) and s["determinant"] == "1", f"dynamics summary {s}")
        if steps and not out["rows"]:
            raise KnownFault(f"dynamics --trace printed no rows for {steps} steps")
        ck.check_dynamics_rows(x, y, out["rows"], steps)

    return _op("dynamics-trace", ["dynamics", x, y, "--trace"], check)


def _dedekind(rng):
    k = rng.randrange(100, 1000)
    h = rng.randrange(1, 2 * k)
    expected = ck.dedekind_by_terms(h, k)

    def check(out):
        ck.check_dedekind(h, k, Fraction(out["summary"]["value"]), expected)

    return _op("dedekind", ["dedekind", h, k], check)


def _perfect(rng):
    p = 7

    def check(out):
        s = out["summary"]
        ck.check_perfect_certificate(p, int(s["mersenne"]), int(s["value"]), int(s["sigma"]))

    return _op("perfect", ["perfect", p], check)


def _euclid_extend(rng):
    primes = sorted(rng.sample([2, 3, 5, 7, 11, 13, 17, 19], rng.randrange(3, 7)))

    def check(out):
        s = out["summary"]
        ck.check_euclid_extension(primes, int(s["e"]), int(s["new_prime"]))

    return _op("euclid-extend", ["euclid-extend", *primes], check)


def _wseq(rng):
    values = sorted(rng.sample(range(2, 40), 5))
    expected = ck.witness_index(values)

    def check(out):
        s = out["summary"]
        want = ("none", "none") if expected is None else (str(expected), str(values[expected - 1]))
        got = (s["witness_index"], s["witness_value"])
        expect(got == want and s["is_w"] == ("true" if expected else "false"), f"wseq {values}: {got}, expected {want}")

    return _op("wseq", ["wseq", *values], check)


def _interval(rng):
    m = rng.randrange(1, INTERVAL_SCAN + 1)
    expected = ck.window_has_prime(m)

    def check(out):
        s = out["summary"]
        ck.check_interval(m, s["prime_exists"] == "true", s["is_w"] == "true", expected)
        expect(s["equal"] == "true", f"interval-equiv {m} reports equal={s['equal']}")

    return _op("interval-equiv", ["interval-equiv", m], check)


def _grimm(rng):
    m, n = rng.choice([run for run in ck.composite_runs(GRIMM_SCAN) if run[1] >= 3])

    def check(out):
        s = out["summary"]
        expect(s["matched"] == "true" and s["validated"] == "true", f"grimm {m} {n}: {s}")
        ck.check_grimm_assignment(m, n, _ints(s["assignment"]))

    return _op("grimm", ["grimm", m, n], check)


def _nonw(rng):
    m, n_max = 2183, 20
    expected = ck.longest_witness_free_run(m, n_max)

    def check(out):
        s = out["summary"]
        expect(s["bound"] == str(n_max), f"nonw bound {s['bound']}")
        expect(int(s["longest_run"]) == expected, f"nonw {m}: longest run {s['longest_run']}, expected {expected}")

    return _op("nonw", ["nonw", m, "--max", n_max], check)


# the four parts, by the library module each command calls
SMALL_PARTS = (
    (_gcd_remainder, _gcd_subtractive, _xgcd, _div_from_bezout, _lowest_terms),  # euclid
    (_cf, _yao_knuth, _dynamics, _dedekind),  # cf_dynamics and dedekind
    (_perfect, _euclid_extend),  # propositions
    (_wseq, _interval, _grimm, _nonw),  # sequences
)


def small_ops(seed: int) -> list[CliOp]:
    rng = random.Random(f"cli-small/{seed}")
    ops = []
    for part, makers in enumerate(SMALL_PARTS):
        for make in makers:
            ops.append(make(rng))
            ops[-1].part = part
    return ops


# --- cli-scans: the README scans at their documented sizes --------------------


def scan_ops(seed: int) -> list[CliOp]:
    """The four scans, one part each. Their sizes are the documented ones;
    the seed only orders them within each round."""
    runs = ck.composite_runs(GRIMM_SCAN)
    flags = ck.sieve(GRIMM_SCAN + 1000)
    pairs = ck.coprime_pairs(RECIPROCITY_LIMIT)

    def perfect(out):
        hits = [(int(r["n"]), int(r["p"])) for r in out["rows"]]
        ck.check_perfect_scan(hits)
        expect(out["summary"]["count"] == str(len(hits)), "perfect scan count differs from its rows")

    def grimm(out):
        ck.check_grimm_scan(out["rows"], runs, flags)
        s = out["summary"]
        expect(s["runs"] == s["matched_runs"] == str(len(runs)), f"grimm scan summary {s}")

    def interval(out):
        s = out["summary"]
        ck.check_interval_scan(INTERVAL_SCAN, int(s["checked"]), int(s["mismatches"]), out["violations"])

    def reciprocity(out):
        s = out["summary"]
        ck.check_reciprocity_scan(
            RECIPROCITY_LIMIT, int(s["pairs_checked"]), int(s["nonzero_residuals"]), out["violations"], pairs
        )

    ops = [
        _op("perfect-scan", ["perfect", "--scan", PERFECT_SCAN], perfect),
        _op("grimm-scan", ["grimm", "--scan", GRIMM_SCAN], grimm),
        _op("interval-scan", ["interval-equiv", "--scan", INTERVAL_SCAN], interval),
        _op("reciprocity-scan", ["reciprocity-scan", "--limit", RECIPROCITY_LIMIT], reciprocity),
    ]
    for part, op in enumerate(ops):
        op.part = part
    return ops


# --- running -------------------------------------------------------------------


class CliWorkload:
    def __init__(self, name: str, root: Path):
        self.name = name
        self.root = root
        self.env = child_env(root)
        self.formats = ("text", "report") if name == "cli-small" else ("report",)
        self.make_ops = small_ops if name == "cli-small" else scan_ops

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.ops = self.make_ops(seed)

    def run_round(self, index: int, traced: bool) -> Round:
        rnd = Round(traced)
        order = list(self.ops)
        random.Random(f"{self.name}/{self.seed}/{index}").shuffle(order)
        for op in order:
            outs = []
            for fmt in self.formats:
                rnd.sample_speed()
                outs.append(self._run(op, fmt, traced, rnd))
            if len(outs) == 2 and None not in outs:
                try:
                    ck.check_formats_agree(*outs)
                except CheckError as exc:
                    rnd.problems.append(f"{op.label}: {exc}")
        rnd.sample_speed()
        return rnd

    def _run(self, op: CliOp, fmt: str, traced: bool, rnd: Round) -> dict | None:
        argv = [*op.argv, "--format", fmt]
        child = run_child([TRACE_CHILD, *argv] if traced else ["-m", "euclidkit", *argv], self.root, self.env)
        rec = OpRecord(f"{op.label}/{fmt}", child.wall_s, op.part, child.peak_rss_mib)
        op_id = len(rnd.ops)
        rnd.ops.append(rec)
        stderr = child.stderr
        if traced:
            stderr, _, trace = stderr.partition(TRACE_MARK)
            if trace:
                trace = json.loads(trace)
                spans = [[op_id, *span[1:]] for span in trace["spans"]]
                rnd.add_trace(trace["stats"], spans, trace["dropped"], child.peak_rss_mib)
        if child.code != 0:
            rec.failed = True
            rnd.faults.append(f"{rec.label}: exit {child.code}: {stderr.strip()[-300:]}")
            return None
        try:
            out = ck.parse_output(child.stdout, fmt)
            op.check(out)
        except KnownFault as exc:
            rec.failed = True
            rnd.faults.append(f"{rec.label}: {exc}")
        except (CheckError, KeyError, ValueError) as exc:
            rnd.problems.append(f"{rec.label}: {type(exc).__name__}: {exc}")
            return None
        return out
