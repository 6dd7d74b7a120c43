"""The euclid-pairs workload: library calls in-process on seeded pair sets.

The same euclid and cf_dynamics code serves many short chains (balanced)
and a few very long ones (skewed); a process per pair would bury the chain
under start-up, so the calls run in the benchmark's own process after import
and input generation are done.
"""

from __future__ import annotations

import random
from time import perf_counter

import checks as ck
from checks import CheckError
from record import OpRecord, Round
from tracing import Tracer, install, uninstall

BALANCED_BITS = (32, 128, 332)
BALANCED_PAIRS = 40  # per size
MAX_PARTIAL_QUOTIENT = 10**3  # seeded pairs above it are redrawn
SKEWED_SUMS = (10**4, 10**5, 999_000)  # partial-quotient sums, under the 10**6 step budget
DIVISION_SIZES = ((16, 24), (24, 32), (40, 48), (64, 72), (128, 136))  # (bits of a, bits of b), a < b
DIVISION_PAIRS = 4  # per size
SMALL_DIVISION_PAIRS = 10  # 12-bit pairs, run in both operand orders
MULTIPLE_PAIRS = 5  # a = k*b with k < 1000
DEDEKIND_KS = (10**4, 31_623, 10**5, 316_228, 10**6)
YAO_KNUTH_A = 10**5

# division_from_bezout inputs that fail on every run; they do not depend on the seed
DIVISION_FAULTS = (
    # 40-bit a > b: the t < 0 interval scan needs about x*(a - b)/b unit steps
    (705754639823, 658489299188, "interval steps"),
    (1033474460560, 920412273759, "interval steps"),
    (1079511085166, 596813804922, "interval steps"),
    # validating the certificate takes about 10**7/3 subtractions
    (10**7, 3, "gcd validation"),
)
ROUND_SPAN_CAP = 50_000
# subset -> part; the fixed fault inputs get their own timing kinds
PARTS = {"balanced": 0, "skewed": 1, "division": 2, "division-fault": 2, "dedekind": 3, "statistics": 3}
# functions timed as one kind: a continued fraction's expansion and evaluation
KINDS = {"cf_expand": "cf_round_trip", "cf_value": "cf_round_trip"}


def _bounded_pair(rng, bits_a: int, bits_b: int):
    """A pair of the given sizes with every partial quotient at most the cap.

    Long partial quotients belong to the skewed subset. A seeded pair with
    one above 10**6 would exhaust a step budget on some seeds only, and one
    in the thousands would make the subtractive chains' cost vary by seed.
    """
    while True:
        a = rng.getrandbits(bits_a) | 1 << (bits_a - 1)
        b = rng.getrandbits(bits_b) | 1 << (bits_b - 1)
        qs = ck.quotients(a, b)
        if a != b and max(qs) <= MAX_PARTIAL_QUOTIENT:
            return a, b, qs


def _skewed_pair(rng, total: int):
    """Coprime pair whose continued fraction has random small quotients and one
    long one, with partial quotients summing exactly to `total`."""
    qs = [rng.randrange(1, 10) for _ in range(rng.randrange(8, 16))]
    qs.append(2)  # a regular expansion does not end in 1
    qs.insert(rng.randrange(len(qs)), total - sum(qs))
    value = ck.fraction_from_quotients(qs)
    return value.numerator, value.denominator, qs


def make_inputs(seed: int) -> dict:
    rng = random.Random(f"euclid-pairs/{seed}")
    balanced = [_bounded_pair(rng, bits, bits) for bits in BALANCED_BITS for _ in range(BALANCED_PAIRS)]
    skewed = [_skewed_pair(rng, total) for total in SKEWED_SUMS]
    division = []
    for bits_a, bits_b in DIVISION_SIZES:
        division += [_bounded_pair(rng, bits_a, bits_b)[:2] for _ in range(DIVISION_PAIRS)]
    for _ in range(SMALL_DIVISION_PAIRS):
        a, b, _ = _bounded_pair(rng, 12, 12)
        division += [(a, b), (b, a)]
    for _ in range(MULTIPLE_PAIRS):
        b = rng.getrandbits(40) | 1 << 39
        division.append((b * rng.randrange(2, 1000), b))
    dedekind = []
    for k in DEDEKIND_KS:
        k += rng.randrange(k // 100)
        h = rng.randrange(1, k)
        dedekind.append((h, k, ck.dedekind_by_terms(h, k)))
    a = YAO_KNUTH_A + rng.randrange(1000)
    return {
        "balanced": balanced,
        "skewed": skewed,
        "division": [(a, b, None) for a, b in division] + list(DIVISION_FAULTS),
        "dedekind": dedekind,
        "yao_knuth": (a, ck.quotient_totals(a)),
    }


class PairsWorkload:
    name = "euclid-pairs"

    def __init__(self, root):
        from euclidkit import cf_dynamics, dedekind, euclid
        from euclidkit.errors import ResourceLimitError

        self.euclid, self.cf, self.dedekind = euclid, cf_dynamics, dedekind
        self.limit_error = ResourceLimitError

    def setup(self, seed: int) -> None:
        self.inputs = make_inputs(seed)

    def run_round(self, index: int, traced: bool) -> Round:
        rnd = Round(traced)
        tracer = Tracer(span_cap=ROUND_SPAN_CAP) if traced else None
        patched = install(tracer) if traced else []
        try:
            self._round(rnd, tracer)
        finally:
            uninstall(patched)
        if traced:
            rnd.add_trace(tracer.stats, tracer.spans, tracer.dropped)
        return rnd

    def _call(self, rnd, tracer, subset, module, name, *args, may_fail=False):
        """One timed library call, looked up at call time so tracing sees it.

        With may_fail, a ResourceLimitError is returned instead of raised.
        """
        if tracer is not None:
            tracer.op = len(rnd.ops)
        fn = getattr(module, name)
        label = f"{subset}.{KINDS.get(name, name)}"
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            rnd.ops.append(OpRecord(label, perf_counter() - start, PARTS[subset], failed=True))
            if may_fail and isinstance(exc, self.limit_error):
                return exc
            raise
        rnd.ops.append(OpRecord(label, perf_counter() - start, PARTS[subset]))
        return result

    def _round(self, rnd: Round, tracer) -> None:
        def call(subset, module, name, *args, may_fail=False):
            return self._call(rnd, tracer, subset, module, name, *args, may_fail=may_fail)

        eu, cf, dk = self.euclid, self.cf, self.dedekind
        inp = self.inputs
        try:
            rnd.sample_speed()
            for a, b, qs in inp["balanced"]:
                g, trace = call("balanced", eu, "gcd_remainder", a, b)
                ck.check_gcd(a, b, g)
                ck.check_remainder_chain(a, b, [step.quotient for step in trace.steps], qs)
                cert = call("balanced", eu, "xgcd", a, b)
                ck.check_bezout(a, b, cert.g, cert.x, cert.y)
                expansion = call("balanced", cf, "cf_expand", a, b)
                num, den = call("balanced", cf, "cf_value", expansion)
                ck.check_cf_round_trip(a, b, expansion.quotients, num, den, qs)
                g, trace = call("balanced", eu, "gcd_subtractive", a, b)
                ck.check_subtractive(a, b, g, trace.step_count, qs)
                run = call("balanced", cf, "dynamical_run", a, b)
                p = run.product
                ck.check_dynamics(a, b, run.step_count, run.terminal, (p.m11, p.m12, p.m21, p.m22), qs)
            rnd.sample_speed()
            for a, b, qs in inp["skewed"]:
                g, trace = call("skewed", eu, "gcd_subtractive", a, b)
                ck.check_subtractive(a, b, g, trace.step_count, qs)
                del trace
                run = call("skewed", cf, "dynamical_run", a, b)
                p = run.product
                ck.check_dynamics(a, b, run.step_count, run.terminal, (p.m11, p.m12, p.m21, p.m22), qs)
            rnd.sample_speed()
            for a, b, fault in inp["division"]:
                subset = "division" if fault is None else "division-fault"
                cert = call(subset, eu, "xgcd", a, b)
                ck.check_bezout(a, b, cert.g, cert.x, cert.y)
                result = call(subset, eu, "division_from_bezout", a, b, cert, may_fail=True)
                if isinstance(result, self.limit_error):
                    rnd.faults.append(str(result))
                    if fault is None or fault not in str(result):
                        rnd.problems.append(f"unexpected failure: {result}")
                else:
                    ck.check_division(a, b, *result)
            rnd.sample_speed()
            for h, k, expected in inp["dedekind"]:
                ck.check_dedekind(h, k, call("dedekind", dk, "dedekind_sum", h, k), expected)
            rnd.sample_speed()
            a, expected = inp["yao_knuth"]
            stat = call("statistics", cf, "yao_knuth_stat", a)
            mean = call("statistics", cf, "average_cf_length", a)
            ck.check_yao_knuth(a, stat.total, stat.predicted, stat.ratio, mean, expected)
            rnd.sample_speed()
        except CheckError as exc:
            rnd.problems.append(str(exc))
        except Exception as exc:  # a call that should not fail; the round stops here
            rnd.faults.append(f"{rnd.ops[-1].label}: {type(exc).__name__}: {exc}")
            rnd.problems.append(f"unexpected failure in {rnd.ops[-1].label}: {exc}")
