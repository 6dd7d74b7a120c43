"""Command-line interface: one subcommand per verification primitive.

Two output styles carry the same values: a human-oriented text layout and a
line-delimited report (command / param / row / summary / violation lines)
with stable key ordering, so repeated runs are byte-identical.

Exit codes: 0 verified, 1 property violation or counterexample, 2 usage
error, 3 resource budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from math import gcd
from typing import Callable, NamedTuple

from . import cf_dynamics, dedekind, euclid, propositions, sequences
from .cf_dynamics import BOTTOM_MINUS_TOP, TOP_MINUS_BOTTOM
from .errors import (
    CertificateMismatchError,
    DomainError,
    HypothesisFailedError,
    ResourceLimitError,
    _at_least,
)
from .integers import rational_str


@dataclass
class Report:
    """Everything a subcommand produced, ready for either renderer."""

    command: str
    parameters: dict[str, str] = field(default_factory=dict)
    rows: list[dict[str, str]] = field(default_factory=list)
    summary: dict[str, str] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _real(value: float) -> str:
    return format(value, ".15g")


def render_report(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for key in sorted(report.parameters):
        lines.append(f"param {key}: {report.parameters[key]}")
    for row in report.rows:
        lines.append("row " + " ".join(f"{k}={v}" for k, v in row.items()))
    for key, value in report.summary.items():
        lines.append(f"summary {key}: {value}")
    for message in report.violations:
        lines.append(f"violation: {message}")
    return "\n".join(lines) + "\n"


def render_text(report: Report) -> str:
    headline = report.command
    params = " ".join(f"{k}={report.parameters[k]}" for k in sorted(report.parameters))
    if params:
        headline += "  " + params
    lines = [headline]
    for row in report.rows:
        lines.append("  " + " ".join(f"{k}={v}" for k, v in row.items()))
    for key, value in report.summary.items():
        lines.append(f"{key} = {value}")
    for message in report.violations:
        lines.append(f"VIOLATION: {message}")
    return "\n".join(lines) + "\n"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of killing the process
        raise UsageError(message)


def _trace_rows(trace: euclid.EuclidTrace) -> list[dict[str, str]]:
    rows = []
    for index, step in enumerate(trace.steps, start=1):
        row = {"step": str(index), "larger": str(step.larger), "smaller": str(step.smaller)}
        if step.quotient is not None:
            row["quotient"] = str(step.quotient)
        row["remainder"] = str(step.remainder)
        rows.append(row)
    return rows


def _cmd_gcd(args, report: Report) -> None:
    """gcd with a replayable trace"""
    if args.method == "subtractive":
        g, trace = euclid.gcd_subtractive(args.a, args.b, step_budget=args.budget)
    else:
        g, trace = euclid.gcd_remainder(args.a, args.b)
    if args.trace:
        report.rows = _trace_rows(trace)
    report.summary["gcd"] = str(g)
    report.summary["step_count"] = str(trace.step_count)


def _cmd_xgcd(args, report: Report) -> None:
    """Bezout certificate by back-substitution"""
    cert = euclid.xgcd(args.a, args.b)
    report.summary["g"] = str(cert.g)
    report.summary["x"] = str(cert.x)
    report.summary["y"] = str(cert.y)


def _cmd_div_from_bezout(args, report: Report) -> None:
    """quotient and remainder rebuilt from a certificate"""
    given = [args.x, args.y, args.g]
    if any(v is not None for v in given) and any(v is None for v in given):
        raise UsageError("div-from-bezout needs all of --x, --y, --g or none")
    if args.x is None:
        cert = euclid.xgcd(args.a, args.b)
    else:
        cert = euclid.BezoutCertificate(args.a, args.b, args.g, args.x, args.y)
    quotient, remainder = euclid.division_from_bezout(
        args.a, args.b, cert, step_budget=args.budget
    )
    report.summary["g"] = str(cert.g)
    report.summary["cert_x"] = str(cert.x)
    report.summary["cert_y"] = str(cert.y)
    report.summary["quotient"] = str(quotient)
    report.summary["remainder"] = str(remainder)


def _cmd_lowest_terms(args, report: Report) -> None:
    """reduce a pair by its gcd"""
    num, den = euclid.lowest_terms(args.a, args.b)
    report.summary["reduced_a"] = str(num)
    report.summary["reduced_b"] = str(den)


def _cmd_cf(args, report: Report) -> None:
    """continued fraction of a/b and its round trip"""
    cf = cf_dynamics.cf_expand(args.a, args.b)
    num, den = cf_dynamics.cf_value(cf)
    report.summary["quotients"] = ",".join(str(q) for q in cf.quotients)
    report.summary["length"] = str(len(cf.quotients))
    report.summary["value"] = f"{num}/{den}"


def _cmd_yao_knuth(args, report: Report) -> None:
    """sum of all partial quotients up to a"""
    stat = cf_dynamics.yao_knuth_stat(args.a, scan_budget=args.budget)
    mean_len = cf_dynamics.average_cf_length(args.a, scan_budget=args.budget)
    report.summary["total"] = str(stat.total)
    report.summary["predicted"] = _real(stat.predicted)
    report.summary["ratio"] = _real(stat.ratio)
    report.summary["mean_cf_length"] = _real(mean_len)


def _cmd_dynamics(args, report: Report) -> None:
    """subtractive map orbit and step matrices"""
    run = cf_dynamics.dynamical_run(args.x, args.y, step_budget=args.budget)
    if args.trace:
        # The step matrices replay the orbit apart from dynamical_run's own update.
        x, y = run.start
        for step in range(1, run.step_count + 1):
            step_matrix = TOP_MINUS_BOTTOM if x >= y else BOTTOM_MINUS_TOP
            x, y = step_matrix.apply(x, y)
            report.rows.append({"step": str(step), "x": str(x), "y": str(y)})
        if (x, y) != run.terminal:
            report.violations.append(f"replay ends at ({x}, {y}), not at {run.terminal}")
    report.summary["step_count"] = str(run.step_count)
    report.summary["terminal_x"] = str(run.terminal[0])
    report.summary["terminal_y"] = str(run.terminal[1])
    report.summary["gcd"] = str(max(run.terminal))
    product = run.product
    report.summary["product"] = ",".join(
        str(v) for v in (product.m11, product.m12, product.m21, product.m22)
    )
    report.summary["determinant"] = str(product.determinant)


def _cmd_dedekind(args, report: Report) -> None:
    """exact Dedekind sum s(h, k)"""
    report.summary["value"] = rational_str(dedekind.dedekind_sum(args.h, args.k))


def _cmd_reciprocity_scan(args, report: Report) -> None:
    """verify reciprocity on all coprime pairs up to --limit"""
    if args.limit is None:
        raise UsageError("reciprocity-scan needs --limit")
    _at_least(args.limit, "limit", 0, "reciprocity-scan")
    pairs = 0
    for k in range(1, args.limit + 1):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            pairs += 1
            residual = dedekind.reciprocity_residual(h, k)
            if residual != 0:
                report.violations.append(
                    f"nonzero residual at h={h} k={k}: {rational_str(residual)}"
                )
    report.summary["pairs_checked"] = str(pairs)
    report.summary["nonzero_residuals"] = str(len(report.violations))


def _cmd_perfect(args, report: Report) -> None:
    """perfect-number certificate or scan"""
    if (args.p is None) == (args.scan is None):
        raise UsageError("perfect needs an exponent or --scan, not both")
    if args.scan is not None:
        for n, p in propositions.perfect_scan(args.scan, sieve_budget=args.budget):
            report.rows.append({"n": str(n), "p": str(p)})
        report.summary["count"] = str(len(report.rows))
        return
    cert = propositions.perfect_from_mersenne(args.p, step_budget=args.budget)
    report.summary["mersenne"] = str(cert.mersenne)
    report.summary["value"] = str(cert.value)
    report.summary["sigma"] = str(cert.sigma_value)


def _cmd_euclid_extend(args, report: Report) -> None:
    """a prime outside any finite list"""
    extension = propositions.euclid_prime_extension(args.primes, step_budget=args.budget)
    report.summary["e"] = str(extension.e_value)
    report.summary["new_prime"] = str(extension.new_prime)


def _cmd_wseq(args, report: Report) -> None:
    """least coprime witness of a sequence"""
    result = sequences.w_witness(args.values)
    is_w = result.witness_index is not None
    report.summary["is_w"] = _bool(is_w)
    report.summary["witness_index"] = str(result.witness_index) if is_w else "none"
    report.summary["witness_value"] = str(result.witness_value) if is_w else "none"


def _cmd_interval_equiv(args, report: Report) -> None:
    """prime between squares vs coprime witness window"""
    if (args.m is None) == (args.scan is None):
        raise UsageError("interval-equiv needs m or --scan, not both")
    if args.scan is not None:
        mismatches = 0
        for m, prime_exists, is_w in sequences.interval_equivalence_scan(args.scan):
            if prime_exists != is_w:
                mismatches += 1
                report.violations.append(
                    f"m={m}: prime_exists={_bool(prime_exists)} is_w={_bool(is_w)}"
                )
        report.summary["checked"] = str(args.scan)
        report.summary["mismatches"] = str(mismatches)
        return
    prime_exists, is_w = sequences.prime_interval_equivalence(args.m)
    report.summary["prime_exists"] = _bool(prime_exists)
    report.summary["is_w"] = _bool(is_w)
    report.summary["equal"] = _bool(prime_exists == is_w)
    if prime_exists != is_w:
        report.violations.append(
            f"m={args.m}: prime_exists={_bool(prime_exists)} is_w={_bool(is_w)}"
        )


def _cmd_grimm(args, report: Report) -> None:
    """distinct prime divisors for composite runs"""
    single = args.m is not None or args.n is not None
    if single and (args.m is None or args.n is None):
        raise UsageError("grimm needs both m and n for a single window")
    if single == (args.scan is not None):
        raise UsageError("grimm needs either m n or --scan")
    if args.scan is not None:
        matched_runs = 0
        for m, n, matched, assignment, validated in sequences.grimm_scan(args.scan):
            row = {
                "m": str(m),
                "n": str(n),
                "matched": _bool(matched),
                "assignment": ",".join(str(p) for p in assignment),
            }
            report.rows.append(row)
            if matched and validated:
                matched_runs += 1
            else:
                report.violations.append(
                    f"run {m}+1..{m}+{n} admits no distinct prime assignment"
                )
        report.summary["runs"] = str(len(report.rows))
        report.summary["matched_runs"] = str(matched_runs)
        return
    result = sequences.grimm_assign(args.m, args.n)
    if result is None:
        report.summary["matched"] = "false"
        report.violations.append(
            f"run {args.m}+1..{args.m}+{args.n} admits no distinct prime assignment"
        )
        return
    validated = sequences.verify_assignment(result)
    report.summary["matched"] = "true"
    report.summary["assignment"] = ",".join(str(p) for p in result.assignment)
    report.summary["validated"] = _bool(validated)
    if not validated:
        report.violations.append("assignment failed independent re-validation")


def _cmd_nonw(args, report: Report) -> None:
    """longest witness-free run from m+1"""
    bound = args.max if args.max is not None else sequences.default_window_bound(args.m)
    result = sequences.non_w_max_run(args.m, bound)
    report.summary["bound"] = str(bound)
    report.summary["longest_run"] = str(result)


class Command(NamedTuple):
    """One subcommand, named "group leaf" when nested. Arguments read like a
    usage line: "m? --scan" is an integer positional m with nargs "?" and an
    integer option --scan (see _OPTIONS for the others); each is echoed as a
    report parameter. The handler's docstring is its help line."""

    name: str
    arguments: str
    handler: Callable[[argparse.Namespace, Report], None]


_OPTIONS = {
    "--method": {"choices": ["subtractive", "remainder"], "default": "remainder"},
    "--trace": {"action": "store_true"},
}

# In --help order. Handlers look primitives up through their module at call
# time (euclid.xgcd), so that wrapping a module attribute reaches every call.
COMMANDS = (
    Command("gcd", "a b --method --trace --budget", _cmd_gcd),
    Command("xgcd", "a b", _cmd_xgcd),
    Command("div-from-bezout", "a b --x --y --g --budget", _cmd_div_from_bezout),
    Command("lowest-terms", "a b", _cmd_lowest_terms),
    Command("cf", "a b", _cmd_cf),
    Command("stats yao-knuth", "a --budget", _cmd_yao_knuth),
    Command("dynamics", "x y --trace --budget", _cmd_dynamics),
    Command("dedekind", "h k", _cmd_dedekind),
    Command("reciprocity-scan", "--limit", _cmd_reciprocity_scan),
    Command("perfect", "p? --scan --budget", _cmd_perfect),
    Command("euclid-extend", "primes* --budget", _cmd_euclid_extend),
    Command("wseq", "values+", _cmd_wseq),
    Command("interval-equiv", "m? --scan", _cmd_interval_equiv),
    Command("grimm", "m? n? --scan", _cmd_grimm),
    Command("nonw", "m --max", _cmd_nonw),
)

_GROUPS = {"stats": ("corpus statistics", "stat")}  # group -> (help, dest of its choice)


def _build_parser() -> _Parser:
    parser = _Parser(prog="euclidkit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    nested = {"": subs}
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        if group not in nested:
            group_help, dest = _GROUPS[group]
            group_parser = subs.add_parser(group, help=group_help)
            nested[group] = group_parser.add_subparsers(dest=dest, required=True)
        p = nested[group].add_parser(leaf, help=command.handler.__doc__)
        for token in command.arguments.split():
            flag = token.rstrip("?*+")
            options = _OPTIONS.get(flag, {"type": int})
            if flag != token:
                options = {**options, "nargs": token[len(flag) :]}
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=["text", "report"], default="text")
        p.add_argument("--out", default=None, help="write the output to this path")
        p.set_defaults(subcommand=command)
    return parser


def _parameters(args, command: Command) -> dict[str, str]:
    """The declared arguments as given: None is left out, a bool reads
    true/false, a list is comma-joined; --out only appears when given."""
    params = {"format": args.format}
    if args.out:
        params["out"] = args.out
    for name in (token.strip("-?*+") for token in command.arguments.split()):
        value = getattr(args, name)
        if isinstance(value, bool):
            params[name] = _bool(value)
        elif isinstance(value, list):
            params[name] = ",".join(str(v) for v in value)
        elif value is not None:
            params[name] = str(value)
    return params


def execute(argv) -> tuple[int, Report | None]:
    """Run one invocation; returns (exit_code, report)."""
    try:
        args = _build_parser().parse_args(list(argv))
    except UsageError as exc:
        return 2, Report("usage", violations=[str(exc)])
    except SystemExit as exc:  # --help already printed its text
        return exc.code, None
    command = args.subcommand
    report = Report(command.name, _parameters(args, command))
    try:
        command.handler(args, report)
    except HypothesisFailedError as exc:  # a checked property failed: report it
        report.violations.append(str(exc))
    except (UsageError, DomainError, CertificateMismatchError, ZeroDivisionError) as exc:
        return 2, replace(report, rows=[], summary={}, violations=[str(exc)])
    except ResourceLimitError as exc:
        return 3, replace(report, rows=[], summary={}, violations=[str(exc)])
    return (1 if report.violations else 0), report


def main(argv=None) -> int:
    code, report = execute(sys.argv[1:] if argv is None else argv)
    if report is not None:
        if report.parameters.get("format") == "report":
            text = render_report(report)
        else:
            text = render_text(report)
        out_path = report.parameters.get("out")
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif code in (2, 3):
            sys.stderr.write(text)
        else:
            sys.stdout.write(text)
    return code
