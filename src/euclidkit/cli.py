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
from numbers import Rational
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import (
    CertificateMismatchError,
    DomainError,
    HypothesisFailedError,
    ResourceLimitError,
    _shown,
    rational_str,
)

if TYPE_CHECKING:
    from .euclid import EuclidTrace


class Report:
    """Everything a subcommand produced; rows and summary hold raw values."""

    def __init__(
        self, command: str, parameters: dict | None = None, violations: list | None = None
    ) -> None:
        self.command = command
        self.parameters: dict[str, str] = {} if parameters is None else parameters
        self.rows: list[dict[str, object]] = []
        self.summary: dict[str, object] = {}
        self.violations: list[str] = [] if violations is None else violations


def _field(value) -> str:
    """A report value as render writes it in either layout. An int past the
    digit limit reads "<n-bit integer>", as in error messages."""
    if type(value) is int:  # first: most fields are ints
        return _shown(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(map(_field, value))
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, Rational):  # ints were shown above
        return rational_str(value)
    return str(value)


# format -> (parameter line, row prefix, summary line, violation prefix)
_LAYOUTS = {
    "report": ("param {}: {}", "row ", "summary {}: {}", "violation: "),
    "text": ("{}={}", "  ", "{} = {}", "VIOLATION: "),
}


def render(report: Report, fmt: str) -> str:
    """report laid out as fmt, "text" or "report", by its entry in _LAYOUTS."""
    param, row_prefix, summary, violation = _LAYOUTS[fmt]
    params = [param.format(key, report.parameters[key]) for key in sorted(report.parameters)]
    if fmt == "report":  # the command and each parameter on a line of their own
        lines = [f"command: {report.command}", *params]
    else:  # the parameters on the command's line, after two spaces
        lines = [report.command + ("  " + " ".join(params) if params else "")]
    for row in report.rows:
        lines.append(row_prefix + " ".join(f"{k}={_field(v)}" for k, v in row.items()))
    lines += [summary.format(key, _field(value)) for key, value in report.summary.items()]
    lines += [violation + message for message in report.violations]
    return "\n".join(lines) + "\n"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of killing the process
        raise UsageError(message)


def _trace_rows(trace: EuclidTrace) -> list[dict[str, int]]:
    rows = []
    for index, step in enumerate(trace.steps, start=1):
        row = {"step": index, "larger": step.larger, "smaller": step.smaller}
        if step.quotient is not None:
            row["quotient"] = step.quotient
        row["remainder"] = step.remainder
        rows.append(row)
    return rows


def _cmd_gcd(args, report: Report) -> None:
    """gcd with a replayable trace"""
    from . import euclid
    if args.method == "subtractive":
        g, trace = euclid.gcd_subtractive(args.a, args.b, step_budget=args.budget)
    elif args.budget is not None:
        raise UsageError("gcd --budget needs --method subtractive")
    else:
        g, trace = euclid.gcd_remainder(args.a, args.b)
    if args.trace:
        report.rows = _trace_rows(trace)
    report.summary.update(gcd=g, step_count=trace.step_count)


def _cmd_xgcd(args, report: Report) -> None:
    """Bezout certificate by back-substitution"""
    from . import euclid
    cert = euclid.xgcd(args.a, args.b)
    report.summary.update(g=cert.g, x=cert.x, y=cert.y)


def _cmd_div_from_bezout(args, report: Report) -> None:
    """quotient and remainder rebuilt from a certificate"""
    from . import euclid
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
    report.summary.update(
        g=cert.g, cert_x=cert.x, cert_y=cert.y, quotient=quotient, remainder=remainder
    )


def _cmd_lowest_terms(args, report: Report) -> None:
    """reduce a pair by its gcd"""
    from . import euclid
    num, den = euclid.lowest_terms(args.a, args.b)
    report.summary.update(reduced_a=num, reduced_b=den)


def _cmd_cf(args, report: Report) -> None:
    """continued fraction of a/b and its round trip"""
    from . import cf_dynamics
    cf = cf_dynamics.cf_expand(args.a, args.b)
    value = "/".join(map(_shown, cf_dynamics.cf_value(cf)))  # reduced, as rational_str shows it
    report.summary.update(quotients=cf.quotients, length=len(cf.quotients), value=value)


def _cmd_yao_knuth(args, report: Report) -> None:
    """sum of all partial quotients up to a"""
    from . import cf_dynamics
    stat = cf_dynamics.yao_knuth_stat(args.a, scan_budget=args.budget)
    report.summary.update(
        total=stat.total, predicted=stat.predicted, ratio=stat.ratio,
        mean_cf_length=stat.steps / stat.a,
    )


def _cmd_dynamics(args, report: Report) -> None:
    """subtractive map orbit and step matrices"""
    from . import cf_dynamics
    run = cf_dynamics.dynamical_run(args.x, args.y, step_budget=args.budget)
    if args.trace:
        # The step matrices replay the orbit apart from dynamical_run's own update.
        x, y = run.start
        for step in range(1, run.step_count + 1):
            step_matrix = cf_dynamics.TOP_MINUS_BOTTOM if x >= y else cf_dynamics.BOTTOM_MINUS_TOP
            x, y = step_matrix.apply(x, y)
            report.rows.append({"step": step, "x": x, "y": y})
        if (x, y) != run.terminal:
            report.violations.append(f"replay ends at ({x}, {y}), not at {run.terminal}")
    product = run.product
    report.summary.update(
        step_count=run.step_count,
        terminal_x=run.terminal[0],
        terminal_y=run.terminal[1],
        gcd=max(run.terminal),
        product=(product.m11, product.m12, product.m21, product.m22),
        determinant=product.determinant,
    )


def _cmd_dedekind(args, report: Report) -> None:
    """exact Dedekind sum s(h, k)"""
    from . import dedekind
    report.summary["value"] = dedekind.dedekind_sum(args.h, args.k)


def _cmd_reciprocity_scan(args, report: Report) -> None:
    """verify reciprocity on all coprime pairs up to --limit"""
    from . import dedekind
    if args.limit is None:
        raise UsageError("reciprocity-scan needs --limit")
    pairs, nonzero = dedekind.reciprocity_scan(args.limit, scan_budget=args.budget)
    for h, k, residual in nonzero:
        report.violations.append(f"nonzero residual at h={h} k={k}: {_field(residual)}")
    report.summary.update(pairs_checked=pairs, nonzero_residuals=len(nonzero))


def _cmd_perfect(args, report: Report) -> None:
    """perfect-number certificate or scan"""
    from . import propositions
    if (args.p is None) == (args.scan is None):
        raise UsageError("perfect needs an exponent or --scan, not both")
    if args.scan is not None:
        for n, p in propositions.perfect_scan(args.scan, sieve_budget=args.budget):
            report.rows.append({"n": n, "p": p})
        report.summary["count"] = len(report.rows)
        return
    cert = propositions.perfect_from_mersenne(args.p, step_budget=args.budget)
    report.summary.update(mersenne=cert.mersenne, value=cert.value, sigma=cert.sigma_value)


def _cmd_euclid_extend(args, report: Report) -> None:
    """a prime outside any finite list"""
    from . import propositions
    extension = propositions.euclid_prime_extension(args.primes, step_budget=args.budget)
    report.summary.update(e=extension.e_value, new_prime=extension.new_prime)


def _cmd_wseq(args, report: Report) -> None:
    """least coprime witness of a sequence"""
    from . import sequences
    result = sequences.w_witness(args.values)
    is_w = result.witness_index is not None
    index, value = (result.witness_index, result.witness_value) if is_w else ("none", "none")
    report.summary.update(is_w=is_w, witness_index=index, witness_value=value)


def _cmd_interval_equiv(args, report: Report) -> None:
    """prime between squares vs coprime witness window"""
    from . import sequences
    if (args.m is None) == (args.scan is None):
        raise UsageError("interval-equiv needs m or --scan, not both")
    if args.scan is not None:
        verdicts = sequences.interval_equivalence_scan(args.scan, sieve_budget=args.budget)
    else:
        prime_exists, is_w = sequences.prime_interval_equivalence(args.m, sieve_budget=args.budget)
        report.summary.update(prime_exists=prime_exists, is_w=is_w, equal=prime_exists == is_w)
        verdicts = [(args.m, prime_exists, is_w)]
    for m, prime_exists, is_w in verdicts:
        if prime_exists != is_w:
            report.violations.append(
                f"m={m}: prime_exists={_field(prime_exists)} is_w={_field(is_w)}"
            )
    if args.scan is not None:
        report.summary.update(checked=args.scan, mismatches=len(report.violations))


def _cmd_grimm(args, report: Report) -> None:
    """distinct prime divisors for composite runs"""
    from . import sequences
    single = args.m is not None or args.n is not None
    if single and (args.m is None or args.n is None):
        raise UsageError("grimm needs both m and n for a single window")
    if single == (args.scan is not None):
        raise UsageError("grimm needs either m n or --scan")
    if args.scan is not None:
        scan = sequences.grimm_scan(args.scan, sieve_budget=args.budget)
        for m, n, matched, assignment, validated in scan:
            report.rows.append({"m": m, "n": n, "matched": matched, "assignment": assignment})
            if not matched:
                report.violations.append(f"run {m}+1..{m}+{n} admits no distinct prime assignment")
            elif not validated:
                report.violations.append(
                    f"run {m}+1..{m}+{n}: assignment failed independent re-validation"
                )
        runs = len(report.rows)  # each violation names one run
        report.summary.update(runs=runs, matched_runs=runs - len(report.violations))
        return
    result = sequences.grimm_assign(args.m, args.n, step_budget=args.budget)
    if result is None:
        report.summary["matched"] = False
        report.violations.append(
            f"run {args.m}+1..{args.m}+{args.n} admits no distinct prime assignment"
        )
        return
    validated = sequences.verify_assignment(result)
    report.summary.update(matched=True, assignment=result.assignment, validated=validated)
    if not validated:
        report.violations.append("assignment failed independent re-validation")


def _cmd_nonw(args, report: Report) -> None:
    """longest witness-free run from m+1"""
    from . import sequences
    result = sequences.non_w_max_run(args.m, args.max)  # checks m before any bound is taken
    bound = args.max if args.max is not None else sequences.default_window_bound(args.m)
    report.summary.update(bound=bound, longest_run=result)


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

# In --help order. Each handler imports the one module it runs on entry, so a
# command loads only its own layer, and looks primitives up through it at call
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
    Command("reciprocity-scan", "--limit --budget", _cmd_reciprocity_scan),
    Command("perfect", "p? --scan --budget", _cmd_perfect),
    Command("euclid-extend", "primes* --budget", _cmd_euclid_extend),
    Command("wseq", "values+", _cmd_wseq),
    Command("interval-equiv", "m? --scan --budget", _cmd_interval_equiv),
    Command("grimm", "m? n? --scan --budget", _cmd_grimm),
    Command("nonw", "m --max", _cmd_nonw),
)

_GROUPS = {"stats": ("corpus statistics", "stat")}  # group -> (help, dest of its choice)


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for argv. When argv starts with a command's name (one or
    two words), that command is the only subparser, since argparse picks a
    subparser by those exact words and no other one can run. Otherwise
    every command gets a bare subparser, so that --help and an invalid
    choice list them all."""
    named = [c for c in COMMANDS if argv[: len(c.name.split())] == c.name.split()]
    parser = _Parser(prog="euclidkit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    nested = {"": subs}
    for command in named or COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        if group not in nested:
            group_help, dest = _GROUPS[group]
            group_parser = subs.add_parser(group, help=group_help)
            nested[group] = group_parser.add_subparsers(dest=dest, required=True)
        p = nested[group].add_parser(leaf, help=command.handler.__doc__)
        if not named:
            continue
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
    """The declared arguments as given, through _field: None is left out;
    --out only appears when given."""
    params = {"format": args.format}
    if args.out:
        params["out"] = args.out
    for name in (token.strip("-?*+") for token in command.arguments.split()):
        value = getattr(args, name)
        if value is not None:
            params[name] = _field(value)
    return params


def execute(argv) -> tuple[int, Report | None]:
    """Run one invocation; returns (exit_code, report)."""
    argv = list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
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
    except (UsageError, DomainError, CertificateMismatchError) as exc:
        return 2, Report(report.command, report.parameters, violations=[str(exc)])
    except ResourceLimitError as exc:
        return 3, Report(report.command, report.parameters, violations=[str(exc)])
    return (1 if report.violations else 0), report


def main(argv=None) -> int:
    code, report = execute(sys.argv[1:] if argv is None else argv)
    if report is not None:
        text = render(report, report.parameters.get("format", "text"))
        out_path = report.parameters.get("out")
        if out_path:
            try:
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:  # a path that cannot be written is a usage error
                sys.stderr.write(f"cannot write {out_path}: {exc.strerror}\n")
                return 2
        elif code in (2, 3):
            sys.stderr.write(text)
        else:
            sys.stdout.write(text)
    return code
