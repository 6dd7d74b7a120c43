"""euclidkit benchmark: one workload for a fixed time, outputs checked, metrics as JSON.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run from the root of a euclidkit checkout; the package is imported from its
src/ directory. Workloads: cli-small, cli-scans, euclid-pairs (see README.md).

Every round runs the workload's whole operation list, so the share of failed
operations is the same in every run. End-to-end times are medians over
rounds, scaled to nominal machine speed by a fixed loop timed between
operations (record.py). With --trace 0 only untraced rounds run and the
end-to-end metrics are printed. With --trace 1 untraced and traced
rounds alternate; the per-layer metrics come from the traced rounds, the
tracing overhead is the difference between the two kinds, and the spans are
written to bench/out/ when the run ends. The last line of standard output is
the result object; the line before it holds the machine facts and the
loop's median time over the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from importlib import metadata
from collections import Counter
from pathlib import Path
from statistics import geometric_mean, median, median_low
from time import perf_counter

from proc import child_env, import_times, run_child
from record import NOMINAL_LOOP_S, speed_loop_s
from tracing import LAYERS

SETUP_REPEATS = 9
WORKLOADS = ("cli-small", "cli-scans", "euclid-pairs")
PARTS = 4  # every workload splits its operations into four parts, each timed on its own

END_TO_END = ("setup_s", *(f"part{i}_wall_s" for i in range(1, PARTS + 1)), "round_wall_s", "peak_rss_mib")

FUNCTION_METRICS = (
    "euclid.gcd_remainder.self_s",
    "euclid.xgcd.self_s",
    "cf_dynamics.cf_expand.self_s",
    "cf_dynamics.cf_value.self_s",
    "euclid.gcd_subtractive.self_s",
    "euclid.gcd_subtractive.steps",
    "cf_dynamics.dynamical_run.self_s",
    "cf_dynamics.dynamical_run.steps",
    "euclid.division_from_bezout.self_s",
    "euclid.division_from_bezout.calls",
    "euclid.division_from_bezout.failed",
    "dedekind.dedekind_sum.self_s",
    "dedekind.dedekind_sum.calls",
    "dedekind.reciprocity_residual.self_s",
    "cf_dynamics.yao_knuth_stat.self_s",
    "cf_dynamics.average_cf_length.self_s",
    "integers.primes_up_to.self_s",
    "integers.primes_up_to.calls",
    "integers.primes_up_to.sieved",
    "integers.factorize.self_s",
    "integers.factorize.calls",
    "integers.smallest_prime_factor.self_s",
    "integers.smallest_prime_factor.calls",
    "sequences.grimm_assign.self_s",
    "sequences.verify_assignment.self_s",
    "sequences.grimm_scan.self_s",
    "sequences.w_witness.self_s",
    "sequences.w_witness.calls",
    "sequences.prime_interval_equivalence.self_s",
    "propositions.perfect_scan.self_s",
    "propositions.classify_perfect.self_s",
    "integers.sigma.self_s",
)
PER_LAYER = (
    "import.interpreter_s",
    "import.euclidkit_s",
    "import.numpy_s",
    "cli.self_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    *FUNCTION_METRICS,
    "propositions.perfect_scan.peak_rss_mib",
    "trace.overhead_s",
    "trace.spans",
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "MiB" if name.endswith("_mib") else "count"


def make_workload(name: str, root: Path):
    if name == "euclid-pairs":
        from pairs_workload import PairsWorkload

        return PairsWorkload(root)
    from cli_workloads import CliWorkload

    return CliWorkload(name, root)


def machine_facts(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def timed_setup(workload, seed: int, root: Path, env: dict) -> float:
    """Input generation, expected values and a fresh `import euclidkit` in a
    child, in seconds at nominal machine speed."""
    before = speed_loop_s()
    start = perf_counter()
    child = run_child(["-c", "import euclidkit.cli"], root, env)
    if child.code != 0:
        raise RuntimeError(f"import euclidkit failed: {child.stderr.strip()[-500:]}")
    workload.setup(seed)
    wall = perf_counter() - start
    return wall * NOMINAL_LOOP_S / ((before + speed_loop_s()) / 2)


def import_probe(root: Path, env: dict) -> dict:
    bare = run_child(["-c", "pass"], root, env)
    probe = run_child(["-X", "importtime", "-c", "import euclidkit.cli"], root, env)
    package, numpy = import_times(probe.stderr)
    return {"import.interpreter_s": bare.wall_s, "import.euclidkit_s": package, "import.numpy_s": numpy}


def kind_walls(rounds) -> dict:
    """Each operation kind's median over rounds of its time per round.

    Every round repeats the same operations on the same inputs. A kind's
    time in a round is the sum of its operations' wall times, each scaled to
    nominal machine speed by the speed samples taken around it.
    """
    per_round = {}
    for r in rounds:
        sums = Counter()
        for op, wall in zip(r.ops, r.scaled_walls()):
            sums[op.label] += wall
        for label, wall in sums.items():
            per_round.setdefault(label, []).append(wall)
    return {label: median(walls) for label, walls in per_round.items()}


def round_wall(rounds) -> float:
    """Median over rounds of a round's scaled wall time, its operations only."""
    return median(sum(r.scaled_walls()) for r in rounds)


def end_to_end(rounds, setup_times) -> dict:
    """A part's wall is the geometric mean over its operation kinds of the
    kind's median time per round, so every kind in a part weighs the same in
    relative terms and every part has a metric of its own."""
    part_of = {op.label: op.part for r in rounds for op in r.ops}
    parts = [[] for _ in range(PARTS)]
    for label, wall in kind_walls(rounds).items():
        parts[part_of[label]].append(wall)
    rss = [op.peak_rss_mib for r in rounds for op in r.ops if op.peak_rss_mib is not None]
    if not rss:  # in-process workload: this process's own peak
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return {
        "setup_s": median(setup_times),
        **{f"part{i}_wall_s": geometric_mean(walls) for i, walls in enumerate(parts, start=1)},
        "round_wall_s": round_wall(rounds),
        "peak_rss_mib": max(rss),
    }


def per_layer(traced, untraced, probes) -> dict:
    def per_round(value):
        return median_low(value(r) for r in traced)

    def stat(r, name, key):
        return r.stats.get(name, {}).get(key, 0)

    out = {key: median_low(p[key] for p in probes) for key in probes[0]}
    out["cli.self_s"] = per_round(lambda r: stat(r, "cli.main", "self_s"))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_round(
            lambda r: sum(s["self_s"] for name, s in r.stats.items() if name.startswith(layer + "."))
        )
    for metric in FUNCTION_METRICS:
        name, key = metric.rsplit(".", 1)
        out[metric] = per_round(lambda r: stat(r, name, key))
    out["propositions.perfect_scan.peak_rss_mib"] = max(
        r.peak_rss_by_name.get("propositions.perfect_scan", 0.0) for r in traced
    )
    out["trace.overhead_s"] = round_wall(traced) - round_wall(untraced)
    out["trace.spans"] = per_round(lambda r: len(r.spans) + r.dropped)
    return {name: out[name] for name in PER_LAYER}


def write_spans(root: Path, args, facts: dict, traced) -> Path:
    out_dir = root / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "span_fields": ["op", "id", "parent", "name", "start", "end"],
        "rounds": [
            {"ops": [[op.label, op.wall_s] for op in r.ops], "spans": r.spans, "dropped": r.dropped}
            for r in traced
        ],
    }
    path.write_text(json.dumps(record))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "euclidkit" / "__init__.py").is_file():
        print(f"no euclidkit source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    facts = machine_facts(root)
    # One CPU for this process, its children and the speed loop, so that the
    # loop measures the CPU the operations run on and nothing migrates.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = make_workload(args.workload, root)
    # Set-up runs again before every round, so that its samples spread over
    # the run as the rounds' samples do, and is not counted in --seconds.
    # A run with few rounds tops the samples up to SETUP_REPEATS at the end.
    setup_times = []
    untraced, traced, probes = [], [], []
    measured = 0.0
    index = 0
    while measured < args.seconds:
        setup_times.append(timed_setup(workload, args.seed, root, env))
        start = perf_counter()
        untraced.append(workload.run_round(index, traced=False))
        index += 1
        if args.trace:
            traced.append(workload.run_round(index, traced=True))
            probes.append(import_probe(root, env))
            index += 1
        measured += perf_counter() - start
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(workload, args.seed, root, env))

    rounds = untraced + traced
    problems = [p for r in rounds for p in r.problems]
    for line in problems[:20] + sorted({f for r in rounds for f in r.faults}):
        print(line, file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, untraced, probes)
        print(f"spans written to {write_spans(root, args, facts, traced)}", file=sys.stderr)
    else:
        metrics = end_to_end(untraced, setup_times)
    speed = median(s for r in rounds for _, s in r.speed)
    print(json.dumps({"machine": facts, "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                      "speed_loop_s": speed, "nominal_loop_s": NOMINAL_LOOP_S}))
    result = {
        "correct": not problems,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(op.failed for r in rounds for op in r.ops),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
