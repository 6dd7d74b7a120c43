"""Span tracing for the benchmark's traced pass, installed from outside the package.

install() replaces every public function of euclidkit's layer modules with a
recording wrapper, at each module-level name by which package code looks it
up: `euclid.xgcd` as the CLI calls it, `sigma` inside propositions, the bare
`gcd_remainder` global inside euclid itself. Private helpers are not wrapped,
so their time is self time of the public function that called them.
uninstall() puts the originals back.
"""

from __future__ import annotations

import importlib
from functools import wraps
from time import perf_counter
from types import FunctionType

LAYERS = ("euclid", "cf_dynamics", "dedekind", "integers", "propositions", "sequences")
SPAN_CAP = 2000  # default number of spans kept; the rest are only aggregated
TRACE_MARK = "BENCH-TRACE "  # prefix of the stderr line a traced CLI child reports on

# counters read off a call's arguments or result, besides calls and failures
EXTRA_COUNTS = {
    "euclid.gcd_subtractive": ("steps", lambda args, result: result[1].step_count),
    "cf_dynamics.dynamical_run": ("steps", lambda args, result: result.step_count),
    "integers.primes_up_to": ("sieved", lambda args, result: args[0]),
}


class Tracer:
    """Spans (op, id, parent, name, start, end) and per-name aggregates.

    `op` is the identifier of the benchmark operation under way; every span
    it causes carries it.
    """

    def __init__(self, span_cap: int = SPAN_CAP):
        self.op = 0
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        # name -> {"calls", "failed", "total_s", "self_s", and any extra counter}
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []  # [span id, seconds covered by child spans]
        self._next_id = 1

    def call(self, name, fn, args, kwargs, extra=None):
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0.0]
        stack.append(frame)
        failed = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0}
            stat["calls"] += 1
            stat["failed"] += failed
            stat["total_s"] += duration
            stat["self_s"] += duration - frame[1]
            if len(self.spans) < self.span_cap:
                self.spans.append((self.op, span_id, parent, name, start, end))
            else:
                self.dropped += 1
        if extra is not None:
            key, count = extra
            stat[key] = stat.get(key, 0) + count(args, result)
        return result

    def wrap(self, name, fn):
        extra = EXTRA_COUNTS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap euclidkit's public layer functions; returns what uninstall() restores."""
    layers = {name: importlib.import_module(f"euclidkit.{name}") for name in LAYERS}
    wrappers = {}
    for layer, module in layers.items():
        for name, obj in vars(module).items():
            if isinstance(obj, FunctionType) and not name.startswith("_") and obj.__module__ == module.__name__:
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    patched = []
    for module in (*layers.values(), importlib.import_module("euclidkit.cli")):
        for name, obj in list(vars(module).items()):
            if isinstance(obj, FunctionType) and obj in wrappers:
                patched.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, name, original in patched:
        setattr(module, name, original)
