"""Run one euclidkit CLI invocation with the library layers traced.

    PYTHONPATH=src python3 bench/trace_child.py gcd 240 46 --format report

Standard output and the exit code are the CLI's own. When the CLI returns,
one line `BENCH-TRACE <json>` goes to standard error with the per-name
aggregates, the spans and the number of spans dropped beyond the cap. The
root span `cli.main` covers the whole CLI call, so its self time is the time
the CLI spends outside library functions.
"""

import json
import sys

import euclidkit.cli
from tracing import TRACE_MARK, Tracer, install


def main() -> int:
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.call("cli.main", euclidkit.cli.main, (sys.argv[1:],), {})
    finally:
        sys.stdout.flush()
        record = {"stats": tracer.stats, "spans": tracer.spans, "dropped": tracer.dropped}
        sys.stderr.write(TRACE_MARK + json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
