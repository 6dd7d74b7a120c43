"""Child processes: one at a time, timed from spawn to reap, with peak memory."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

CHILD_TIMEOUT_S = 120.0


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mib: float


def child_env(root: Path) -> dict:
    """The environment for children: the checkout's src/ first on the import path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], root: Path, env: dict) -> Child:
    """Run `python args...` in `root` and wait for it.

    The child is reaped with os.wait4, so its own peak resident memory is
    read, not the maximum over every child so far.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = _drain(proc, start + CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - start
    return Child(proc.returncode, out.decode(), err.decode(), wall, usage.ru_maxrss / 1024)


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"child {proc.args} ran past {CHILD_TIMEOUT_S} s")
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def import_times(stderr: str) -> tuple[float, float]:
    """(euclidkit, numpy) cumulative import seconds from `-X importtime` output.

    euclidkit is every top-level import whose name starts with euclidkit
    (the package and its CLI), numpy included; numpy is its own nested entry.
    """
    package = numpy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        if name.startswith(" euclidkit"):
            package += int(cumulative)
        elif name.strip() == "numpy":
            numpy = int(cumulative)
    return package / 1e6, numpy / 1e6
