"""What one round of a workload leaves for the metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

# A shared host's speed drifts with other tenants' load, by a third or more
# for minutes at a time. A fixed pure-Python loop, timed between operations,
# measures it; wall times are scaled to the speed at which the loop takes
# NOMINAL_LOOP_S, about its median on the 2-vCPU machine in bench/README.md.
SPEED_LOOP_N = 100_000
NOMINAL_LOOP_S = 0.010


def speed_loop_s() -> float:
    """Seconds this machine takes for a fixed pure-Python loop right now."""
    start = perf_counter()
    total = 0
    for i in range(SPEED_LOOP_N):
        total += i * i % 7
    return perf_counter() - start


@dataclass
class OpRecord:
    label: str
    wall_s: float
    part: int  # which of the workload's parts the operation belongs to
    peak_rss_mib: float | None = None  # CLI children only
    failed: bool = False


@dataclass
class Round:
    traced: bool
    ops: list[OpRecord] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # wrong outputs
    faults: list[str] = field(default_factory=list)  # why each failed operation failed
    # (number of ops recorded so far, speed_loop_s()) samples taken between operations
    speed: list[tuple[int, float]] = field(default_factory=list)
    # traced rounds only
    stats: dict[str, dict] = field(default_factory=dict)  # name -> aggregates over the round
    spans: list = field(default_factory=list)
    dropped: int = 0
    peak_rss_by_name: dict[str, float] = field(default_factory=dict)  # highest child peak per traced name

    def sample_speed(self) -> None:
        self.speed.append((len(self.ops), speed_loop_s()))

    def scaled_walls(self) -> list[float]:
        """Each op's wall time in seconds at nominal speed.

        An op is scaled by the mean of the speed samples taken last before it
        and first after it, so that it is judged by the speed of its moment.
        """
        walls = []
        at = 0  # index of the last sample taken before the current op
        for i, op in enumerate(self.ops):
            while at + 1 < len(self.speed) and self.speed[at + 1][0] <= i:
                at += 1
            after = self.speed[min(at + 1, len(self.speed) - 1)][1]
            walls.append(op.wall_s * NOMINAL_LOOP_S / ((self.speed[at][1] + after) / 2))
        return walls

    def add_trace(self, stats: dict, spans: list, dropped: int, peak_rss_mib: float | None = None) -> None:
        for name, stat in stats.items():
            into = self.stats.setdefault(name, {})
            for key, value in stat.items():
                into[key] = into.get(key, 0) + value
            if peak_rss_mib is not None:
                self.peak_rss_by_name[name] = max(self.peak_rss_by_name.get(name, 0.0), peak_rss_mib)
        self.spans += spans
        self.dropped += dropped
