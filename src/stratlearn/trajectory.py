"""The run record: each event, the run's clock, its summary and the file they are written to.

A run's ``Trajectory`` is its only clock.  The virtual clock, ``run()``'s
default, charges a backend call its effort metric and compute nothing, so runs
replay bit-identically; the wall clock, the CLI's default, charges each event
the seconds since the previous one ended.  Budget and time limit use its unit.

Trajectory files are line-delimited text with a versioned header: one
tab-separated record per event, followed by per-index cumulative solve times
and a final summary record.  The format is diff-able in CI and trivial to
load from any plotting stack.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

from .space import LINE_BREAKS, Strategy

TRAJECTORY_FORMAT = "stratlearn-trajectory v1"


@dataclass(frozen=True)
class TrajectoryEvent:
    phase: str  # solve | collect | train | strategize
    index: int
    strategy: tuple[str, ...]
    verdict: str | None
    raw_metric: float | None
    cost: float | None
    virtual_time: float
    cumulative_time: float


class Trajectory:
    """Ordered event log of one run, its only clock, and its ``learning_time`` (non-solve events, in order).

    An event takes its effort ``charge`` on the virtual clock, and on the wall
    clock the seconds since the previous event or construction: the events partition the wall time.
    """

    def __init__(self, clock: str = "virtual") -> None:
        if clock not in ("virtual", "wall"):
            raise ValueError(f"unknown clock mode {clock!r}")
        self.clock = clock
        self.events: list[TrajectoryEvent] = []
        self.cumulative_time = 0.0
        self.learning_time = 0.0
        self._ended = time.perf_counter()  # the wall clock's reading at the end of the last event

    def record(
        self,
        phase: str,
        index: int,
        strategy: Strategy,
        *,
        verdict: str | None = None,
        raw_metric: float | None = None,
        cost: float | None = None,
        charge: float = 0.0,
    ) -> TrajectoryEvent:
        if self.clock == "virtual":
            duration = charge
        else:
            now = time.perf_counter()
            duration, self._ended = now - self._ended, now
        if duration < 0:
            raise ValueError("event times must be nonnegative")
        self.cumulative_time += duration
        if phase != "solve":
            self.learning_time += duration
        event = TrajectoryEvent(
            phase, index, strategy.assignments, verdict, raw_metric, cost,
            duration, self.cumulative_time,
        )
        self.events.append(event)
        return event

    def phase_events(self, phase: str) -> list[TrajectoryEvent]:
        return [e for e in self.events if e.phase == phase]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass(frozen=True)
class RunSummary:
    outcome: str
    largest_solved_index: int | None
    epochs: int
    learning_time: float
    solving_time: float
    cumulative_time: float
    solved_times: tuple[tuple[int, float], ...]


def check_meta(meta: dict[str, str]) -> None:
    """Refuse a key or value that one ``#meta`` line cannot carry: a tab splits its cell, a line break the line."""
    for key, value in meta.items():
        if not LINE_BREAKS.isdisjoint(key + value) or "\t" in key + value:
            raise ValueError(f"meta {key!r}={value!r} holds a tab or a line break")


def cell(value) -> str:
    """One cell of a trajectory or grid file: a strategy joined with ';', None as '-', a float by repr, else str."""
    if isinstance(value, tuple):
        return ";".join(value)
    return "-" if value is None else (str(value) if not isinstance(value, float) else repr(value))


def summary_items(summary: RunSummary) -> list[tuple[str, object]]:
    """``RunSummary``'s fields in order but ``solved_times``, which a trajectory writes as ``solved`` lines."""
    return [(f.name, getattr(summary, f.name)) for f in dataclasses.fields(summary) if f.name != "solved_times"]


def emit_trajectory(
    trajectory: Trajectory,
    path: str | Path,
    *,
    summary: RunSummary,
    meta: dict[str, str],
) -> None:
    """Write the event log plus ``summary`` under one ``#meta`` line of ``meta``.

    Each event is one row of ``TrajectoryEvent``'s fields in order.  The
    summary carries epoch count, learning time, the cumulative time at
    which each index was solved, and the largest solved index.
    """
    names = [f.name for f in dataclasses.fields(TrajectoryEvent)]
    check_meta(meta)
    lines = [f"#{TRAJECTORY_FORMAT}", "#meta\t" + "\t".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append("#fields\t" + "\t".join(names))
    for event in trajectory:
        lines.append("\t".join(cell(getattr(event, name)) for name in names))
    for index, cumulative in summary.solved_times:
        lines.append(f"solved\t{index}\t{cumulative!r}")
    lines.append("summary" + "".join(f"\t{name}={cell(value)}" for name, value in summary_items(summary)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
