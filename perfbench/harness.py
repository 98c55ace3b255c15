"""Timing, subprocess, failure-counting and tracing helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

CLI_TIMEOUT_S = 120.0

# The host's speed flips between a fast and a slow state many times a minute
# (other tenants share its cores), and CPU time slows with it, so raw times of
# two runs are not comparable.  Each operation's time is therefore scaled by
# the speed of calibrations taken next to it: an interpreter loop for
# in-process work and, for a CLI process, the mean of that loop's scale and
# the scale of a bare ``python -c pass``, since process start-up slows less
# than interpreted work (1.33x against 1.65x between the states).  The REF
# values are the calibrations' times in the host's fast state on the 2-CPU
# Xeon sandbox the benchmark was built on; scaled times read as that machine's.
LOOP_REF_S = 0.0053
SPAWN_REF_S = 0.045


class _Row:
    __slots__ = ("name", "value", "metric")

    def __init__(self, name: str, value: float, metric: str) -> None:
        self.name, self.value, self.metric = name, value, metric


def calibrate_loop() -> float:
    """Seconds a fixed row-parsing loop takes now, in process: the best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        rows = []
        for i in range(4000):
            row = dict(zip(("name", "metric", "value"), (f"m{i}", "loss", "1.5")))
            item = _Row(row["name"], float(row["value"]), row["metric"].upper())
            rows.append(item.value + len(item.name))
        best = min(best, time.perf_counter() - start)
    return best


def calibrate_spawn() -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


class SpeedScale:
    """Calibrations taken through a run, and the scale they give each operation.

    Every operation is followed by a loop calibration and every CLI operation
    also by a spawn calibration.  A calibration's scale is its reference time
    over the mean of its two readings around the operation.
    """

    def __init__(self) -> None:
        self.loop = [calibrate_loop()]
        self.spawn = [calibrate_spawn()]

    def next(self, side: str) -> float:
        self.loop.append(calibrate_loop())
        loop = LOOP_REF_S / statistics.mean(self.loop[-2:])
        if side == "lib":
            return loop
        self.spawn.append(calibrate_spawn())
        return (loop + SPAWN_REF_S / statistics.mean(self.spawn[-2:])) / 2


@dataclass
class CliRun:
    code: int
    wall_s: float
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_process(argv: list[str], cwd: Path, env: dict[str, str]) -> CliRun:
    """Run one child to completion and time it from spawn until it has exited.

    stdout and stderr go to files, so the child never blocks on a full pipe
    and its output is complete when it exits.  ``os.wait4`` reaps the child
    and returns its own resource usage, which gives its peak RSS.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd, env=env)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(proc.returncode, wall, out.read(), err.read(), usage.ru_maxrss)


def cli_env(root: Path) -> dict[str, str]:
    """Environment for ``python -m compresslaw.cli`` from the source tree, uninstalled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "compresslaw.cli", *args]


class CheckFailed(Exception):
    """An operation's output did not match what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * abs(expected)


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def run(self, name: str, fn, *args):
        """Call ``fn``; an exception of any kind counts as a failed operation.

        Returns ``fn``'s result, or ``None`` when it failed.
        """
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark must keep running and report the failure
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float
    count: int = 1
    scale: float = 1.0  # set on operation spans: see SpeedScale


class Tracer:
    """Spans kept in memory: one per operation and one per public call inside it.

    Spans are recorded only by the benchmark's own code, around its calls
    into compresslaw.  ``count`` is the number of public calls a span covers,
    for spans that batch calls too short to time one by one.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops = 0
        self._op: Span | None = None

    @contextmanager
    def op(self, name: str):
        span = Span(len(self.spans), None, self.ops, name, time.perf_counter(), 0.0)
        self.ops += 1
        self.spans.append(span)
        self._op = span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._op = None

    def call(self, name: str, fn, *args, count: int = 1, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        op = self._op
        self.spans.append(Span(len(self.spans), op.span_id, op.op_id, name, start, end, count))
        return result


def untraced_call(name: str, fn, *args, count: int = 1, **kwargs):
    """The untraced counterpart of :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


def scaled_durations(spans: list[Span]) -> list[float]:
    """Each span's duration, scaled by its operation's speed scale."""
    scale = {span.op_id: span.scale for span in spans if span.parent is None}
    return [(span.end - span.start) * scale[span.op_id] for span in spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer: span durations minus their children's.

    A span's layer is the text before the first dot of its name; operation
    spans belong to the ``bench`` layer.  Children never overlap, since the
    benchmark makes one call at a time.
    """
    durations = scaled_durations(spans)
    child_time: dict[int, float] = {}
    for span, duration in zip(spans, durations):
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + duration
    totals: dict[str, float] = {}
    for span, duration in zip(spans, durations):
        layer = span.name.split(".", 1)[0] if span.parent is not None else "bench"
        totals[layer] = totals.get(layer, 0.0) + duration - child_time.get(span.span_id, 0.0)
    return totals


def load_average() -> list[float]:
    return [round(v, 2) for v in os.getloadavg()]
