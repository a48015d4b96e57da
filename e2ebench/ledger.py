"""Bookkeeping for the end-to-end benchmark, free of any ``repro`` import.

* :class:`Ledger` records spans per thread and attributes each span's
  *self* time (its duration minus the time of its direct child spans,
  which already include their own children), plus named counters.
* :func:`tail_percentile` picks the reported tail: the highest grid
  percentile that still has at least ten samples beyond it.
* :class:`Tally` counts attempted and failed operations from many
  threads.
* :class:`Gauge` times a fixed job between the program's processes, so
  a run can state its times at one nominal host speed.

The unit tests in ``test_ledger.py`` exercise these without the program.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "GAUGE_NOMINAL_S",
    "Gauge",
    "Ledger",
    "TAIL_GRID",
    "Tally",
    "median",
    "percentile",
    "tail_percentile",
]

# Percentiles a tail may be reported at, lowest first.
TAIL_GRID = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(pct: float, n: int) -> int:
    """Nearest rank ``ceil(pct/100 * n)``, in integers (``pct`` in tenths)."""
    return -(-round(pct * 10) * n // 1000)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, _rank(pct, len(ordered))) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """``(pct, value, n)`` for the highest grid percentile with >=10 samples beyond.

    A sample is beyond percentile ``pct`` when its rank is above the
    nearest rank ``ceil(pct/100 * n)``.  With fewer than 11 samples no tail qualifies
    and the median (p50) is reported instead.
    """
    n = len(values)
    chosen = TAIL_GRID[0]
    for pct in TAIL_GRID:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            chosen = pct
    value = median(values) if chosen == TAIL_GRID[0] else percentile(values, chosen)
    return chosen, value, n


class Tally:
    """Thread-safe count of attempted and failed operations, with reasons."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Count one operation: ok when ``condition`` holds, else failed."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition


# What one gauge job takes at the nominal host speed: its median over a
# calm stretch of the 2-vCPU VM the recorded runs come from.
GAUGE_NOMINAL_S = 0.015
_GAUGE_DATA = {f"k{i}": [i, i / 3, "x" * (i % 17), {"a": i}] for i in range(1500)}


def gauge_job() -> int:
    """A fixed mix of interpreter, JSON and zlib work, none of it the program's."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    text = json.dumps(_GAUGE_DATA)
    return total + len(json.loads(text)) + len(zlib.compress(text.encode(), 6))


class Gauge:
    """Host speed, sampled by timing :func:`gauge_job` between program processes.

    The VM's speed drifts by a third or more, over seconds and over
    minutes, for every process on it.  A sample taken at :meth:`mark`
    ``m`` is stated at the nominal host speed by multiplying it by
    ``scale(m)``: the nominal job time over the median of the ``width``
    jobs timed just before the sample and the ``width`` just after it.
    """

    def __init__(self, width: int, job=gauge_job, clock=time.perf_counter) -> None:
        self.width = width
        self.job = job
        self.clock = clock
        self.times: list[float] = []

    def tick(self, jobs: int) -> None:
        for _ in range(jobs):
            start = self.clock()
            self.job()
            self.times.append(self.clock() - start)

    def mark(self) -> int:
        """Where a sample taken now sits among the gauge jobs."""
        return len(self.times)

    def factor(self, first: int, last: int) -> float:
        """Nominal job time over the median of jobs ``first`` to ``last - 1``."""
        window = self.times[max(0, first):last]
        if not window:
            raise ValueError("gauge factor of no samples")
        return GAUGE_NOMINAL_S / statistics.median(window)

    def scale(self, mark: int) -> float:
        return self.factor(mark - self.width, mark + self.width)


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Ledger:
    """Per-layer self time, call counts and counters from nested spans.

    Spans nest per thread.  When a span closes, its duration is added to
    its parent's child time, and its self time (duration minus child
    time) to its own name.  Each instant is therefore attributed to
    exactly one span, the innermost open one, and grandchildren are
    subtracted once (through the child that contains them).  ``root_s``
    sums the durations of spans opened with no parent: the time covered
    by any span at all.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.root_s = 0.0

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        self._stack().append(_Frame(name, self.clock()))

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        stack = self._stack()
        frame = stack.pop()
        duration = self.clock() - frame.start
        own = duration - frame.child
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.self_s[frame.name] = self.self_s.get(frame.name, 0.0) + own
            self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
            if not stack:
                self.root_s += duration
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "root_s": self.root_s,
            }

    @staticmethod
    def merge(parts: list[dict]) -> dict:
        """Sum several :meth:`to_dict` snapshots (e.g. one per process)."""
        out: dict = {"self_s": {}, "calls": {}, "counters": {}, "root_s": 0.0}
        for part in parts:
            for key in ("self_s", "calls", "counters"):
                for name, value in part.get(key, {}).items():
                    out[key][name] = out[key].get(name, 0) + value
            out["root_s"] += part.get("root_s", 0.0)
        return out
