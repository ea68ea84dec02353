"""Measurement primitives shared by the benchmark workloads.

* :class:`Tracer` keeps wall-clock spans and counters in memory and
  writes them out once, as a Chrome trace-event file, when the run ends.
* :class:`Checks` counts the output checks that feed ``attempted`` /
  ``failed`` in the result line.
* Small statistics helpers (median, geometric mean, peak RSS).
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import struct
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List


class Tracer:
    """Nested wall-clock spans plus monotonic counters, held in memory.

    A span is ``{"name", "start", "end", "parent", "pid", "args"}`` with
    times from :func:`time.perf_counter` (``CLOCK_MONOTONIC`` on Linux,
    so spans shipped back from forked sweep workers share the parent's
    time base).  ``parent`` is the index of the enclosing span.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args):
        index = self._open(name, time.perf_counter(), args)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def _open(self, name: str, start: float, args: dict) -> int:
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "pid": os.getpid(),
                "args": args,
            }
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def add(self, name: str, began: float, ended: float, **args) -> None:
        """Record an already-finished span under the current one."""
        self.spans.append(
            {
                "name": name,
                "start": began,
                "end": ended,
                "parent": self._stack[-1] if self._stack else None,
                "pid": os.getpid(),
                "args": args,
            }
        )

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- shipping spans across a process boundary ---------------------------

    def mark(self) -> tuple:
        return len(self.spans), dict(self.counters)

    def since(self, mark: tuple) -> dict:
        """Spans and counter deltas recorded after ``mark`` (picklable)."""
        first, counters = mark
        spans = []
        for span in self.spans[first:]:
            parent = span["parent"]
            spans.append(
                dict(span, parent=None if parent is None or parent < first
                     else parent - first)
            )
        deltas = {
            name: value - counters.get(name, 0)
            for name, value in self.counters.items()
            if value != counters.get(name, 0)
        }
        return {"spans": spans, "counters": deltas}

    def merge(self, shipped: dict) -> None:
        """Fold a :meth:`since` payload from another process in."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for span in shipped["spans"]:
            local = span["parent"]
            self.spans.append(
                dict(span, parent=parent if local is None else local + offset)
            )
        for name, value in shipped["counters"].items():
            self.count(name, value)

    # -- queries --------------------------------------------------------------

    def named(self, name: str) -> List[dict]:
        return [span for span in self.spans if span["name"] == name]

    def total(self, name: str) -> float:
        return sum(span["end"] - span["start"] for span in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children.

        Children of one span never overlap (one thread per process, and
        shipped worker spans hang under the span that was open when the
        worker's result arrived), so subtracting their durations equals
        subtracting the part of the interval they cover.
        """
        indices = {i for i, span in enumerate(self.spans) if span["name"] == name}
        total = sum(
            self.spans[i]["end"] - self.spans[i]["start"] for i in indices
        )
        for span in self.spans:
            if span["parent"] in indices and span["pid"] == self.spans[
                span["parent"]
            ]["pid"]:
                total -= span["end"] - span["start"]
        return total

    def chrome_events(self, epoch: float) -> List[dict]:
        """Complete ("X") events in microseconds since ``epoch``."""
        return [
            {
                "name": span["name"],
                "ph": "X",
                "ts": (span["start"] - epoch) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": span["pid"],
                "tid": span["pid"],
                "args": span["args"],
            }
            for span in self.spans
        ]


def write_chrome_trace(path: Path, tracers: Iterable[Tracer], metrics: dict) -> None:
    """Write every tracer's spans as one Chrome trace-event JSON file,
    with each pass's counters and the run's metrics alongside."""
    tracers = list(tracers)
    starts = [span["start"] for t in tracers for span in t.spans]
    epoch = min(starts) if starts else 0.0
    events = [event for t in tracers for event in t.chrome_events(epoch)]
    other = {"metrics": metrics, "counters": [t.counters for t in tracers]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "otherData": other}, default=str)
    )


class Checks:
    """Output checks of one run: every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, condition: bool, what: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failures.append(what)
        return bool(condition)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Small objects the reference loop builds and frees per timing.
REFERENCE_OBJECTS = 12_000


def _reference_loop() -> None:
    objects = []
    for i in range(REFERENCE_OBJECTS):
        objects.append({"a": i, "b": (i, i + 1), "c": [i]})


def reference_loop_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of a fixed pure-Python loop (~5 ms)
    that builds and frees small dicts, tuples and lists.

    The loop is the benchmark's own code, never the program's, so its
    time measures only how fast the host runs allocation-heavy Python at
    that moment; the program's passes slow down with it when other
    tenants load the host.  The collector is off while it runs: its
    collections would otherwise walk the program's heap, whose size
    differs from step to step and run to run.
    """
    timings = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            _reference_loop()
            timings.append(time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return min(timings)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def seconds_in_child(func) -> float:
    """Wall time of ``func()`` run in a forked child process.

    The child exits when ``func`` returns, so whatever it allocates
    never lands in this process's heap.  Raises if ``func`` fails.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            started = time.perf_counter()
            func()
            os.write(write, struct.pack("d", time.perf_counter() - started))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(payload) != 8:
        raise RuntimeError(f"child process {pid} failed (status {status})")
    return struct.unpack("d", payload)[0]


class ChildTimer:
    """Times ``func()`` in children that all start from one moment's state.

    Making the timer forks a helper process; each :meth:`seconds` call
    has the helper run :func:`seconds_in_child` on ``func``.  So every
    child starts from the state this process had when the timer was
    made, however its heap has grown since.  Use it as a context
    manager: leaving it ends the helper and waits for it.
    """

    def __init__(self, func):
        requests, self._requests = os.pipe()
        self._results, results = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            status = 1
            try:
                os.close(self._requests)
                os.close(self._results)
                # A closed request pipe (the benchmark ended) stops the loop.
                while os.read(requests, 1):
                    os.write(results, struct.pack("d", seconds_in_child(func)))
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(requests)
        os.close(results)

    def seconds(self) -> float:
        os.write(self._requests, b"\x01")
        payload = os.read(self._results, 8)
        if len(payload) != 8:
            raise RuntimeError(f"timing helper {self._pid} failed")
        return struct.unpack("d", payload)[0]

    def __enter__(self) -> "ChildTimer":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._requests)
        os.close(self._results)
        os.waitpid(self._pid, 0)


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())
