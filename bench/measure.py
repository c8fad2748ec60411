"""Drift calibration, order statistics and span tracing for the benchmark.

Nothing here imports socialhk: the calibration kernel must measure the host,
not the program under test, and the tracer only wraps callables it is given.
"""

from __future__ import annotations

import collections
import functools
import itertools
import statistics
import threading
import time

import numpy as np

# Calibration kernel time on the reference machine (2-core x86_64 sandbox,
# Python 3.11, numpy 2.4).  Unit times are scaled to this speed; the value
# only sets the scale of the reported seconds, not their spread.
NOMINAL_CALIB_S = 0.010

CALIB_INT_ITERS = 40_000
CALIB_NP_ITERS = 600
CALIB_PIECES = 3


def _calibration_piece() -> None:
    acc = 0
    for i in range(CALIB_INT_ITERS // CALIB_PIECES):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    v = np.arange(16, dtype=float)
    for _ in range(CALIB_NP_ITERS // CALIB_PIECES):
        v = np.sqrt(v * v + 1.0) - 0.5
    if acc < 0 or not v[0] >= 0:  # consume both results
        raise AssertionError("calibration kernel produced impossible values")


def calibrate() -> float:
    """Run the fixed calibration kernel and return its time in seconds.

    A pure-Python integer loop plus a small-array numpy loop, split in three
    pieces; the time is three times the median piece, so one preemption
    inside the kernel does not move the scale of the units around it.
    """
    pieces = []
    for _ in range(CALIB_PIECES):
        t0 = time.perf_counter()
        _calibration_piece()
        pieces.append(time.perf_counter() - t0)
    return CALIB_PIECES * statistics.median(pieces)


def unit_factors(calib: list[float], nominal: float = NOMINAL_CALIB_S) -> list[float]:
    """Scale factor of each unit from the calibrations that bracket it.

    ``calib`` holds n + 1 kernel times around n units; unit i sits between
    calib[i] and calib[i + 1] and is scaled by nominal / their mean.
    """
    if len(calib) < 2:
        raise ValueError("need a calibration on each side of every unit")
    return [nominal / ((a + b) / 2.0) for a, b in zip(calib, calib[1:])]


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


# -- tracing -------------------------------------------------------------------

Span = collections.namedtuple("Span", "sid parent tid name unit t0 t1 c0 c1")


class Tracer:
    """Records one span per call of each wrapped callable.

    A span carries its wall clock (perf_counter) and its thread's CPU clock
    (thread_time) at entry and exit, the span that was open in the same thread
    when it started, and the benchmark unit it ran in.  Spans stay in memory
    until the round ends.
    """

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.distinct: dict[str, set] = collections.defaultdict(set)
        self.unit = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(tracer, args, kwargs, result)`` adds work counts read from
        the call's inputs and return value.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            unit = self.unit
            stack.append(sid)
            t0, c0 = self.clock(), self.cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = self.cpu_clock(), self.clock()
                stack.pop()
                self.spans.append(Span(sid, parent, threading.get_ident(), name, unit, t0, t1, c0, c1))
            if count is not None:
                with self._lock:
                    count(self, args, kwargs, result)
            return result

        return traced

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] += value


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(lo, a), min(hi, b)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of it that its
    child spans in the same thread cover, on the thread CPU clock.

    Worker threads of one process share the interpreter lock, so the
    wall-clock duration of a span in one thread also counts the time other
    threads held the lock; thread CPU time does not, and self times of
    concurrent threads then add up.
    """
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[(s.tid, s.parent)].append(s)
    return {s.sid: (s.c1 - s.c0) - _covered(s.c0, s.c1, [(k.c0, k.c1) for k in children[(s.tid, s.sid)]])
            for s in spans}


def layer_self_seconds(spans, factors) -> tuple[dict, dict]:
    """Calibrated self seconds and call counts per span name.

    ``factors[u]`` scales spans recorded in unit u; spans outside any unit are
    left out.
    """
    selfs = self_times(spans)
    seconds = collections.defaultdict(float)
    calls = collections.Counter()
    for s in spans:
        if s.unit is None:
            continue
        seconds[s.name] += selfs[s.sid] * factors[s.unit]
        calls[s.name] += 1
    return dict(seconds), dict(calls)
