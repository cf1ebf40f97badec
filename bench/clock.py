"""Speed-normalised timing and an in-memory span recorder.

The host this benchmark was written on changes speed by itself: the same
fixed computation runs up to 1.8x slower for seconds at a time, on either
core, with CPU time tracking wall time.  A raw wall-clock time therefore does
not repeat.  ``measure`` times a fixed reference computation of its own
(the *probe*) around and during every measured call and reports the call's
time in units of the probe, scaled back to seconds by ``PROBE_NOMINAL_S``.

* Before and after the call the probe runs ``BRACKET`` times.
* During the call an interval timer fires every ``INTERVAL_S`` and the
  signal handler runs the probe once more, in the measuring process (no
  thread), so speed changes inside a long call are sampled too.  The
  handler's own time is subtracted from the call's.  ``run.py`` pins itself,
  and so every child it starts, to one core, so the probe measures the core
  the work runs on, and interrupts a timed child process as it would an
  in-process call.
* The call's speed is the median probe duration over all of those samples.
* A call shorter than ``MIN_BATCH_S`` is repeated until the batch lasts that
  long and timed per call, so a sub-millisecond call is not timed against
  the resolution of the probe itself.

The probe mixes the kinds of work smgsolve does: an interpreted arithmetic
loop, small-array numpy calls in a pivoting pattern, JSON decoding and a
vector sort.
"""

import gc
import json
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

BRACKET = 10
INTERVAL_S = 0.02
MIN_BATCH_S = 0.05
# The probe's duration in the host's fast phase (5th percentile of 3000
# probes on the 2-vCPU Xeon host of README.md's figures), so that reported
# seconds read close to wall seconds on a quiet core.  Only the scale of
# reported values depends on it.
PROBE_NOMINAL_S = 0.58e-3

_PIVOT = np.arange(64, dtype=float).reshape(8, 8) / 7.0
_VECTOR = np.random.default_rng(0).random(20_000)
_DOC = json.dumps({f"k{i}": [i, i * 0.5, {"a": "b"}] for i in range(200)})


def probe() -> float:
    """The fixed reference computation; returns a value so nothing is elided."""
    acc = 0.0
    for i in range(2000):
        acc += (i * 7 % 13) * 0.5
    t = _PIVOT.copy()
    for _ in range(30):
        k = int(np.argmin(t[-1]))
        t -= np.outer(t[:, k], t[0]) * 1e-3
    doc = json.loads(_DOC)
    return acc + float(t[0, 0]) + len(doc) + float(np.sort(_VECTOR)[0])


def _probe_time() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timing:
    raw_s: float  # wall time per call, probe time removed
    speed_s: float  # median probe duration around and during the call

    @property
    def seconds(self) -> float:
        """The call's time at the nominal probe speed."""
        return self.raw_s * PROBE_NOMINAL_S / self.speed_s


def measure(fn):
    """Time ``fn()``; returns its first result and the per-call ``Timing``."""
    gc.collect()
    samples = [_probe_time() for _ in range(BRACKET)]
    during: list[tuple[float, float]] = []  # (start, duration)

    def on_alarm(signum, frame):
        at = time.perf_counter()
        during.append((at, _probe_time()))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        start = time.perf_counter()
        result = fn()
        calls = 1
        while time.perf_counter() - start < MIN_BATCH_S:
            fn()
            calls += 1
        end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    inside = [d for at, d in during if at < end]  # a late alarm can land after
    samples += [d for _, d in during]
    samples += [_probe_time() for _ in range(BRACKET)]
    busy = (end - start - sum(inside)) / calls
    return result, Timing(raw_s=busy, speed_s=statistics.median(samples))


class Spans:
    """Spans (name, start, end, parent) kept in memory, written out at the end."""

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def span_cost_s(count: int = 20_000) -> float:
    """Measured bookkeeping cost of one span, for the overhead report."""
    spans = Spans()
    start = time.perf_counter()
    for _ in range(count):
        with spans.span("cost"):
            pass
    return (time.perf_counter() - start) / count
