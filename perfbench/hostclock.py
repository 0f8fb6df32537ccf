"""Wall time scaled to a reference host speed.

The benchmark's host changes speed by up to 1.4x, for seconds to minutes at
a time, and CPU time slows with wall time.  A state that outlasts a run
cannot be averaged away inside the run, so every time the benchmark
reports is measured against the host's speed at that moment:

- ``HostClock.start`` runs ``probe``, a fixed piece of pure-Python work of
  many kinds, every ``INTERVAL_S`` from a ``SIGALRM`` timer, in the process
  being measured.  The probe's own time is kept apart and taken out of
  every duration.
- A window's calibrated duration is its wall time without the probe time,
  times ``REFERENCE_PROBE_S`` over the mean probe time in the window.  A
  short span (one check record, one eval operation) is scaled by the probes
  around it instead (``HostClock.calibrate``).  The
  unit stays seconds: seconds on a host where one probe takes
  ``REFERENCE_PROBE_S``, about a 2-core cloud host in its fast state.

A change to the program does not change the probe, so a slower program
reads slower; a slower host reads the same.  The raw wall times stay in the
run record next to the calibrated ones.
"""

from __future__ import annotations

import gc
import itertools
import json
import re
import signal
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

INTERVAL_S = 0.025
REFERENCE_PROBE_S = 0.0007
LOCAL_S = 0.15          # the neighbourhood that calibrates a short span


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class _Item:
    a: int
    b: tuple


_TERM = re.compile(r"([A-Z]+)(\d+)")


def probe() -> int:
    """A fixed piece of work, about 0.7 ms on the 2-core reference host.

    It runs many kinds of interpreter work, as kvar does: Fraction sums
    (calls, small objects, gcd), frozen dataclasses hashed into a set and
    sorted by a key, a regular expression over a formatted string, frozenset
    keys, json and itertools.  Of the probes tried, this mix slowed down
    with the host most nearly as the check batteries and the relation-file
    evaluation did.  The collector is off for the probe, so its time does
    not depend on the size of the program's heap.
    """
    gc.disable()
    try:
        f = Fraction(0)
        for i in range(1, 75):
            f += Fraction(i, i + 1 + i % 3)
        items = {_Item(i % 7, (i, -i)) for i in range(60)}
        acc = len(sorted(items, key=lambda it: (it.b[1], it.a)))
        text = " + ".join(f"P{i}*L^{i % 4}" for i in range(40))
        acc += sum(int(m.group(2)) for m in _TERM.finditer(text))
        table = {frozenset((i, i + 1)): [i] * 3 for i in range(80)}
        acc += len(json.dumps({str(sorted(k)): v for k, v in list(table.items())[:30]}))
        acc += sum(1 for _ in itertools.combinations(range(9), 3))
        return acc + f.denominator % 7
    finally:
        gc.enable()


@dataclass(frozen=True)
class Mark:
    t: float            # monotonic wall clock
    spent: float        # probe seconds so far
    n: int              # probe samples so far


class HostClock:
    """Samples host speed in this process while the program runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []      # probe durations
        self.ends: List[float] = []         # when each probe ended
        self.spent = 0.0
        self._busy = False

    def _tick(self, *_) -> None:
        if self._busy:      # a signal that lands inside a probe is dropped
            return
        self._busy = True
        t0 = now()
        probe()
        t1 = now()
        self.samples.append(t1 - t0)
        self.ends.append(t1)
        self.spent += t1 - t0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        self.resume()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    stop = pause

    def net(self) -> float:
        """Wall clock without the probe's own time; spans measured on it exclude probes."""
        return now() - self.spent

    def mark(self) -> Mark:
        return Mark(now(), self.spent, len(self.samples))

    def factor(self, start: Mark, end: Mark) -> float:
        """Reference probe time over the mean probe time between two marks."""
        window = self.samples[start.n:end.n] or self.samples[max(0, start.n - 1):start.n + 1]
        return REFERENCE_PROBE_S * len(window) / sum(window)

    def seconds(self, start: Mark, end: Mark) -> float:
        """Calibrated duration between two marks."""
        return (end.t - start.t - (end.spent - start.spent)) * self.factor(start, end)

    def calibrate(self, spans: Iterable[Tuple[float, float]]) -> List[float]:
        """Calibrated durations of spans the program timed itself, as (end, seconds).

        A span loses the probe time that fell inside it and is scaled by the
        mean probe time within ``LOCAL_S`` of it: the host's speed changes
        within a battery, and a span of a few milliseconds should be judged
        by the speed of its moment, not of the battery.
        """
        n = len(self.samples)           # the timer may add samples meanwhile
        ends = self.ends[:n]
        prefix = [0.0, *itertools.accumulate(self.samples[:n])]
        out = []
        for end, seconds in spans:
            start = end - seconds
            inside = prefix[bisect_right(ends, end)] - prefix[bisect_right(ends, start)]
            # at least the one probe nearest the span
            hi = min(max(bisect_right(ends, end + LOCAL_S), 1), n)
            lo = min(bisect_left(ends, start - LOCAL_S), hi - 1)
            mean = (prefix[hi] - prefix[lo]) / (hi - lo)
            out.append((seconds - inside) * REFERENCE_PROBE_S / mean)
        return out

    def stamp(self, start: Mark) -> dict:
        """An end mark relative to ``start``, for a parent that timed from before ``start``."""
        end = self.mark()
        return {"t": end.t, "spent": end.spent - start.spent,
                "factor": self.factor(start, end)}


def from_stamp(started: float, stamp: dict) -> float:
    """Calibrated seconds from a parent's ``started`` to a child's stamp."""
    return (stamp["t"] - started - stamp["spent"]) * stamp["factor"]

