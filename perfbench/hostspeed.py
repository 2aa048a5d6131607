"""Host-speed probes: scale the benchmark's host seconds to one
reference host speed.

The benchmark's host is a 2-vCPU guest of a shared machine.  Its speed
for pure-Python work swings twofold within a second and about as much
over minutes as other tenants come and go, and process CPU time
stretches with it.  No average inside a 36-second run removes a swing
that slow.

So the benchmark times a fixed pure-Python probe at boundaries it
already sees: between the set-up stages, and before and after each SMP
batch of the run.  Each stretch of program time between two marks is
scaled by the probe's reference time over the mean probe time at the
stretch's two ends.  A stretch runs from the end of one mark to the
start of the next, so the probes' own time never counts.  A change that
makes the program faster shortens the stretches and leaves the probes
alone.

Set-up and run need different probes, because the host's swings do not
slow every kind of work alike.  The run mostly interprets and creates
small objects, and ``OBJECTS`` follows it; set-up mostly allocates
page-frame lists, which slow down far less when the host does, and
``FRAMES`` follows it.  README.md gives the figures.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def fill_objects(n: int = 250) -> int:
    """Object creation, attribute stores and dict inserts: the work of
    the run's interpreter and kernel paths."""
    table = {}
    for i in range(n):
        table[i] = _Cell(i, (i, i + 1))
    return len(table)


def fill_frames(n: int = 300) -> int:
    """Lists of 16 words, as set-up builds one per page frame."""
    return len([[0] * 16 for _ in range(n)])


@dataclass(frozen=True)
class Probe:
    work: Callable[[], int]
    #: The probe's time at the reference host speed: for ``OBJECTS``,
    #: its median over the runs made when the benchmark was tuned
    #: (2-vCPU Xeon guest at 2.0 GHz, Python 3.11); for ``FRAMES``, its
    #: median at the moments ``OBJECTS`` read that speed.
    reference_s: float


OBJECTS = Probe(fill_objects, 130e-6)
FRAMES = Probe(fill_frames, 60e-6)


class HostClock:
    """A timeline marked by a probe.

    ``mark()`` times the probe three times and keeps the median.
    ``seconds(first, last)`` gives the raw and the scaled host seconds
    between two marks.  Without a probe (the traced run, whose spans
    must not contain one) a mark only reads the clock and scaled seconds
    equal raw seconds.
    """

    def __init__(self, probe: Probe | None) -> None:
        self.probe = probe
        #: (mark start, mark end, probe seconds) per mark, in
        #: ``perf_counter`` seconds.
        self.marks: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        start = time.perf_counter()
        probe_s = 0.0
        if self.probe is not None:
            # A collection of the program's heap set off by the probe's
            # objects would read as a slow host; with the collector off
            # it runs at the program's next allocation instead.
            gc.disable()
            try:
                times = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    self.probe.work()
                    times.append(time.perf_counter() - t0)
            finally:
                gc.enable()
            probe_s = sorted(times)[1]
        self.marks.append((start, time.perf_counter(), probe_s))

    def seconds(self) -> tuple[float, float]:
        """Raw and scaled seconds from the first mark to the last,
        without the probes' own time."""
        raw = scaled = 0.0
        for (_, end0, probe0), (start1, _, probe1) in zip(self.marks,
                                                          self.marks[1:]):
            stretch = start1 - end0
            raw += stretch
            if self.probe is not None:
                scaled += (stretch * self.probe.reference_s
                           / ((probe0 + probe1) / 2))
        return raw, scaled if self.probe is not None else raw

    def speed(self) -> float:
        """The host's speed over the timeline, relative to the
        reference: the probe's reference time over its median time."""
        ordered = sorted(probe_s for _, _, probe_s in self.marks)
        return self.probe.reference_s / ordered[len(ordered) // 2]
