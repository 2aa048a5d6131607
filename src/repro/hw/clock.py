"""Simulated time and the discrete-event core.

Everything in the simulation shares one :class:`Clock`.  The
:class:`Simulator` is a minimal discrete-event engine: callables are
scheduled at absolute times and executed in time order (FIFO within a
time).  The process layer (:mod:`repro.proc.scheduler`) builds
generator-coroutine multiprogramming on top of this engine; devices use
it directly to model transfer latencies.

The scheduler dispatches almost everything at delay 0, so the common
case is an event whose time is *now*.  Those events go to a FIFO bucket
instead of the heap — they are already in ``(time, seq)`` order,
because the clock is monotonic and the sequence counter is shared — and
:meth:`Simulator.step`/:meth:`Simulator.run` pick whichever of bucket
head and heap root is earliest.  Events therefore run in exactly
``(time, seq)`` order, as if every event sat in one heap; the bucket
only saves the heap traffic.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable


class Clock:
    """A monotonic cycle counter shared by the whole machine."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current simulated time, in cycles."""
        return self._now

    def advance_to(self, time: int) -> None:
        """Move the clock forward to ``time``.

        Time never runs backwards; attempting to is a simulator bug.
        """
        if time < self._now:
            raise ValueError(
                f"clock cannot run backwards ({time} < {self._now})"
            )
        self._now = time

    def advance(self, cycles: int) -> int:
        """Advance by ``cycles`` and return the new time."""
        if cycles < 0:
            raise ValueError("cannot advance by a negative amount")
        self._now += cycles
        return self._now


class Simulator:
    """Discrete-event engine driving the simulated machine.

    Events are ``(time, seq, fn)`` triples; ``seq`` makes ordering
    deterministic for simultaneous events.  Delay-0 events live in a
    FIFO bucket (see module docstring); all others in a heap.
    """

    __slots__ = ("clock", "_queue", "_bucket", "_seq", "_events_run")

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or Clock()
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        #: Delay-0 events, already sorted by (time, seq): the clock is
        #: monotonic and seq strictly increases across both stores.
        self._bucket: deque[tuple[int, int, Callable[[], None]]] = deque()
        self._seq = itertools.count()
        self._events_run = 0

    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        if delay == 0:
            self._bucket.append((self.clock._now, next(self._seq), fn))
            return
        heapq.heappush(
            self._queue, (self.clock.now + delay, next(self._seq), fn)
        )

    def schedule_at(self, time: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute time ``time`` (>= now)."""
        if time < self.clock.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._queue, (time, next(self._seq), fn))

    @property
    def pending(self) -> int:
        """Number of events not yet executed."""
        return len(self._queue) + len(self._bucket)

    def clear_pending(self) -> int:
        """Drop every unexecuted event; returns how many were dropped.

        Models a crash/power failure: in-flight device completions and
        scheduled wakeups simply never happen.  The clock itself is not
        reset — simulated time survives a reboot.
        """
        dropped = len(self._queue) + len(self._bucket)
        self._queue.clear()
        self._bucket.clear()
        return dropped

    @property
    def events_run(self) -> int:
        """Total events executed so far (for sanity limits in tests)."""
        return self._events_run

    def _pop_next(self) -> tuple[int, int, Callable[[], None]]:
        """Remove and return the earliest event across bucket and heap."""
        bucket, queue = self._bucket, self._queue
        if bucket and (not queue or bucket[0] < queue[0]):
            return bucket.popleft()
        return heapq.heappop(queue)

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty.

        An event whose time has already passed — the SMP complex
        advances the shared clock directly, without draining the queue
        — runs immediately at the current clock; the clock never moves
        backwards.
        """
        if not self._queue and not self._bucket:
            return False
        time, _seq, fn = self._pop_next()
        self.clock.advance_to(max(time, self.clock.now))
        self._events_run += 1
        fn()
        return True

    def run(self, until: int | None = None, max_events: int = 10_000_000) -> None:
        """Run events until the queue drains, ``until`` passes, or the
        event budget is exhausted.

        ``max_events`` is a guard against accidental livelock in tests; a
        healthy workload never comes close to it.

        The loop is the hot half of :meth:`step` inlined: one head
        comparison picks bucket vs heap, same-timestamp runs drain
        without extra bookkeeping, and the clock clamp never moves time
        backwards.
        """
        executed = 0
        bucket, queue = self._bucket, self._queue
        clock = self.clock
        heappop = heapq.heappop
        while queue or bucket:
            from_bucket = bucket and (not queue or bucket[0] < queue[0])
            head = bucket[0] if from_bucket else queue[0]
            if until is not None and head[0] > until:
                clock.advance_to(until)
                return
            if executed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded event budget of {max_events}"
                )
            if from_bucket:
                bucket.popleft()
            else:
                heappop(queue)
            time = head[0]
            if time > clock._now:
                clock._now = time
            self._events_run += 1
            head[2]()
            executed += 1
        if until is not None and until > self.clock.now:
            self.clock.advance_to(until)
