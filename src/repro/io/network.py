"""The ARPA network attachment — the single external I/O path.

In the minimized kernel, "network technology ... provide[s] the only
path for external I/O to Multics": terminals, card decks, and print
streams all arrive and depart as network messages, and the kernel
keeps exactly one device mechanism instead of five.

The attachment feeds an input buffer (circular or infinite, per
configuration — experiment E6) and raises one interrupt line for
arrivals.  :class:`TrafficPattern` generates the bursty workloads the
buffer experiment sweeps over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.clock import Simulator
from repro.hw.interrupts import InterruptController
from repro.io.buffers import CircularBuffer, InfiniteVMBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True)
class Message:
    """One network message."""

    seq: int
    host: str
    body: str


class NetworkAttachment:
    """The kernel's one external-I/O mechanism."""

    device_class = "network"

    def __init__(
        self,
        sim: Simulator,
        interrupts: InterruptController,
        line: int,
        buffer: CircularBuffer | InfiniteVMBuffer,
        latency: int = 20,
        injector: "FaultInjector | None" = None,
        metrics=None,
    ) -> None:
        self.sim = sim
        self.interrupts = interrupts
        self.line = line
        self.buffer = buffer
        self.latency = latency
        self.injector = injector
        self._seq = 0
        self.sent: list[Message] = []
        self.received_count = 0
        #: Fault-plane counters.
        self.dropped = 0
        self.duplicated = 0
        self.duplicates_suppressed = 0
        self._seen_seqs: set[int] = set()
        if metrics is not None:
            metrics.counter("net.received", "messages accepted into the buffer",
                            source=lambda: self.received_count)
            metrics.counter("net.dropped", "messages lost on the wire",
                            source=lambda: self.dropped)
            metrics.counter("net.duplicated", "messages duplicated in flight",
                            source=lambda: self.duplicated)
            metrics.counter("net.duplicates_suppressed",
                            "duplicate deliveries the kernel discarded",
                            source=lambda: self.duplicates_suppressed)
            # The input buffer's own book, whatever its kind.
            stats = self.buffer.stats
            metrics.counter("io.buffer.puts", "messages written to the buffer",
                            source=lambda: stats.puts)
            metrics.counter("io.buffer.gets", "messages read from the buffer",
                            source=lambda: stats.gets)
            metrics.counter("io.buffer.overwrites",
                            "messages destroyed by writer lapping reader",
                            source=lambda: stats.overwrites)
            metrics.counter("io.buffer.underruns", "reads that found nothing",
                            source=lambda: stats.underruns)
            metrics.counter("io.buffer.lost", "messages lost to the consumer",
                            source=lambda: self.buffer.lost)
            metrics.gauge("io.buffer.queued", "unconsumed messages now",
                          source=lambda: len(self.buffer))
            metrics.gauge("io.buffer.peak_queue", "queue high-water mark",
                          source=lambda: stats.peak_queue)
            metrics.gauge("io.buffer.pages_allocated",
                          "VM pages backing the infinite buffer",
                          source=lambda: getattr(
                              self.buffer, "pages_allocated", 0))

    # -- inbound ------------------------------------------------------------

    def deliver(self, host: str, body: str) -> Message:
        """A message arrives from the network (device side)."""
        self._seq += 1
        message = Message(self._seq, host, body)
        kind = (
            self.injector.check("net.deliver", detail=f"seq {message.seq}")
            if self.injector is not None
            else None
        )
        if kind == "drop":
            # Lost on the wire: never buffered, no interrupt.  Pure
            # denial of use; the sender's retransmission (outside this
            # model) is the recovery.
            self.dropped += 1
            return message
        copies = 2 if kind == "duplicate" else 1
        if kind == "duplicate":
            self.duplicated += 1
        for _ in range(copies):
            self.buffer.put(message)
            self.received_count += 1
            self.sim.schedule(
                self.latency,
                lambda: self.interrupts.raise_line(
                    self.line, ("net_input", None)
                ),
            )
        return message

    def receive(self) -> Message | None:
        """The kernel reads the next buffered message, suppressing
        duplicate sequence numbers (the recovery for ``duplicate``
        injection)."""
        while True:
            message = self.buffer.get()
            if message is None:
                return None
            if message.seq in self._seen_seqs:
                self.duplicates_suppressed += 1
                if self.injector is not None:
                    self.injector.note_recovered(
                        "net.deliver",
                        "duplicate_suppressed",
                        detail=f"seq {message.seq}",
                    )
                continue
            self._seen_seqs.add(message.seq)
            return message  # type: ignore[return-value]

    # -- outbound -----------------------------------------------------------

    def send(self, host: str, body: str) -> Message:
        self._seq += 1
        message = Message(self._seq, host, body)
        self.sent.append(message)
        return message

    # -- health ----------------------------------------------------------------

    @property
    def messages_lost(self) -> int:
        return self.buffer.lost

    @property
    def backlog(self) -> int:
        return len(self.buffer)


class TrafficPattern:
    """Deterministic bursty traffic for the buffer experiment.

    ``burst_size`` messages arrive back-to-back every ``burst_gap``
    cycles; the consumer drains at its own pace.  A linear-congruential
    generator varies message bodies so content checks are meaningful
    without nondeterminism.
    """

    def __init__(self, burst_size: int, burst_gap: int, n_bursts: int, seed: int = 1) -> None:
        if burst_size <= 0 or n_bursts <= 0 or burst_gap < 0:
            raise ValueError("bad traffic pattern parameters")
        self.burst_size = burst_size
        self.burst_gap = burst_gap
        self.n_bursts = n_bursts
        self._state = seed or 1

    def _next(self) -> int:
        self._state = (self._state * 1103515245 + 12345) % (2**31)
        return self._state

    def schedule_into(self, net: NetworkAttachment) -> None:
        """Schedule every arrival into the simulator."""
        for burst in range(self.n_bursts):
            base = burst * self.burst_gap
            for k in range(self.burst_size):
                body = f"b{burst}m{k}x{self._next() % 9973}"
                net.sim.schedule_at(
                    net.sim.clock.now + base,
                    lambda b=body: net.deliver("remote-host", b),
                )
