"""Peripheral device models for the legacy I/O path.

Each device is a small state machine: attach/detach discipline, a
transfer latency, and an interrupt line it raises on completion.  The
legacy supervisor carries one kernel mechanism (gate family + handler
state) per device class — exactly the bulk the paper proposes to
replace with the single network attachment.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import DeviceError, InvalidArgument
from repro.faults.recovery import RetryPolicy
from repro.hw.clock import Simulator
from repro.hw.interrupts import InterruptController

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

#: The completion watchdog fires this many device latencies after a
#: transfer starts (catches hangs and lost completion interrupts).
WATCHDOG_FACTOR = 8


class Device:
    """Base device: attach discipline + completion interrupts.

    Completions travel as *tokens* through a small recovery machine:
    a transfer error reschedules the completion with the ``policy``'s
    doubling backoff (bounded by its ``max_retries``, after which the
    device is taken out of service and waiters see a ``device_error``
    payload instead of a hang); a hang or lost completion interrupt is
    caught by a watchdog armed at ``latency * WATCHDOG_FACTOR`` that
    redelivers the token.
    All timing is simulated-clock cycles — nothing sleeps.
    """

    device_class = "device"

    def __init__(
        self,
        name: str,
        sim: Simulator,
        interrupts: InterruptController,
        line: int,
        latency: int = 50,
        injector: "FaultInjector | None" = None,
        policy: RetryPolicy = RetryPolicy(),
    ) -> None:
        self.name = name
        self.sim = sim
        self.interrupts = interrupts
        self.line = line
        self.latency = latency
        self.injector = injector
        self.policy = policy
        self.attached_by: int | None = None  # pid
        self.operations = 0
        #: Permanently failed; attach refuses, completions stop.
        self.out_of_service = False
        self.failures = 0
        self.recoveries = 0
        self.cancelled_completions = 0
        #: Undelivered completion tokens (see _complete).
        self._pending: list[dict] = []

    @property
    def site(self) -> str:
        return f"device.{self.name}"

    def attach(self, pid: int) -> None:
        if self.out_of_service:
            raise DeviceError(f"{self.name} is out of service")
        if self.attached_by is not None and self.attached_by != pid:
            raise InvalidArgument(
                f"{self.name} is attached by process {self.attached_by}"
            )
        self.attached_by = pid

    def detach(self, pid: int) -> None:
        if self.attached_by != pid:
            raise InvalidArgument(f"{self.name} is not attached by {pid}")
        self.attached_by = None
        # Completions the detaching process was waiting for must not
        # fire later into whatever process attaches next.
        for token in self._pending:
            if token["pid"] == pid:
                token["cancelled"] = True

    def _require_attached(self, pid: int) -> None:
        if self.attached_by != pid:
            raise InvalidArgument(
                f"{self.name}: process {pid} has not attached the device"
            )

    # -- the completion machine ------------------------------------------

    def _complete(self, payload: object = None) -> None:
        """Start one completion: an interrupt after ``latency`` cycles,
        unless the fault plan says otherwise."""
        self.operations += 1
        token = {
            "payload": payload,
            "pid": self.attached_by,
            "delivered": False,
            "cancelled": False,
            "attempt": 0,
        }
        self._pending.append(token)
        self._start_completion(token)

    def _start_completion(self, token: dict) -> None:
        if token["cancelled"]:
            self._finish(token, cancelled=True)
            return
        if self.out_of_service:
            # Waiters on a dead device get a denial, not silence.
            token["payload"] = ("device_error", self.name)
            self.sim.schedule(self.latency, lambda: self._deliver(token))
            return
        kind = (
            self.injector.check(self.site, detail=str(token["payload"]))
            if self.injector is not None
            else None
        )
        if kind is None:
            self.sim.schedule(self.latency, lambda: self._deliver(token))
        elif kind == "transfer_error":
            self._retry_or_degrade(token)
        elif kind in ("hang", "lost_interrupt"):
            # The transfer stalls (hang) or finishes silently (lost
            # completion interrupt); only the watchdog saves the waiter.
            self.failures += 1
            timeout = self.latency * WATCHDOG_FACTOR
            self.sim.schedule(timeout, lambda: self._watchdog(token, kind))
        else:  # an unknown kind is a plan bug; fail loudly
            raise DeviceError(f"{self.name}: unknown fault kind {kind!r}")

    def _retry_or_degrade(self, token: dict) -> None:
        self.failures += 1
        token["attempt"] += 1
        attempt = token["attempt"]
        if attempt > self.policy.max_retries:
            if self.injector is not None:
                self.injector.note_fatal(
                    self.site, f"{self.policy.max_retries} retries exhausted"
                )
                self.injector.note_degraded(
                    self.site, "device taken out of service"
                )
            self.out_of_service = True
            # Wake the waiter with a denial of use, not a hang.
            token["payload"] = ("device_error", self.name)
            self.sim.schedule(self.latency, lambda: self._deliver(token))
            return
        backoff = self.policy.backoff(attempt)
        if self.injector is not None:
            self.injector.note_recovered(
                self.site, f"retry {attempt}", ticks=backoff
            )
        self.sim.schedule(
            self.latency + backoff, lambda: self._start_completion(token)
        )

    def _watchdog(self, token: dict, kind: str) -> None:
        if token["delivered"] or token["cancelled"]:
            return
        if self.injector is not None:
            self.injector.note_recovered(
                self.site,
                f"watchdog_redeliver:{kind}",
                ticks=self.latency * (WATCHDOG_FACTOR - 1),
            )
        self.recoveries += 1
        self._deliver(token)

    def _deliver(self, token: dict) -> None:
        if token["cancelled"]:
            self._finish(token, cancelled=True)
            return
        if token["delivered"]:
            return
        token["delivered"] = True
        self._finish(token)
        self.interrupts.raise_line(self.line, token["payload"])

    def _finish(self, token: dict, cancelled: bool = False) -> None:
        if cancelled:
            self.cancelled_completions += 1
        try:
            self._pending.remove(token)
        except ValueError:
            pass

    def power_fail(self) -> None:
        """Crash semantics: the attachment and every in-flight
        completion vanish (their simulator events are dropped by the
        crash itself)."""
        self.attached_by = None
        for token in self._pending:
            token["cancelled"] = True
        self._pending.clear()


class Terminal(Device):
    """A remote-access terminal: typed input queue, printed output."""

    device_class = "terminal"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._input: deque[str] = deque()
        self.output: list[str] = []

    def type_line(self, line: str) -> None:
        """The (simulated) human types a line."""
        self._input.append(line)
        self._complete(("input_ready", self.name))

    def read_line(self, pid: int) -> str | None:
        self._require_attached(pid)
        self.operations += 1
        return self._input.popleft() if self._input else None

    def write_line(self, pid: int, line: str) -> None:
        self._require_attached(pid)
        self.output.append(line)
        self._complete(("write_done", self.name))


class TapeDrive(Device):
    """Sequential-access tape: records, positioned by a head."""

    device_class = "tape"

    def __init__(self, *args, latency: int = 200, **kwargs) -> None:
        super().__init__(*args, latency=latency, **kwargs)
        self.records: list[list[int]] = []
        self.position = 0

    def mount(self, records: list[list[int]]) -> None:
        self.records = [list(r) for r in records]
        self.position = 0

    def rewind(self, pid: int) -> None:
        self._require_attached(pid)
        self.position = 0
        self._complete(("rewound", self.name))

    def read_record(self, pid: int) -> list[int] | None:
        self._require_attached(pid)
        if self.position >= len(self.records):
            return None
        record = self.records[self.position]
        self.position += 1
        self._complete(("read_done", self.name))
        return list(record)

    def write_record(self, pid: int, record: list[int]) -> None:
        self._require_attached(pid)
        del self.records[self.position:]
        self.records.append(list(record))
        self.position = len(self.records)
        self._complete(("write_done", self.name))


class CardReader(Device):
    """Reads a deck, one 80-column card at a time."""

    device_class = "card_reader"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._deck: deque[str] = deque()

    def load_deck(self, cards: list[str]) -> None:
        for card in cards:
            if len(card) > 80:
                raise InvalidArgument("a card holds at most 80 columns")
        self._deck.extend(cards)

    def read_card(self, pid: int) -> str | None:
        self._require_attached(pid)
        self._complete(("card_read", self.name))
        return self._deck.popleft() if self._deck else None


class CardPunch(Device):
    """Punches cards into an output stacker."""

    device_class = "card_punch"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stacker: list[str] = []

    def punch_card(self, pid: int, card: str) -> None:
        self._require_attached(pid)
        if len(card) > 80:
            raise InvalidArgument("a card holds at most 80 columns")
        self.stacker.append(card)
        self._complete(("card_punched", self.name))


class LinePrinter(Device):
    """Prints lines onto paper (a list of pages of lines)."""

    device_class = "printer"

    LINES_PER_PAGE = 60

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pages: list[list[str]] = [[]]

    def print_line(self, pid: int, line: str) -> None:
        self._require_attached(pid)
        if len(self.pages[-1]) >= self.LINES_PER_PAGE:
            self.pages.append([])
        self.pages[-1].append(line)
        self._complete(("printed", self.name))

    @property
    def lines_printed(self) -> int:
        return sum(len(page) for page in self.pages)
