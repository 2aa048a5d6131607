"""Full Multics processes (level 2 of the two-layer implementation).

A :class:`Process` bundles an address space (descriptor segment), a
current ring of execution, a principal identity, and a *body* — a
Python generator that yields simcalls (:class:`repro.proc.ipc.Charge`,
``Block``, ``Wakeup``, ``Now``) to the traffic controller.  Generator
coroutines give deterministic, single-threaded simulation of genuinely
asynchronous structure, which is exactly what the paper's dedicated
kernel processes (page-control freers, interrupt handlers) need.

Kernel processes are *dedicated*: they are bound permanently to a
level-1 virtual processor at boot and never contend with user
processes for one (experiment E9).
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable, Generator

from repro.config import USER_RING
from repro.hw.cpu import CodeSegment, Link
from repro.hw.segmentation import DescriptorSegment
from repro.obs.meters import ChargedCycles

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc.ipc import SimCall


_pid_counter = itertools.count(1)


class ProcessState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    WAITING_VP = "waiting_vp"  #: ready but no pooled virtual processor free
    STOPPED = "stopped"
    FAILED = "failed"


ProcessBody = Callable[["Process"], Generator["SimCall", object, object]]


class Process(ChargedCycles):
    """One process: address space + ring + principal + body coroutine."""

    def __init__(
        self,
        name: str,
        body: ProcessBody | None = None,
        ring: int = USER_RING,
        principal: object | None = None,
        dedicated: bool = False,
    ) -> None:
        self.pid = next(_pid_counter)
        self.name = name
        self.body = body
        self.ring = ring
        self.home_ring = ring
        self.principal = principal
        #: Dedicated processes belong to the kernel and own their VP.
        self.dedicated = dedicated
        self.state = ProcessState.NEW
        self.dseg = DescriptorSegment()
        #: Code images by segment number (the CPU fetches from these).
        self.code_segments: dict[int, CodeSegment] = {}
        #: The process's linkage section (combined, one per process here).
        self.links: list[Link] = []
        #: Level-1 virtual processor currently hosting this process.
        self.vp = None
        self._gen: Generator | None = None
        # Accounting, read by the benches.  ``cpu_cycles`` and
        # ``fault_wait_cycles`` are ChargedCycles properties, so the
        # meters that track this process see every charge.
        self._cpu_cycles = self._fault_wait_cycles = 0
        self._meters = None
        self.page_faults = 0
        self.wakeups_received = 0
        self.preemptions = 0
        self.result: object = None
        self.failure: BaseException | None = None

    # -- coroutine management (used by the traffic controller) -----------

    def start(self) -> Generator:
        """Instantiate the body generator (idempotent)."""
        if self._gen is None:
            if self.body is None:
                raise ValueError(f"process {self.name} has no body")
            self._gen = self.body(self)
        return self._gen

    @property
    def started(self) -> bool:
        return self._gen is not None

    # -- MachineContext protocol (for the CPU) ----------------------------

    def code_segment(self, segno: int) -> CodeSegment:
        try:
            return self.code_segments[segno]
        except KeyError:
            from repro.errors import SegmentFault

            raise SegmentFault(segno, f"segment {segno} holds no code") from None

    def linkage(self) -> list[Link]:
        return self.links

    def stack_limit(self) -> int:
        return 4096

    # -- misc -------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state not in (ProcessState.STOPPED, ProcessState.FAILED)

    def __repr__(self) -> str:
        return f"<Process {self.pid} {self.name!r} {self.state.value} ring={self.ring}>"
