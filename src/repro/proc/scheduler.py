"""Level 2 of the process implementation: the traffic controller.

Multiplexes pooled virtual processors among full processes, interprets
the simcalls yielded by process bodies, and implements block/wakeup.
Dedicated kernel processes (bound to their own virtual processors at
boot) are scheduled ahead of user processes and are never preempted —
the structure the paper's redesigned page control and interrupt
handling rely on.

Execution model: each process body is a generator.  Running a process
means advancing its generator until it yields

* :class:`Charge` — the hosting physical processor is busy for that
  many cycles (simulated via the discrete-event engine), after which
  the process continues, or is preempted if its quantum is spent;
* :class:`Block` — the process parks on an event channel and the
  processor is given to someone else (its pooled virtual processor is
  also surrendered if other processes are waiting for one);
* :class:`Wakeup` — a wakeup is sent (subject to the channel's guard:
  an unauthorized sender gets :class:`AccessViolation` raised *at the
  yield*, exactly as the hardware would reflect a store violation);
* :class:`Now` — the yield evaluates to the current time.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.config import SystemConfig
from repro.errors import AccessViolation
from repro.hw.clock import Simulator
from repro.obs import MetricsRegistry
from repro.proc.ipc import Block, Charge, EventChannel, Now, Wakeup
from repro.proc.process import Process, ProcessState
from repro.proc.virtual_processor import VirtualProcessorTable


class Processor:
    """One physical processor."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.current: Process | None = None
        self.busy_cycles = 0

    @property
    def idle(self) -> bool:
        return self.current is None

    def __repr__(self) -> str:
        who = self.current.name if self.current else "idle"
        return f"<Processor {self.index} {who}>"


class TrafficController:
    """The scheduler: ready queues, dispatch, block/wakeup, preemption."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        metrics: MetricsRegistry | None = None,
        meters=None,
        locks=None,
    ) -> None:
        self.sim = sim
        self.config = config
        #: Optional metering plane (repro.obs.meters): every admitted
        #: process gets an attribution bucket.
        self.meters = meters
        #: The global traffic-control lock: every mutation of the ready
        #: queues and every dispatch decision is made while holding it.
        #: On the discrete-event path (events run serially) acquisition
        #: is free; the SMP complex acquires it with a real owner and
        #: timestamp, so concurrent dispatchers serialize on it.
        if locks is not None:
            self.tc_lock = locks.tc
        else:
            # Deferred import: repro.proc must stay importable without
            # dragging in the kernel package (layering).
            from repro.kernel.locks import KernelLock

            self.tc_lock = KernelLock("tc")
        self.vpt = VirtualProcessorTable(config.n_virtual_processors)
        self.processors = [Processor(i) for i in range(config.n_processors)]
        self._ready_kernel: deque[Process] = deque()
        self._ready_user: deque[Process] = deque()
        self._vp_wait: deque[Process] = deque()
        self.processes: list[Process] = []
        self.channels: dict[str, EventChannel] = {}
        #: Optional dispatch advisor (the scheduling policy/mechanism
        #: split of repro.proc.sched_policy): given the ready user
        #: processes, returns the index to dispatch next.  Never
        #: consulted for kernel processes.
        self.dispatch_advisor = None
        # Statistics.
        self.dispatches = 0
        self.preemptions = 0
        self.vp_waits = 0
        #: Advisor calls that raised (each falls back to FIFO).
        self.advisor_failures = 0
        if metrics is not None:
            metrics.counter("sched.dispatches", "processes dispatched",
                            source=lambda: self.dispatches)
            metrics.counter("sched.preemptions", "quantum preemptions",
                            source=lambda: self.preemptions)
            metrics.counter("sched.vp_waits",
                            "admissions parked for a virtual processor",
                            source=lambda: self.vp_waits)
            metrics.counter("sched.advisor_failures",
                            "dispatch-advisor exceptions absorbed",
                            source=lambda: self.advisor_failures)
            metrics.gauge("sched.runnable", "ready processes now",
                          source=lambda: self.runnable)
            metrics.gauge("sched.vp_waiting",
                          "processes waiting for a virtual processor",
                          source=lambda: len(self._vp_wait))

    # -- channels ----------------------------------------------------------

    def create_channel(
        self,
        name: str,
        guard: Callable[[Process], None] | None = None,
    ) -> EventChannel:
        """Create (or return the existing) named event channel."""
        if name in self.channels:
            return self.channels[name]
        channel = EventChannel(name, guard=guard)
        self.channels[name] = channel
        return channel

    # -- process admission ---------------------------------------------------

    def add_process(self, process: Process) -> None:
        """Admit a process; dedicated processes get their own VP now."""
        if process in self.processes:
            raise ValueError(f"{process} already admitted")
        self.tc_lock.acquire(self.sim.clock.now)
        self.processes.append(process)
        if self.meters is not None:
            self.meters.track(process)
        process.start()
        if process.dedicated:
            self.vpt.dedicate(process)
            self._make_ready(process)
        else:
            self._admit_user(process)

    def _admit_user(self, process: Process) -> None:
        """Give a pooled process a VP, or park it in FIFO wait order.

        Used both for first admission and for re-admission after a
        blocked process surrendered its VP.
        """
        if self.vpt.acquire(process) is None:
            process.state = ProcessState.WAITING_VP
            self._vp_wait.append(process)
            self.vp_waits += 1
        else:
            self._make_ready(process)

    # -- wakeup (also the device / kernel entry point) -----------------------

    def send_wakeup(
        self,
        channel: EventChannel,
        message: object = None,
        sender: Process | None = None,
    ) -> None:
        """Deliver a wakeup to a channel.

        Raises :class:`AccessViolation` if ``sender`` fails the
        channel's guard; kernel-originated wakeups pass ``sender=None``.
        """
        channel.check_sender(sender)
        self.tc_lock.acquire(self.sim.clock.now)
        channel.wakeups_sent += 1
        if channel.waiters:
            process = channel.waiters.popleft()
            process.wakeups_received += 1
            process._resume_value = message
            self._unblock(process)
        else:
            channel.pending.append(message)
            channel.wakeups_queued += 1

    def _unblock(self, process: Process) -> None:
        if process.dedicated or process.vp is not None:
            self._make_ready(process)
        else:
            self._admit_user(process)

    # -- scheduling core -----------------------------------------------------

    def _make_ready(self, process: Process) -> None:
        process.state = ProcessState.READY
        if process.dedicated:
            self._ready_kernel.append(process)
        else:
            self._ready_user.append(process)
        self._dispatch()

    def _next_ready(self) -> Process | None:
        if self._ready_kernel:
            return self._ready_kernel.popleft()
        if self._ready_user:
            if self.dispatch_advisor is not None and len(self._ready_user) > 1:
                try:
                    index = self.dispatch_advisor(list(self._ready_user))
                except Exception:
                    # A broken advisor costs nothing but its advice:
                    # a raising one must not wedge dispatch.
                    self.advisor_failures += 1
                    index = None
                if isinstance(index, bool):
                    # bool is an int subtype; True/False is broken
                    # advice, not index 1/0 — never let it reorder
                    # dispatch silently.
                    self.advisor_failures += 1
                    index = None
                if isinstance(index, int) and 0 <= index < len(self._ready_user):
                    self._ready_user.rotate(-index)
                    chosen = self._ready_user.popleft()
                    self._ready_user.rotate(index)
                    return chosen
                # A broken advisor costs nothing but its advice: FIFO.
            return self._ready_user.popleft()
        return None

    def _dispatch(self) -> None:
        self.tc_lock.acquire(self.sim.clock.now)
        for processor in self.processors:
            if not processor.idle:
                continue
            process = self._next_ready()
            if process is None:
                return
            processor.current = process
            process.state = ProcessState.RUNNING
            self.dispatches += 1
            quantum = None if process.dedicated else self.config.quantum
            # A process resuming from Block receives the wakeup's message
            # as the value of its yield expression.
            resume = process.__dict__.pop("_resume_value", None)
            self.sim.schedule(
                0,
                lambda p=processor, pr=process, q=quantum, sv=resume: self._step(
                    p, pr, q, sv
                ),
            )

    def _free_processor(self, processor: Processor) -> None:
        processor.current = None
        self._dispatch()

    def _release_vp(self, process: Process) -> None:
        """Surrender a pooled VP if someone is waiting for one."""
        if process.dedicated or process.vp is None:
            return
        if self._vp_wait:
            self.vpt.release(process)
            waiter = self._vp_wait.popleft()
            if self.vpt.acquire(waiter) is None:  # pragma: no cover
                self._vp_wait.appendleft(waiter)
            else:
                self._make_ready(waiter)

    def _retire_vp(self, process: Process) -> None:
        """Give up the VP for good (process stopped)."""
        if process.dedicated or process.vp is None:
            return
        self.vpt.release(process)
        while self._vp_wait:
            waiter = self._vp_wait.popleft()
            if self.vpt.acquire(waiter) is None:  # pragma: no cover
                self._vp_wait.appendleft(waiter)
                break
            self._make_ready(waiter)
            break

    # -- the interpreter loop --------------------------------------------------

    def _step(
        self,
        processor: Processor,
        process: Process,
        quantum_left: int | None,
        send_value: object = None,
        throw: BaseException | None = None,
    ) -> None:
        gen = process.start()
        while True:
            try:
                if throw is not None:
                    item, throw = gen.throw(throw), None
                else:
                    item = gen.send(send_value)
            except StopIteration as stop:
                process.result = stop.value
                process.state = ProcessState.STOPPED
                self._retire_vp(process)
                self._free_processor(processor)
                return
            except BaseException as exc:  # noqa: BLE001 - process crashed
                process.failure = exc
                process.state = ProcessState.FAILED
                self._retire_vp(process)
                self._free_processor(processor)
                return
            send_value = None

            if isinstance(item, Charge):
                cycles = item.cycles
                process.cpu_cycles += cycles
                processor.busy_cycles += cycles
                if quantum_left is not None:
                    quantum_left -= cycles
                    if quantum_left <= 0 and (self._ready_kernel or self._ready_user):
                        # Quantum spent and someone is waiting: finish
                        # this charge, then preempt.
                        self.preemptions += 1
                        process.preemptions += 1
                        self.sim.schedule(
                            cycles,
                            lambda p=processor, pr=process: self._preempt(p, pr),
                        )
                        return
                    if quantum_left <= 0:
                        quantum_left = self.config.quantum  # nobody waiting
                self.sim.schedule(
                    cycles,
                    lambda p=processor, pr=process, q=quantum_left: self._step(
                        p, pr, q
                    ),
                )
                return

            if isinstance(item, Block):
                channel = item.channel
                if channel.pending:
                    send_value = channel.pending.popleft()
                    continue
                process.state = ProcessState.BLOCKED
                channel.waiters.append(process)
                self._release_vp(process)
                self._free_processor(processor)
                return

            if isinstance(item, Wakeup):
                try:
                    self.send_wakeup(item.channel, item.message, sender=process)
                except AccessViolation as violation:
                    throw = violation
                continue

            if isinstance(item, Now):
                send_value = self.sim.clock.now
                continue

            throw = TypeError(f"process yielded unknown simcall {item!r}")

    def _preempt(self, processor: Processor, process: Process) -> None:
        process.state = ProcessState.READY
        if process.dedicated:  # pragma: no cover - dedicated never preempted
            self._ready_kernel.append(process)
        else:
            self._ready_user.append(process)
        self._free_processor(processor)

    # -- convenience -------------------------------------------------------------

    def run(self, until: int | None = None, max_events: int = 10_000_000) -> None:
        """Drive the simulation (delegates to the event engine)."""
        self.sim.run(until=until, max_events=max_events)

    @property
    def runnable(self) -> int:
        return len(self._ready_kernel) + len(self._ready_user)
