"""The SMP execution complex: N CPUs in deterministic lockstep.

The Honeywell 6180 ran Multics symmetrically on up to six processors;
the paper's traffic controller is "the lowest layer", multiplexing the
real processors, and the kernel's shared tables (ready queues, page
tables, the AST) are guarded by a handful of global locks.  This module
scales the simulator to N instruction-executing CPUs while keeping
every run **bit-for-bit reproducible**:

* **Lockstep rounds.**  Execution proceeds in rounds on the simulated
  clock.  Each round, every busy CPU advances its program by up to one
  scheduler quantum of simulated cycles (busy + stall); the shared
  clock then advances by the *longest* slice.  CPUs are stepped in
  index order inside a round, so the interleaving is a pure function of
  (config, submitted jobs) — no threads, no wall-clock, no host
  scheduling can perturb it.  Same seed + config -> byte-identical
  ``repro.obs/v1`` snapshot.

* **Per-CPU hardware.**  Each CPU owns a private associative memory
  (on the 6180 the AM is processor hardware, not process state),
  cleared by a full cam whenever the CPU is connected to a different
  descriptor segment, cammed selectively when an SDW of the connected
  descriptor segment changes (a revocation, a terminate), and
  listening — like every process AM of the same system — to the
  ``cam_uid`` broadcast its page control issues when a frame moves.

* **Lock discipline.**  Dispatch happens under the global
  traffic-control lock; a missing-page fault is serviced by page
  control under the global page-table lock at the faulting CPU's
  *virtual* time within the round.  When two CPUs fault into the same
  window, the later one waits out the earlier one's hold and the wait
  lands in its ``stall_cycles`` — contention degrades throughput
  exactly where the paper's kernel serializes, and nowhere else.

* **Fault containment.**  A job that dies on a simulated hardware
  error (:class:`repro.errors.ReproError` — illegal instruction,
  access violation, device error from an injected fault during its
  page-in) takes down only its own job; the CPU is idle again next
  round and the complex keeps dispatching.

* **Graceful CPU loss.**  :meth:`SmpComplex.lose_cpu` removes a CPU
  mid-run (the chaos plane's ``cpu.loss`` site): the job it was
  executing is requeued at the *front* of the queue and restarts from
  its entry point on another CPU (:meth:`CPU.stepper` builds fresh
  frames per call, so a restart is clean), the offline CPU is skipped
  by dispatch, and the complex runs on degraded.  Losing a CPU costs
  the interrupted job's elapsed time — denial of use — never its data;
  the cycles it ran are attributed like any other execution's (the
  complex closes its runner).
  :meth:`SmpComplex.restore_cpu` is the other half of the arc: an
  offline CPU rejoins dispatch with a cold (cammed) private AM, so a
  chaos scenario can script a full degrade-and-recover window.

A single-CPU complex is cycle-identical to the pre-SMP synchronous
path: no other CPU can hold a lock, so no stalls accrue, dispatch costs
``CostModel.smp_dispatch`` (zero by default), and the clock advances by
exactly the cycles :meth:`repro.hw.cpu.CPU.execute` would have charged
(bench E17 asserts the identity).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.hw.assoc import AssociativeMemory
from repro.hw.clock import Simulator
from repro.hw.cpu import CPU, MachineContext
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer


@dataclass(slots=True)
class CpuJob:
    """One program execution submitted to the complex.

    Inputs mirror :meth:`CPU.execute`; results are filled in when the
    job completes (``result`` on success, ``error`` on a contained
    hardware fault).  Slotted: a workload run carries tens of
    thousands of these.
    """

    ctx: MachineContext
    segno: int
    entry: int = 0
    args: list[int] = field(default_factory=list)
    max_instructions: int = 1_000_000
    label: str = ""
    # -- results -------------------------------------------------------
    result: int | None = None
    error: ReproError | None = None
    cpu_id: int = -1
    #: Simulated times (shared-clock timeline) of dispatch / completion.
    started: int = -1
    finished: int = -1
    #: Busy cycles this job charged and stall cycles it waited.
    cycles: int = 0
    stall_cycles: int = 0
    instructions: int = 0

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None


class _Slot:
    """One CPU's current assignment."""

    __slots__ = ("job", "gen", "primed", "c0", "s0", "i0")

    def __init__(self, job: CpuJob, gen) -> None:
        self.job = job
        self.gen = gen
        #: Whether the stepper has run its entry setup (first ``next``)
        #: and parked before instruction one — see CPU.stepper's
        #: driving protocol.
        self.primed = False
        # Per-job counter baselines on the hosting CPU.
        self.c0 = 0
        self.s0 = 0
        self.i0 = 0


class SmpComplex:
    """N instruction-executing CPUs sharing one memory and one kernel."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        core,
        page_control,
        tc_lock,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        meters=None,
        n_cpus: int | None = None,
        on_linkage_fault=None,
        timeline=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.page_control = page_control
        self.tc_lock = tc_lock
        self.tracer = tracer or NULL_TRACER
        self.meters = meters
        #: Optional repro.obs.timeline.TimelineSampler polled at round
        #: boundaries; reads instruments only, zero simulated cycles.
        self.timeline = timeline
        self.n_cpus = config.n_processors if n_cpus is None else n_cpus
        if self.n_cpus < 1:
            raise ValueError("need at least one CPU")
        self.cpus: list[CPU] = []
        for i in range(self.n_cpus):
            private_am = None
            if config.am_enabled:
                private_am = AssociativeMemory(capacity=config.am_entries)
                page_control.am_broadcast.join(private_am)
            self.cpus.append(CPU(
                core=core,
                costs=config.costs,
                ring_mode=config.ring_mode,
                page_size=config.page_size,
                on_missing_page=self._page_handler(i),
                on_linkage_fault=on_linkage_fault,
                metrics=None,  # cpu.* names belong to the session CPU
                tracer=self.tracer,
                am_enabled=config.am_enabled,
                meters=meters,
                cpu_id=i,
                private_am=private_am,
            ))
        self._queue: deque[CpuJob] = deque()
        self._running: list[_Slot | None] = [None] * self.n_cpus
        self._offline = [False] * self.n_cpus
        #: Virtual-time bookkeeping for the current round.
        self._round_base = 0
        self._slice_start = [0] * self.n_cpus
        # Aggregate accounting (fixed metric names; per-CPU numbers go
        # through the meters plane and the bench extras, never into
        # config-dependent metric names).
        self.rounds = 0
        self.dispatches = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.elapsed_cycles = 0
        self.cpus_lost = 0
        self.cpus_restored = 0
        self.jobs_requeued = 0
        if metrics is not None:
            metrics.counter("smp.rounds", "lockstep rounds executed",
                            source=lambda: self.rounds)
            metrics.counter("smp.dispatches", "jobs connected to a CPU",
                            source=lambda: self.dispatches)
            metrics.counter("smp.jobs_completed", "jobs that returned",
                            source=lambda: self.jobs_completed)
            metrics.counter("smp.jobs_failed",
                            "jobs contained after a hardware fault",
                            source=lambda: self.jobs_failed)
            metrics.counter("smp.busy_cycles",
                            "cycles CPUs of the complex spent executing",
                            source=lambda: self.busy_cycles)
            metrics.counter("smp.stall_cycles",
                            "cycles CPUs of the complex spent lock-stalled",
                            source=lambda: self.stall_cycles)
            metrics.counter("smp.elapsed_cycles",
                            "simulated clock advanced by the complex",
                            source=lambda: self.elapsed_cycles)
            metrics.gauge("smp.cpus", "CPUs of the complex still online",
                          source=self.online_count)
            metrics.counter("smp.cpus_lost", "CPUs removed mid-run",
                            source=lambda: self.cpus_lost)
            metrics.counter("smp.cpus_restored",
                            "offline CPUs returned to service mid-run",
                            source=lambda: self.cpus_restored)
            metrics.counter("smp.jobs_requeued",
                            "jobs restarted after losing their CPU",
                            source=lambda: self.jobs_requeued)
            metrics.counter("smp.am_hits",
                            "translations served by per-CPU AMs",
                            source=lambda: sum(
                                c.private_am.hits for c in self.cpus
                                if c.private_am is not None
                            ))
            metrics.counter("smp.am_misses",
                            "per-CPU AM misses (full walks)",
                            source=lambda: sum(
                                c.private_am.misses for c in self.cpus
                                if c.private_am is not None
                            ))

    # -- fault plumbing --------------------------------------------------

    def _page_handler(self, index: int):
        """The missing-page callback for CPU ``index``: service the
        fault under the page-table lock at the CPU's virtual time, and
        stall the CPU for the wait + serialized service."""

        def handler(ctx, segno, pageno):
            cpu = self.cpus[index]
            spent = self.page_control.service_missing(
                ctx.dseg, segno, pageno, now=self._vnow(index), owner=cpu,
            )
            cpu.stall(spent)

        return handler

    def _vnow(self, index: int) -> int:
        """CPU ``index``'s virtual time inside the current round."""
        cpu = self.cpus[index]
        progress = (cpu.cycles + cpu.stall_cycles) - self._slice_start[index]
        return self._round_base + progress

    # -- job intake ------------------------------------------------------

    def submit(self, job: CpuJob) -> CpuJob:
        self._queue.append(job)
        return job

    @property
    def busy(self) -> bool:
        return bool(self._queue) or any(
            slot is not None for slot in self._running
        )

    # -- CPU loss (the chaos plane's cpu.loss site) ----------------------

    def online(self, index: int) -> bool:
        return 0 <= index < self.n_cpus and not self._offline[index]

    def online_count(self) -> int:
        return self.n_cpus - sum(self._offline)

    def last_online(self) -> int:
        """Highest-indexed CPU still online (-1 if none are)."""
        for i in range(self.n_cpus - 1, -1, -1):
            if not self._offline[i]:
                return i
        return -1

    def lose_cpu(self, index: int) -> CpuJob | None:
        """Remove CPU ``index`` from the complex mid-run.

        The job it was executing (if any) is requeued at the front of
        the queue and restarts from its entry point on another CPU —
        lost time, never lost data.  Returns the requeued job.  The
        last online CPU cannot be lost: that would be system loss, not
        degradation.
        """
        if not 0 <= index < self.n_cpus:
            raise ValueError(f"no CPU {index} in a {self.n_cpus}-CPU complex")
        if self._offline[index]:
            raise ValueError(f"CPU {index} is already offline")
        if self.online_count() <= 1:
            raise ValueError("cannot lose the last online CPU")
        self._offline[index] = True
        self.cpus_lost += 1
        slot = self._running[index]
        self._running[index] = None
        requeued: CpuJob | None = None
        if slot is not None:
            # Closing the runner attributes the displaced run, as any
            # other exit from the stepper does.
            slot.gen.close()
            requeued = slot.job
            requeued.cpu_id = -1
            requeued.started = -1
            self._queue.appendleft(requeued)
            self.jobs_requeued += 1
        if self.tracer.enabled:
            self.tracer.point(
                "smp_cpu_lost", origin="smp", cpu=index,
                requeued=requeued.label or requeued.segno
                if requeued is not None else None,
            )
        return requeued

    def restore_cpu(self, index: int) -> None:
        """Return an offline CPU to service (the chaos plane's
        ``cpu.restore`` site).

        The CPU rejoins dispatch on the next round with a cold private
        associative memory — a full cam, since translations cached
        before the outage may describe pages that moved while it was
        away.  Restoring is recovery, not a fault: the complex's
        capacity goes back up and the degradation window closes.
        """
        if not 0 <= index < self.n_cpus:
            raise ValueError(f"no CPU {index} in a {self.n_cpus}-CPU complex")
        if not self._offline[index]:
            raise ValueError(f"CPU {index} is already online")
        self._offline[index] = False
        self.cpus_restored += 1
        cpu = self.cpus[index]
        if cpu.private_am is not None:
            cpu.private_am.cam()
        if self.tracer.enabled:
            self.tracer.point("smp_cpu_restored", origin="smp", cpu=index)

    # -- the lockstep engine ---------------------------------------------

    def _dispatch(self) -> None:
        """Connect queued jobs to idle CPUs, in CPU index order, under
        the global traffic-control lock."""
        for i, cpu in enumerate(self.cpus):
            if (self._offline[i] or self._running[i] is not None
                    or not self._queue):
                continue
            stall0 = cpu.stall_cycles
            wait = self.tc_lock.acquire(self._round_base, cpu)
            cost = self.config.costs.smp_dispatch
            if cost:
                self.tc_lock.hold(cost)
            if wait or cost:
                cpu.stall(wait + cost)
            job = self._queue.popleft()
            slot = _Slot(job, cpu.stepper(
                job.ctx, job.segno, job.entry, job.args,
                job.max_instructions,
            ))
            slot.c0 = cpu.cycles
            slot.s0 = stall0
            slot.i0 = cpu.instructions_executed
            job.cpu_id = i
            job.started = self._round_base
            self._running[i] = slot
            self.dispatches += 1

    def _finish(self, index: int, slot: _Slot,
                result: int | None, error: ReproError | None) -> None:
        cpu = self.cpus[index]
        job = slot.job
        job.result = result
        job.error = error
        job.finished = self._vnow(index)
        job.cycles = cpu.cycles - slot.c0
        job.stall_cycles = cpu.stall_cycles - slot.s0
        job.instructions = cpu.instructions_executed - slot.i0
        if error is None:
            self.jobs_completed += 1
        else:
            self.jobs_failed += 1
        if self.meters is not None and self.meters.enabled:
            # The stepper's exit attributed the execution itself.
            self.meters.note_cpu_slice(index, 0, 0, jobs=1)
        if self.tracer.enabled:
            self.tracer.point(
                "smp_job_done", origin="smp", cpu=index,
                label=job.label or job.segno,
                outcome="error" if error is not None else "ok",
                cycles=job.cycles, stalled=job.stall_cycles,
            )
        self._running[index] = None

    def _round(self, quantum: int) -> int:
        """One lockstep round; returns the clock advance."""
        self._round_base = self.sim.clock.now
        # Counter baselines *before* dispatch, so a CPU that stalls on
        # the traffic-control lock spends that wait out of its slice
        # (and the round's clock advance covers it).
        pre = [(cpu.cycles, cpu.stall_cycles) for cpu in self.cpus]
        self._dispatch()
        sid = -1
        if self.tracer.enabled:
            sid = self.tracer.begin(
                "smp_round", round=self.rounds,
                busy_cpus=sum(1 for s in self._running if s is not None),
            )
        advance = 0
        for i, cpu in enumerate(self.cpus):
            slot = self._running[i]
            if slot is None:
                continue
            busy0, stall0 = pre[i]
            start = busy0 + stall0
            self._slice_start[i] = start
            target = start + quantum
            try:
                # Drive the stepper protocol: the priming next() runs
                # entry setup only while the slice has budget left,
                # then one send(target) runs instructions until the
                # CPU reaches the cycle target or the job ends.
                gen = slot.gen
                while cpu.cycles + cpu.stall_cycles < target:
                    if not slot.primed:
                        next(gen)
                        slot.primed = True
                    else:
                        gen.send(target)
            except StopIteration as stop:
                self._finish(i, slot, stop.value, None)
            except ReproError as exc:
                # Contained: the job dies, the CPU does not.
                self._finish(i, slot, None, exc)
            delta = (cpu.cycles + cpu.stall_cycles) - start
            busy = cpu.cycles - busy0
            stall = cpu.stall_cycles - stall0
            self.busy_cycles += busy
            self.stall_cycles += stall
            if self.meters is not None:
                self.meters.note_cpu_slice(i, busy, stall)
            advance = max(advance, delta)
        if advance:
            self.sim.clock.advance(advance)
            self.elapsed_cycles += advance
        self.rounds += 1
        if self.tracer.enabled:
            self.tracer.end(sid, advance=advance)
        return advance

    def run(self, quantum: int | None = None,
            max_rounds: int = 1_000_000, on_round=None) -> None:
        """Run lockstep rounds until every submitted job is done.

        ``on_round(self)`` is called after each round — the hook the
        chaos engine polls from, and where a driver can drain simulator
        events scheduled during the round (network deliveries).
        """
        q = self.config.quantum if quantum is None else quantum
        if q <= 0:
            raise ValueError("quantum must be positive")
        rounds = 0
        while self.busy:
            self._round(q)
            if on_round is not None:
                on_round(self)
            if self.timeline is not None:
                self.timeline.poll()
            rounds += 1
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"SMP complex still busy after {max_rounds} rounds"
                )

    def run_jobs(self, jobs: list[CpuJob], quantum: int | None = None,
                 on_round=None) -> list[CpuJob]:
        """Submit ``jobs`` and run them all to completion."""
        for job in jobs:
            self.submit(job)
        self.run(quantum=quantum, on_round=on_round)
        return jobs
