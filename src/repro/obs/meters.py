"""Metering: per-process and per-gate simulated-cycle attribution.

Real Multics answered "where did the time go?" with its metering
commands — ``total_time_meters``, ``traffic_control_meters``,
``file_system_meters`` — each a formatted report over counters the
supervisor accumulated as a side effect of normal operation.  This
module is that layer for the simulation: every simulated cycle the
system charges anywhere (scheduler ``Charge`` simcalls, gate-call
costs, CPU stack-machine execution, page-fault waits) is attributed to
a per-process bucket, and every supervisor gate gets its own
call/denial/cycle meter.

Discipline (same as :mod:`repro.obs.registry`): accumulation is plain
integer arithmetic on the hot path and **never touches the simulated
clock** — metering on or off, a workload runs in identical simulated
cycles.  The boundaries feed the meters:

* :meth:`Meters.track` — process admission (scheduler) and first kernel
  contact; live processes are *polled* for their own accounting fields
  (``cpu_cycles``, ``fault_wait_cycles``, ``page_faults``) at snapshot
  time, so those charges cost nothing extra to attribute;
* :meth:`Meters.note_gate` — the gate choke point, charging the
  ring-crossing cost to both the per-gate and per-process meters;
* :meth:`Meters.note_execution` — one ``CPU.execute`` run, attributing
  the cycle/AM/walk/crossing deltas to the executing context;
* :meth:`Meters.fold` — process destruction, folding the live fields
  into the bucket so aggregates stay monotonic.

Each boundary also bumps one running-total bucket, the sum of every
per-process bucket, so the ``meter.*`` sources read a handful of
integers instead of adding up every bucket at each read (the timeline
sampler reads every source at every interval).  Only the live
processes' own ``cpu_cycles`` and ``fault_wait_cycles`` are still
summed, because those fields are charged outside this module.

The attribution *coverage* invariant is the point of the whole layer:
``attributed_cycles()`` (everything landed in some process bucket) over
``total_cycles()`` (everything any charging site recorded) is 1.0 when
the wiring is complete, and drops below it exactly when some charged
process escaped tracking — bench E16 asserts >= 95%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc.process import Process


@dataclass
class ProcessMeter:
    """Cycle attribution bucket for one process.

    Live accounting (charged cycles, fault waits, fault counts) stays
    on the :class:`Process` and is polled; the fields here are what no
    other layer accumulates per process, plus the folded values of
    destroyed processes.
    """

    pid: int
    name: str
    #: Cycles charged by the CPU while executing for this process.
    exec_cycles: int = 0
    #: Of those, translation cycles resolved by the associative memory.
    am_hit_cycles: int = 0
    #: Translation cycles spent on full SDW/PTW walks.
    walk_cycles: int = 0
    #: Ring transitions (hardware calls + gate entries that crossed).
    ring_crossings: int = 0
    #: Supervisor gate entries and the cycles they charged.
    gate_entries: int = 0
    gate_denials: int = 0
    gate_cycles: int = 0
    # Folded at destruction; live values are polled from the Process.
    folded_cpu_cycles: int = 0
    folded_fault_wait_cycles: int = 0
    folded_page_faults: int = 0


@dataclass
class CpuMeter:
    """Per-CPU attribution bucket for the SMP complex.

    Busy cycles are instructions, translations and calls the CPU
    charged; stall cycles are time spent waiting out another CPU's
    kernel-lock hold window (plus the serialized fault service under
    it).  Both are simulated cycles on the lockstep timeline.
    """

    cpu_id: int
    busy_cycles: int = 0
    stall_cycles: int = 0
    slices: int = 0
    jobs: int = 0


@dataclass
class GateMeter:
    """Call census for one supervisor gate."""

    name: str
    calls: int = 0
    denials: int = 0
    cycles: int = 0

    @property
    def mean_cycles(self) -> float:
        return self.cycles / self.calls if self.calls else 0.0


class Meters:
    """The metering plane: buckets, totals, and the report formatters."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: pid -> live Process (polled for its accounting fields).
        self._live: dict[int, "Process"] = {}
        #: pid -> bucket; buckets are never removed, only folded.
        self._buckets: dict[int, ProcessMeter] = {}
        #: The sum of every bucket, kept up to date by the boundaries.
        self._total = ProcessMeter(0, "total")
        #: gate name -> meter.
        self._gates: dict[str, GateMeter] = {}
        #: cpu id -> per-CPU bucket (fed by the SMP complex's slices).
        self._cpu_meters: dict[int, CpuMeter] = {}
        #: Every CPU built with these meters (denominator source).
        self._cpus: list = []
        # Denominator sources bound by the owning KernelServices; a
        # standalone Meters (unit tests) counts only what it saw itself.
        self._busy_cycles: Callable[[], int] = lambda: 0
        self._gate_cycles: Callable[[], int] = lambda: 0
        self._fault_wait: Callable[[], int] = lambda: 0

    # -- wiring ----------------------------------------------------------

    def bind_system(
        self,
        busy_cycles: Callable[[], int],
        gate_cycles: Callable[[], int],
        fault_wait: Callable[[], int],
    ) -> None:
        """Bind the system-wide charge totals the coverage denominator
        reads (processor busy cycles, gate costs, fault waits)."""
        self._busy_cycles = busy_cycles
        self._gate_cycles = gate_cycles
        self._fault_wait = fault_wait

    def register_cpu(self, cpu) -> None:
        """Count a CPU's charged cycles in the coverage denominator."""
        if not self.enabled:
            return
        self._cpus.append(cpu)

    # -- accumulation boundaries ----------------------------------------

    def track(self, process: "Process") -> None:
        """Ensure a bucket exists and the live process is polled."""
        if not self.enabled:
            return
        pid = process.pid
        if pid not in self._buckets:
            self._buckets[pid] = ProcessMeter(pid, process.name)
        if pid not in self._live:
            self._live[pid] = process

    def fold(self, process: "Process") -> None:
        """Process destruction: freeze its live accounting into the
        bucket so the aggregates stay monotonic."""
        if not self.enabled:
            return
        live = self._live.pop(process.pid, None)
        if live is None:
            return
        bucket, total = self._buckets[process.pid], self._total
        bucket.folded_cpu_cycles += live.cpu_cycles
        total.folded_cpu_cycles += live.cpu_cycles
        bucket.folded_fault_wait_cycles += live.fault_wait_cycles
        total.folded_fault_wait_cycles += live.fault_wait_cycles
        bucket.folded_page_faults += live.page_faults
        total.folded_page_faults += live.page_faults

    def note_gate(self, process: "Process", gate: str, cycles: int,
                  crossed: bool = False) -> None:
        """One gate entry: charge its cost to both meters."""
        if not self.enabled:
            return
        pid = process.pid
        bucket = self._buckets.get(pid)
        if bucket is None or pid not in self._live:
            self.track(process)
            bucket = self._buckets[pid]
        total = self._total
        bucket.gate_entries += 1
        total.gate_entries += 1
        bucket.gate_cycles += cycles
        total.gate_cycles += cycles
        if crossed:
            bucket.ring_crossings += 1
            total.ring_crossings += 1
        meter = self._gates.get(gate)
        if meter is None:
            meter = self._gates[gate] = GateMeter(gate)
        meter.calls += 1
        meter.cycles += cycles

    def note_gate_denied(self, process: "Process", gate: str) -> None:
        """One refused gate call (before or after the cost charge)."""
        if not self.enabled:
            return
        self.track(process)
        self._buckets[process.pid].gate_denials += 1
        self._total.gate_denials += 1
        meter = self._gates.get(gate)
        if meter is None:
            meter = self._gates[gate] = GateMeter(gate)
        meter.denials += 1

    def note_execution(self, ctx, cycles: int, am_hit_cycles: int,
                       walk_cycles: int, crossings: int) -> None:
        """Attribute one ``CPU.execute`` run's cycle deltas to the
        executing context (a Process, or any ctx with a ``pid``)."""
        if not self.enabled:
            return
        pid = getattr(ctx, "pid", None)
        if pid is None:
            return  # a bare bench context; nothing to attribute to
        bucket = self._buckets.get(pid)
        if bucket is None:
            bucket = self._buckets[pid] = ProcessMeter(
                pid, getattr(ctx, "name", f"pid{pid}")
            )
            if hasattr(ctx, "cpu_cycles"):
                self._live.setdefault(pid, ctx)
        total = self._total
        bucket.exec_cycles += cycles
        total.exec_cycles += cycles
        bucket.am_hit_cycles += am_hit_cycles
        total.am_hit_cycles += am_hit_cycles
        bucket.walk_cycles += walk_cycles
        total.walk_cycles += walk_cycles
        bucket.ring_crossings += crossings
        total.ring_crossings += crossings

    def note_cpu_slice(self, cpu_id: int, busy: int, stall: int,
                       jobs: int = 0) -> None:
        """One lockstep slice on one CPU of the SMP complex."""
        if not self.enabled:
            return
        meter = self._cpu_meters.get(cpu_id)
        if meter is None:
            meter = self._cpu_meters[cpu_id] = CpuMeter(cpu_id)
        meter.busy_cycles += busy
        meter.stall_cycles += stall
        meter.slices += 1
        meter.jobs += jobs

    def cpu_meter(self, cpu_id: int) -> CpuMeter | None:
        return self._cpu_meters.get(cpu_id)

    def gate_usage(self) -> dict[str, GateMeter]:
        """Per-gate meters, keyed by gate name (a shallow copy: the
        profiler reads these to corroborate the audit trace)."""
        return dict(self._gates)

    # -- per-process readbacks ------------------------------------------

    def _live_field(self, pid: int, attr: str) -> int:
        live = self._live.get(pid)
        return getattr(live, attr) if live is not None else 0

    def process_cpu_cycles(self, pid: int) -> int:
        b = self._buckets[pid]
        return b.folded_cpu_cycles + self._live_field(pid, "cpu_cycles")

    def process_fault_wait(self, pid: int) -> int:
        b = self._buckets[pid]
        return (b.folded_fault_wait_cycles
                + self._live_field(pid, "fault_wait_cycles"))

    def process_page_faults(self, pid: int) -> int:
        b = self._buckets[pid]
        return b.folded_page_faults + self._live_field(pid, "page_faults")

    def process_attributed(self, pid: int) -> int:
        """Everything this process accounts for in the numerator."""
        b = self._buckets[pid]
        return (self.process_cpu_cycles(pid)
                + self.process_fault_wait(pid)
                + b.exec_cycles)

    # -- totals and coverage --------------------------------------------

    def attributed_cycles(self) -> int:
        """Cycles landed in some per-process bucket (the numerator):
        :meth:`process_attributed` summed over every bucket, read from
        the running total plus the live processes' own fields."""
        total = self._total
        return (total.folded_cpu_cycles + total.folded_fault_wait_cycles
                + total.exec_cycles
                + sum([p.cpu_cycles + p.fault_wait_cycles
                       for p in self._live.values()]))

    def total_cycles(self) -> int:
        """Cycles any charging site recorded (the denominator):
        processor busy time + gate costs + CPU execution + fault waits.

        ``process.cpu_cycles`` accumulates both ``Charge`` simcalls
        (mirrored into processor busy time) and gate costs (mirrored
        into the gate total), so numerator and denominator measure the
        same flows from independent sides.
        """
        return (self._busy_cycles()
                + self._gate_cycles()
                + sum(cpu.cycles for cpu in self._cpus)
                + self._fault_wait())

    def coverage(self) -> float:
        """Fraction of total cycles attributed to a bucket (0..1)."""
        total = self.total_cycles()
        return self.attributed_cycles() / total if total else 1.0

    # -- registry sources ------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Expose the plane under ``meter.*`` in the shared registry."""
        registry.counter(
            "meter.attributed_cycles",
            "cycles attributed to some process bucket",
            source=self.attributed_cycles,
        )
        registry.counter(
            "meter.total_cycles", "cycles recorded by any charging site",
            source=self.total_cycles,
        )
        registry.gauge(
            "meter.coverage", "attributed/total cycle fraction",
            source=self.coverage,
        )
        registry.counter(
            "meter.exec_cycles", "CPU execution cycles attributed",
            source=lambda: self._total.exec_cycles,
        )
        registry.counter(
            "meter.am_hit_cycles", "attributed AM-hit translation cycles",
            source=lambda: self._total.am_hit_cycles,
        )
        registry.counter(
            "meter.walk_cycles", "attributed full-walk translation cycles",
            source=lambda: self._total.walk_cycles,
        )
        registry.counter(
            "meter.ring_crossings", "attributed ring transitions",
            source=lambda: self._total.ring_crossings,
        )
        registry.counter(
            "meter.gate_entries", "attributed supervisor gate entries",
            source=lambda: self._total.gate_entries,
        )
        registry.counter(
            "meter.gate_denials", "attributed refused gate calls",
            source=lambda: self._total.gate_denials,
        )
        registry.gauge(
            "meter.processes", "processes with a metering bucket",
            source=lambda: len(self._buckets),
        )
        registry.gauge(
            "meter.gates", "gates with a call meter",
            source=lambda: len(self._gates),
        )
        registry.counter(
            "meter.smp_busy_cycles",
            "busy cycles attributed to SMP complex CPUs",
            source=lambda: sum(
                m.busy_cycles for m in self._cpu_meters.values()
            ),
        )
        registry.counter(
            "meter.smp_stall_cycles",
            "lock-stall cycles attributed to SMP complex CPUs",
            source=lambda: sum(
                m.stall_cycles for m in self._cpu_meters.values()
            ),
        )
        registry.gauge(
            "meter.cpus", "CPUs with an attribution bucket",
            source=lambda: len(self._cpu_meters),
        )

    # -- the Multics-style reports --------------------------------------

    def total_time_meters(self) -> str:
        """Where the simulated time went, system-wide."""
        total = self.total_cycles()
        attributed = self.attributed_cycles()
        busy = self._busy_cycles()
        gates = self._gate_cycles()
        execu = self._total.exec_cycles
        waits = self._fault_wait()

        def pct(n: int) -> str:
            return f"{100.0 * n / total:6.2f}%" if total else "   n/a"

        lines = [
            "TOTAL TIME METERS",
            f"  total recorded cycles     {total:>12}",
            f"  attributed to processes   {attributed:>12}  {pct(attributed)}",
            f"    scheduler (charged)     {busy:>12}  {pct(busy)}",
            f"    gate calls              {gates:>12}  {pct(gates)}",
            f"    cpu execution           {execu:>12}  {pct(execu)}",
            f"    page-fault waits        {waits:>12}  {pct(waits)}",
            f"    am hits / walks         "
            f"{self._total.am_hit_cycles:>6} / {self._total.walk_cycles}",
        ]
        return "\n".join(lines)

    def traffic_control_meters(self) -> str:
        """Per-process accounting, in the traffic controller's terms."""
        lines = [
            "TRAFFIC CONTROL METERS",
            f"  {'pid':>5} {'process':<16} {'cpu':>10} {'exec':>10} "
            f"{'faults':>7} {'fault wait':>11} {'gates':>6} {'xring':>6}",
        ]
        for pid in sorted(self._buckets):
            b = self._buckets[pid]
            lines.append(
                f"  {pid:>5} {b.name:<16} "
                f"{self.process_cpu_cycles(pid):>10} {b.exec_cycles:>10} "
                f"{self.process_page_faults(pid):>7} "
                f"{self.process_fault_wait(pid):>11} "
                f"{b.gate_entries:>6} {b.ring_crossings:>6}"
            )
        return "\n".join(lines)

    def gate_meters(self) -> str:
        """Per-gate call census, busiest first."""
        lines = [
            "GATE METERS",
            f"  {'gate':<28} {'calls':>7} {'denied':>7} "
            f"{'cycles':>10} {'mean':>8}",
        ]
        for meter in sorted(
            self._gates.values(), key=lambda m: (-m.cycles, m.name)
        ):
            lines.append(
                f"  {meter.name:<28} {meter.calls:>7} {meter.denials:>7} "
                f"{meter.cycles:>10} {meter.mean_cycles:>8.1f}"
            )
        return "\n".join(lines)


#: The shared disabled meters standalone components default to.
NULL_METERS = Meters(enabled=False)
