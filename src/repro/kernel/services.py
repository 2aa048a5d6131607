"""The bundle of kernel-resident services shared by both supervisors.

Everything a gate handler may touch hangs off :class:`KernelServices`:
the simulator, memory hierarchy, active segment table, the UID file
system (layer 1), the directory tree (layer 2), page control, the
reference monitor, and per-process kernel state (KSTs, descriptor
segments).  The *difference* between the legacy supervisor and the
security kernel is which gate tables and which in-kernel modules sit on
top of these services — the services themselves are common substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.config import SupervisorKind, SystemConfig
from repro.errors import MissingPageFault, NoSuchEntry
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RetryPolicy, retry_call
from repro.fs.directory import Branch, DirectoryTree
from repro.fs.kst import KnownSegmentTable
from repro.fs.uid_layer import UidFileSystem
from repro.hw.assoc import AmTotals
from repro.hw.clock import Simulator
from repro.hw.interrupts import InterruptController
from repro.hw.memory import MemoryHierarchy
from repro.hw.segmentation import Intent, translate
from repro.kernel.locks import LockTable
from repro.obs import Meters, MetricsRegistry, Tracer
from repro.proc.scheduler import TrafficController
from repro.security.audit import AuditLog
from repro.security.mac import BOTTOM
from repro.security.principal import KERNEL_PRINCIPAL
from repro.security.reference_monitor import ReferenceMonitor
from repro.vm.page_control import PageControl, make_page_control
from repro.vm.segment_control import ActiveSegmentTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc.process import Process

#: Capacity, in messages, of the circular network buffer (the old
#: design, ``BufferKind.CIRCULAR``).
NET_BUFFER_CAPACITY = 8


@dataclass
class UserRecord:
    """One registered user, as the kernel knows them."""

    person: str
    projects: list[str]
    password_hash: str
    clearance: object = BOTTOM


@dataclass
class ProcessKernelState:
    """Kernel-side state for one process (never user-writable)."""

    kst: KnownSegmentTable = field(default_factory=KnownSegmentTable)
    #: Legacy only: in-kernel working directory (a directory UID).
    working_dir_uid: int | None = None
    #: Legacy only: in-kernel search rules (directory UIDs, in order).
    search_rules: list[int] = field(default_factory=list)

    @cached_property
    def legacy_kst(self) -> "LegacyKnownSegmentTable":
        """Legacy only: the unsplit KST holding in-kernel reference
        names, pathnames, and initiate counts (see
        repro.kernel.kst_legacy).  Built on first use, so a process
        under the kernel supervisor, which never reads it, has none."""
        from repro.kernel.kst_legacy import LegacyKnownSegmentTable

        return LegacyKnownSegmentTable()


class KernelServices:
    """Shared kernel substrate (see module docstring)."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator()
        # The observability plane: one registry and one tracer shared by
        # every model built below.  The tracer is off unless the config
        # asks for it; instruments cost nothing until snapshot time.
        self.metrics = MetricsRegistry(clock=self.sim.clock)
        self.tracer = Tracer(self.sim.clock, enabled=config.tracing)
        #: Per-process/per-gate cycle attribution (repro.obs.meters);
        #: accumulation is plain integers, never simulated cycles.
        self.meters = Meters(enabled=config.metering)
        #: The kernel's global locks (traffic control, page table, AST):
        #: the serialization points the paper's SMP kernel pins down.
        self.locks = LockTable(metrics=self.metrics)
        self.scheduler = TrafficController(self.sim, config,
                                           metrics=self.metrics,
                                           meters=self.meters,
                                           locks=self.locks)
        #: The bounded, exportable security audit every decision point
        #: logs through.
        self.audit = AuditLog(capacity=config.audit_capacity,
                              level=config.audit_level)
        # The fault plane: built before the hardware so every model can
        # consult one injector.  A fresh fork keeps this system's
        # injection history independent of any other system built from
        # the same config.
        self.injector = (
            FaultInjector(
                config.fault_plan.fork(),
                audit=self.audit,
                clock=self.sim.clock,
                metrics=self.metrics,
            )
            if config.fault_plan is not None
            else None
        )
        self.retry_policy = RetryPolicy()
        self.hierarchy = MemoryHierarchy(config, injector=self.injector,
                                         metrics=self.metrics)
        self.ast = ActiveSegmentTable(self.hierarchy, lock=self.locks.ast)
        self.interrupts = InterruptController(self.sim.clock,
                                              metrics=self.metrics,
                                              tracer=self.tracer)
        self.monitor = ReferenceMonitor(self.audit)
        self.page_control: PageControl = make_page_control(
            config.page_control,
            self.sim,
            self.scheduler,
            self.hierarchy,
            self.ast,
            config,
            metrics=self.metrics,
            tracer=self.tracer,
            locks=self.locks,
        )
        self.ufs = UidFileSystem(self.ast, page_control=self.page_control)
        root_uid = self.ufs.create_segment(
            1, label=BOTTOM, is_directory=True
        )
        self.tree = DirectoryTree(root_uid, BOTTOM)
        self._build_io()
        #: Kernel-side per-process state, keyed by pid.
        self._pstate: dict[int, ProcessKernelState] = {}
        #: Every process the kernel has seen (pid -> Process): the scope
        #: of SDW revocation.
        self._procs: dict[int, "Process"] = {}
        #: Running sums behind the am.* metrics: every tracked process's
        #: AM feeds them, and a destroyed process's counts stay in, so
        #: the counters stay monotonic.
        self.am_totals = AmTotals()
        #: The kernel's user registry (person -> record).
        self.users: dict[str, UserRecord] = {}
        #: Processes created through hcs_$proc_create, keyed by pid.
        self.created_processes: dict[int, "Process"] = {}
        #: pid -> pid of the process that created it (destroy rights).
        self.process_creators: dict[int, int] = {}
        #: Counters the benches read.
        self.gate_cycles = 0
        self.supervisor_incidents = 0
        self.metrics.counter(
            "gate.cycles", "simulated cycles charged to gate calls",
            source=lambda: self.gate_cycles,
        )
        self.metrics.counter(
            "kernel.supervisor_incidents",
            "exceptions absorbed at the gate boundary",
            source=lambda: self.supervisor_incidents,
        )
        am_totals = self.am_totals
        self.metrics.counter(
            "am.hits", "translations resolved by the associative memory",
            source=lambda: am_totals.hits,
        )
        self.metrics.counter(
            "am.misses", "references that walked the full check chain",
            source=lambda: am_totals.misses,
        )
        self.metrics.counter(
            "am.invalidations", "AM entries cleared by cam events",
            source=lambda: am_totals.invalidations,
        )
        self.metrics.counter(
            "am.cams", "full clear-associative-memory operations",
            source=lambda: am_totals.cams,
        )
        self.metrics.gauge(
            "am.entries", "cached translations across live processes",
            source=lambda: am_totals.entries,
        )
        # The metering plane's coverage denominator: every charging
        # site's own total, read from the side opposite the buckets.
        self.meters.bind_system(
            busy_cycles=lambda: sum(
                p.busy_cycles for p in self.scheduler.processors
            ),
            gate_cycles=lambda: self.gate_cycles,
            fault_wait=lambda: self.page_control.fault_wait_total,
        )
        self.meters.register_metrics(self.metrics)
        self.audit.register_metrics(self.metrics)
        # The time-series plane (repro.obs.timeline): off unless the
        # config carries a timeline spec.  Like the tracer, sampling
        # reads instruments only — zero simulated cycles either way.
        self.timeline = None
        self.health = None
        if config.timeline is not None:
            from repro.obs.health import HealthMonitor
            from repro.obs.timeline import TimelineSampler

            spec = config.timeline
            knobs = {k: spec[k] for k in ("interval", "capacity")
                     if k in spec}
            self.timeline = TimelineSampler(
                self.metrics, self.sim.clock, metrics=self.metrics, **knobs
            )
            self.health = HealthMonitor(spec.get("rules", []),
                                        metrics=self.metrics)
            self.timeline.listeners.append(self.health.observe)

    def timeline_document(self) -> dict | None:
        """The run's ``repro.timeline/v1`` document, with the health
        monitor's breach log folded in; None when the timeline is off."""
        if self.timeline is None:
            return None
        breaches = self.health.to_rows() if self.health is not None else None
        return self.timeline.to_doc(breaches=breaches)

    def _build_io(self) -> None:
        """Create the peripheral inventory and the network attachment."""
        from repro.config import BufferKind
        from repro.io.buffers import CircularBuffer, InfiniteVMBuffer
        from repro.io.devices import (
            CardPunch,
            CardReader,
            LinePrinter,
            TapeDrive,
            Terminal,
        )
        from repro.io.network import NetworkAttachment

        sim, ic = self.sim, self.interrupts
        recovery = dict(injector=self.injector, policy=self.retry_policy)
        self.devices = {
            "tty1": Terminal("tty1", sim, ic, line=1, **recovery),
            "tape1": TapeDrive("tape1", sim, ic, line=2, **recovery),
            "rdr1": CardReader("rdr1", sim, ic, line=3, **recovery),
            "pun1": CardPunch("pun1", sim, ic, line=4, **recovery),
            "prt1": LinePrinter("prt1", sim, ic, line=5, **recovery),
        }
        if self.config.buffers is BufferKind.CIRCULAR:
            buffer = CircularBuffer(NET_BUFFER_CAPACITY)
        else:
            buffer = InfiniteVMBuffer(
                messages_per_page=max(self.config.page_size // 4, 1)
            )
        self.network = NetworkAttachment(
            sim, ic, line=6, buffer=buffer, injector=self.injector,
            metrics=self.metrics,
        )
        from repro.io.topology import NetworkTopology

        self.topology = NetworkTopology.build(
            self.config.topology, sim, self.network,
            injector=self.injector, metrics=self.metrics,
        )

    # -- users ---------------------------------------------------------------

    def register_user(
        self,
        person: str,
        projects: list[str],
        password: str,
        clearance=BOTTOM,
    ) -> "UserRecord":
        from repro.kernel.proc_gates import hash_password

        record = UserRecord(
            person=person,
            projects=list(projects),
            password_hash=hash_password(password, person),
            clearance=clearance,
        )
        self.users[person] = record
        return record

    def config_user_ring(self) -> int:
        from repro.config import USER_RING

        return USER_RING

    # -- per-process kernel state ------------------------------------------

    def pstate(self, process: "Process") -> ProcessKernelState:
        state = self._pstate.get(process.pid)
        if state is None:
            state = ProcessKernelState()
            self._pstate[process.pid] = state
            self._track(process)
        return state

    def _track(self, process: "Process") -> None:
        """Register a process for SDW revocation, am.* aggregation and
        page control's cam broadcast."""
        if process.pid not in self._procs:
            self._procs[process.pid] = process
            process.dseg.am.capacity = self.config.am_entries
            self.am_totals.bind(process.dseg.am)
            self.page_control.am_broadcast.join(process.dseg.am)
            self.meters.track(process)

    def drop_pstate(self, process: "Process") -> None:
        self._pstate.pop(process.pid, None)
        # Freeze the process's cycle accounting into its metering
        # bucket before the object goes away.
        self.meters.fold(process)
        tracked = self._procs.pop(process.pid, None)
        if tracked is not None:
            # Address-space teardown: fire cam so nothing cached for
            # this descriptor segment can ever be honoured again.  The
            # AM's counts, that cam included, stay in the totals.
            am = tracked.dseg.am
            am.cam()
            self.am_totals.unbind(am)

    def revoke_branch_access(self, branch) -> int:
        """Propagate an ACL or brackets change to every live SDW of the
        branch's segment (the Multics ``setfaults`` sweep over the AST
        trailer).

        Hardware enforces whatever the SDW says, so a revocation that
        stopped at the ACL would leave processes that initiated the
        segment earlier running on the old rights.  Each affected SDW
        is rewritten to the monitor's current verdict and its cached
        translations are cammed; returns the number of SDWs updated.
        """
        touched = 0
        for process in self._procs.values():
            for sdw in process.dseg:
                if sdw.uid != branch.uid:
                    continue
                if process.principal is not None:
                    sdw.access = self.monitor.sdw_mode(
                        process.principal, branch
                    )
                sdw.brackets = branch.brackets
                process.dseg.invalidate(sdw.segno)
                touched += 1
                break
        # The setfaults sweep is itself a security event: record what
        # was revoked and how far it reached.
        self.audit.log(
            self.sim.clock.now,
            str(KERNEL_PRINCIPAL),
            branch.name,
            "revoke",
            "granted",
            f"access recomputed on {touched} live SDWs (uid {branch.uid})",
            category="revocation",
        )
        return touched

    # -- hardware-mediated data access ---------------------------------------
    #
    # These helpers model ordinary loads/stores by the process: every
    # word goes through the hardware translation (ring + mode + bounds
    # checks against the process's own SDW), with missing pages serviced
    # synchronously.  Kernel code uses them to read user-supplied
    # buffers *with the caller's access rights*, never its own.

    def read_word(self, process: "Process", segno: int, offset: int) -> int:
        self._track(process)
        am = process.dseg.am if self.config.am_enabled else None
        while True:
            try:
                frame, woff = translate(
                    process.dseg, segno, offset, process.ring,
                    Intent.READ, self.config.page_size, am=am,
                )
                break
            except MissingPageFault as fault:
                uid = process.dseg.get(segno).uid
                self.page_control.service_sync(self.ast.get(uid), fault.pageno)
        return self._read_core_retrying(frame, woff)

    def _read_core_retrying(self, frame: int, woff: int) -> int:
        """One core read with bounded retry on injected parity errors.

        Exhausting the retry budget surfaces :class:`DeviceError` —
        denial of use for the caller, never silent wrong data.
        """
        value, _ = retry_call(
            lambda: self.hierarchy.core.read(frame, woff),
            self.retry_policy,
            self.injector,
            "kernel.read_word",
            tracer=self.tracer,
        )
        return value

    def read_segment_words(
        self, process: "Process", segno: int, count: int | None = None
    ) -> list[int]:
        sdw = process.dseg.get(segno)
        n = sdw.bound if count is None else min(count, sdw.bound)
        return [self.read_word(process, segno, off) for off in range(n)]

    def write_segment_words(
        self, process: "Process", segno: int, words: list[int], offset: int = 0
    ) -> None:
        self._track(process)
        dseg, ring, page_size = process.dseg, process.ring, self.config.page_size
        am = dseg.am if self.config.am_enabled else None
        core_write = self.hierarchy.core.write
        for off, word in enumerate(words, start=offset):
            while True:
                try:
                    frame, woff = translate(dseg, segno, off, ring,
                                            Intent.WRITE, page_size, am=am)
                    break
                except MissingPageFault as fault:
                    uid = dseg.get(segno).uid
                    self.page_control.service_sync(self.ast.get(uid),
                                                   fault.pageno)
            core_write(frame, woff, word)

    # -- shared lookup helpers (used by many gate handlers) -------------------

    def directory_by_segno(self, process: "Process", dir_segno: int):
        """Map a caller-supplied segment number to a directory object.

        The caller must already have the directory initiated; the kernel
        trusts only its own KST, never a user-supplied UID.
        """
        state = self._pstate.get(process.pid) or self.pstate(process)
        uid = state.kst.uid_of(dir_segno)
        return self.tree.directory(uid)

    def branch_by_segno(self, process: "Process", segno: int) -> Branch:
        """Find the branch a known segment number was initiated from."""
        state = self.pstate(process)
        uid = state.kst.uid_of(segno)
        for directory in self.tree.directories():
            for branch in directory.list_branches():
                if branch.uid == uid:
                    return branch
        raise NoSuchEntry(f"no branch for segment number {segno}")


def build_services(config: SystemConfig | None = None) -> KernelServices:
    """Construct the substrate for a fresh system."""
    return KernelServices(config or SystemConfig())
