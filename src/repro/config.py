"""System-wide configuration for the simulated Multics.

A single :class:`SystemConfig` travels from the top-level facade down to
every substrate so the benches can flip one knob at a time: 645-style
software rings vs 6180 hardware rings, sequential vs dedicated-process
page control, circular vs VM-backed network buffers, bootstrap vs
memory-image initialization, legacy supervisor vs security kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan


class RingMode(enum.Enum):
    """Which machine the rings run on.

    The Honeywell 645 simulated rings in software: every cross-ring call
    trapped to the supervisor and cost far more than an in-ring call.  The
    6180 implements rings in hardware, making cross-ring calls cost the
    same as in-ring calls — the paper's precondition for moving functions
    out of the supervisor.
    """

    SOFTWARE_645 = "645"
    HARDWARE_6180 = "6180"


class SupervisorKind(enum.Enum):
    """Which supervisor the system boots."""

    LEGACY = "legacy"          #: the "before" supervisor, everything in ring 0
    SECURITY_KERNEL = "kernel"  #: the minimized "after" kernel


class PageControlKind(enum.Enum):
    """Which page-control design services missing-page faults."""

    SEQUENTIAL = "sequential"  #: cascade executed in the faulting process
    PARALLEL = "parallel"      #: dedicated core-freer / bulk-freer processes


class BufferKind(enum.Enum):
    """Network input buffering strategy."""

    CIRCULAR = "circular"      #: fixed-size ring buffer, reused in place
    INFINITE = "infinite"      #: VM-backed buffer that appears unbounded


class InitKind(enum.Enum):
    """System initialization strategy."""

    BOOTSTRAP = "bootstrap"    #: system bootstraps itself inside the kernel
    IMAGE = "image"            #: pre-built memory image generated in user env


class InterruptKind(enum.Enum):
    """How device interrupts are handled."""

    IN_PROCESS = "in_process"  #: handler inhabits whatever process is running
    DEDICATED = "dedicated"    #: interceptor wakes a dedicated handler process


#: Number of protection rings on the 6180 (0 = most privileged).
NUM_RINGS = 8

#: Ring in which the security kernel executes.
KERNEL_RING = 0

#: Ring in which trusted system software executes in the legacy supervisor.
SUPERVISOR_RING = 1

#: Default ring for ordinary user computations.
USER_RING = 4


@dataclass
class CostModel:
    """Cycle costs charged by the simulated hardware.

    Values are in arbitrary "cycles" of the simulated clock.  Relative
    magnitudes follow the paper's narrative: on the 645 a cross-ring call
    was "quite expensive" relative to an ordinary call; on the 6180 the
    two cost the same.
    """

    instruction: int = 1
    call_in_ring: int = 8
    #: Extra cost of a cross-ring call on the 645 (software ring simulation
    #: trapped into the supervisor, validated the gate, and swapped
    #: descriptor segments by hand).
    cross_ring_penalty_645: int = 400
    #: Extra cost of a cross-ring call on the 6180 (hardware ring checking).
    cross_ring_penalty_6180: int = 0
    #: Primary memory (core) access.
    core_access: int = 1
    #: Full address-translation walk: fetch the SDW from the descriptor
    #: segment, evaluate access and brackets, fetch the PTW.
    translate_walk: int = 3
    #: Translation resolved by the associative memory (one associative
    #: search; on the 6180 this was effectively free relative to the
    #: walk, and that ratio is what makes checking every reference
    #: affordable).
    am_hit: int = 1
    #: Transfer of one page between core and the bulk store.
    bulk_transfer: int = 200
    #: Transfer of one page between core and disk.
    disk_transfer: int = 2000
    #: Cost of delivering an interrupt to an in-process handler (ad hoc
    #: environment save, mask manipulation).
    interrupt_in_process: int = 60
    #: Cost of converting an interrupt into a wakeup of a dedicated process.
    interrupt_to_wakeup: int = 10
    #: Cost of dispatching a job onto a CPU of the SMP complex (connect
    #: and re-load of the processor state).  Zero by default so a
    #: one-CPU complex reproduces the uniprocessor clock exactly
    #: (bench E17's identity leg).
    smp_dispatch: int = 0


@dataclass
class SystemConfig:
    """Everything needed to construct a :class:`repro.system.MulticsSystem`."""

    ring_mode: RingMode = RingMode.HARDWARE_6180
    supervisor: SupervisorKind = SupervisorKind.SECURITY_KERNEL
    page_control: PageControlKind = PageControlKind.PARALLEL
    buffers: BufferKind = BufferKind.INFINITE
    init: InitKind = InitKind.IMAGE
    interrupts: InterruptKind = InterruptKind.DEDICATED

    #: Words per page (Multics used 1024 36-bit words).
    page_size: int = 64
    #: Page frames of primary (core) memory.
    core_frames: int = 32
    #: Page frames of bulk store (drum / paging device).
    bulk_frames: int = 128
    #: Page records of disk.
    disk_frames: int = 4096
    #: Physical processors: the traffic controller's processor slots
    #: and, by default, the CPUs of the SMP execution complex
    #: (repro.hw.smp).
    n_processors: int = 2
    #: Fixed number of level-1 virtual processors (paper: "a larger fixed
    #: number of virtual processors").  Must leave room for the
    #: permanently dedicated kernel processes (two page-control freers
    #: and one handler per interrupt line) plus a pool for users.
    n_virtual_processors: int = 16
    #: Scheduler quantum, in cycles.
    quantum: int = 2000
    #: Low-water mark of free core frames maintained by the core freer.
    free_core_target: int = 4
    #: Whether freed frames are cleared before reuse.  Turning this off
    #: reintroduces the classic "residue" security flaw, used by the
    #: penetration benches.
    clear_freed_frames: bool = True

    #: Whether references consult an associative memory (the 6180
    #: SDW/PTW AM, repro.hw.assoc): the process's own on the session
    #: CPU, each CPU's own in the SMP complex.  Off re-walks the full
    #: check chain on every reference (and the interpreter single-steps
    #: every instruction); architectural results (faults, values,
    #: denials) are identical either way — only cost changes.
    am_enabled: bool = True
    #: Entries per associative memory (bounded, round-robin
    #: replacement).
    am_entries: int = 64

    #: Optional deterministic fault-injection plan (repro.faults.plan).
    #: None means the hardware never fails — the seed behaviour.
    fault_plan: "FaultPlan | None" = None
    #: Optional network topology spec (repro.io.topology.validate_spec
    #: describes the shape).  None builds the default single-uplink
    #: topology around the network attachment.
    topology: dict | None = None
    #: Injected-fault count at which a page frame is retired from
    #: service when next freed (graceful degradation).
    frame_retire_threshold: int = 3

    #: Enable the observability tracer (repro.obs.tracer).  Off by
    #: default: a disabled tracer costs one flag check per emitting
    #: site and zero simulated cycles.
    tracing: bool = False
    #: Enable per-process/per-gate cycle attribution (repro.obs.meters).
    #: On by default; metering never charges simulated cycles either
    #: way (bench E16 asserts the identity).
    metering: bool = True
    #: Security-audit level (repro.security.audit): "all" records
    #: every reference-monitor decision, "deny" only refusals and
    #: errors, "off" nothing.
    audit_level: str = "all"
    #: Ring-buffer capacity of the security audit, in records.
    audit_capacity: int = 4096
    #: Optional interval timeline sampler + SLO health monitor
    #: (repro.obs.timeline.validate_timeline_config describes the
    #: shape: interval, capacity, rules).  None — the default — builds
    #: neither; like the tracer, sampling costs zero simulated cycles
    #: when enabled (bench E20 asserts the identity).
    timeline: dict | None = None

    costs: CostModel = field(default_factory=CostModel)

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical configurations."""
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.core_frames <= 2:
            raise ValueError("need at least 3 core frames")
        if self.bulk_frames < self.core_frames:
            raise ValueError("bulk store smaller than core is not supported")
        if self.disk_frames < self.bulk_frames:
            raise ValueError("disk smaller than bulk store is not supported")
        if self.n_processors < 1:
            raise ValueError("need at least one processor")
        if self.n_virtual_processors < self.n_processors:
            raise ValueError("need at least one virtual processor per CPU")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if self.frame_retire_threshold <= 0:
            raise ValueError("frame_retire_threshold must be positive")
        if self.am_entries <= 0:
            raise ValueError("am_entries must be positive (use am_enabled "
                             "to turn the associative memory off)")
        from repro.security.audit import LEVELS

        if self.audit_level not in LEVELS:
            raise ValueError(f"audit_level must be one of {LEVELS}")
        if self.audit_capacity <= 0:
            raise ValueError("audit_capacity must be positive")
        if self.topology is not None:
            from repro.io.topology import validate_spec

            validate_spec(self.topology)
        if self.timeline is not None:
            from repro.obs.timeline import validate_timeline_config

            validate_timeline_config(self.timeline)
