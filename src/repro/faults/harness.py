"""The crash-recovery and containment harness.

This module drives the fault plane end to end: run a deterministic
workload under a fault plan, kill the system mid-flight, vandalize the
hierarchy the way a crash-torn store would, reboot *the same kernel
services* (same backing storage, same audit log), let the salvager
repair the tree, and then check the paper's containment claim —
injected failures may change *performance* and may deny use, but no
ACL or MAC decision ever flips from denied to granted.

Everything here is deterministic given the fault-plan seed: the
workload issues gate calls synchronously, damage selection uses its own
seeded RNG, and injection decisions are pure functions of per-site
operation counts.  Two runs with the same seed produce identical audit
logs — which is itself one of the assertions the tests make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.config import InitKind, InterruptKind, SystemConfig
from repro.errors import (
    AccessDenied,
    DeviceError,
    KernelDenial,
    ReproError,
)
from repro.faults.salvager import MAGIC_CLEAN, SalvageReport, read_marker
from repro.security.audit import AuditLog
from repro.system import MulticsSystem

#: Audit outcomes that are *security decisions* (the containment
#: comparison); fault-plane outcomes (injected/recovered/degraded/
#: fatal/salvaged) are deliberately excluded.
DECISION_OUTCOMES = ("granted", "denied")


def harness_config(**overrides) -> SystemConfig:
    """A small configuration suited to crash-recovery runs.

    Bootstrap initialization (the image builder would inject faults
    into its scratch system too) and in-process interrupts (dedicated
    handler processes would be duplicated by a reboot's re-register).
    """
    defaults = dict(
        page_size=16,
        core_frames=8,
        bulk_frames=32,
        disk_frames=256,
        n_processors=1,
        n_virtual_processors=4,
        quantum=500,
        init=InitKind.BOOTSTRAP,
        interrupts=InterruptKind.IN_PROCESS,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def security_decisions(audit: AuditLog) -> list[tuple[str, str, str, str]]:
    """The (principal, object, action, decision) of every access decision.

    Times are excluded on purpose: recovery backoff legitimately shifts
    the clock, and the containment claim is about *decisions*, not
    timing.
    """
    return [
        (r.principal, r.object, r.action, r.decision)
        for r in audit.records()
        if r.decision in DECISION_OUTCOMES
    ]


def hierarchy_violations(services) -> list[str]:
    """Consistency check over the naming hierarchy and kernel tables.

    Returns human-readable violations; the list must be empty after a
    salvage (that is the salvager's postcondition).
    """
    violations: list[str] = []
    seen: set[int] = {services.tree.root.uid}
    stack = [services.tree.root]
    while stack:
        directory = stack.pop()
        for branch in directory.list_branches():
            if not services.ufs.exists(branch.uid):
                violations.append(
                    f"branch {branch.name!r} in dir {directory.uid} "
                    f"dangles (uid {branch.uid})"
                )
                continue
            if not branch.label.dominates(directory.label):
                violations.append(
                    f"branch {branch.name!r} violates MAC non-decrease "
                    f"in dir {directory.uid}"
                )
            if branch.is_directory:
                if not services.tree.is_directory_uid(branch.uid):
                    violations.append(
                        f"directory branch {branch.name!r} has no "
                        f"directory object (uid {branch.uid})"
                    )
                    continue
                child = services.tree.directory(branch.uid)
                if child.label != branch.label:
                    violations.append(
                        f"directory {branch.uid} label {child.label} "
                        f"disagrees with branch {branch.name!r} label "
                        f"{branch.label}"
                    )
                if branch.uid not in seen:
                    seen.add(branch.uid)
                    stack.append(child)
    for aseg in services.ast.segments():
        if not services.ufs.exists(aseg.uid):
            violations.append(f"active segment {aseg.uid} has no layer-1 record")
    for pid, state in services._pstate.items():
        for entry in state.kst.entries():
            if not services.ufs.exists(entry.uid):
                violations.append(
                    f"kst of pid {pid} maps segno {entry.segno} to "
                    f"dead uid {entry.uid}"
                )
    return violations


# ---------------------------------------------------------------------------
# the deterministic workload
# ---------------------------------------------------------------------------

@dataclass
class WorkloadResult:
    """What one workload pass observed."""

    operations: int = 0
    #: Operations that ended in denial of use (retries exhausted etc.).
    denied_use: int = 0
    #: Security denials the probes *expect* (Eve poking Alice's data).
    expected_denials: int = 0
    notes: list[str] = field(default_factory=list)


def standard_workload(system: MulticsSystem, tag: str = "w") -> WorkloadResult:
    """A fixed sequence of gate calls with built-in denial probes.

    ``tag`` uniquifies entry names so the workload can run again after
    a reboot against the same surviving hierarchy.  Injected faults may
    turn any operation into denial of use (:class:`DeviceError`); the
    workload absorbs that and keeps going — the system must degrade,
    not die.
    """
    result = WorkloadResult()

    def op(thunk, note: str):
        result.operations += 1
        try:
            return thunk()
        except DeviceError as exc:
            result.denied_use += 1
            result.notes.append(f"{note}: denial of use ({exc})")
            return None

    alice = op(lambda: system.login("Alice", "Crypto", "alice-pw"), "login")
    if alice is None:
        return result
    op(lambda: alice.create_dir(f"proj_{tag}"), "mkdir")
    segno = op(
        lambda: alice.create_segment(f"proj_{tag}>data", n_pages=2), "create"
    )
    if segno is not None:
        op(lambda: alice.write_words(segno, [3, 1, 4, 1, 5, 9, 2, 6]), "write")
        op(lambda: alice.read_words(segno, 8), "read")
    op(lambda: alice.create_segment(f"private_{tag}"), "create-private")

    # Paging pressure: a segment bigger than core forces evictions, so
    # page transfers (and their injection sites) see real traffic.
    big = op(
        lambda: alice.create_segment(f"big_{tag}", n_pages=6), "create-big"
    )
    if big is not None:
        page = system.config.page_size
        for pageno in range(6):
            op(
                lambda p=pageno: alice.write_words(
                    big, [p * 11 + 1], offset=p * page
                ),
                f"write-big-p{pageno}",
            )
        for pageno in range(6):
            op(
                lambda p=pageno: alice.read_words(big, 1, offset=p * page),
                f"read-big-p{pageno}",
            )

    # Device traffic: the terminal's completion interrupts cross the
    # recovery machine (retries, watchdogs, degradation).
    tty = system.services.devices["tty1"]
    pid = alice.process.pid

    def tty_io():
        tty.attach(pid)
        for k in range(3):
            tty.write_line(pid, f"line {tag} {k}")
        tty.detach(pid)

    op(tty_io, "tty")

    # Network traffic: the single external-I/O path, with drop and
    # duplicate injection sites.
    net = system.services.network
    for k in range(3):
        op(lambda k=k: net.deliver("remote", f"msg {tag} {k}"), "net-deliver")
    system.run()  # quiesce: completions, watchdogs, retries all land
    while True:
        message = net.receive()
        if message is None:
            break
        result.notes.append(f"net:{message.body}")
        result.operations += 1

    # The probes: Eve holds no ACL entry on Alice's data.  Every one of
    # these must produce a *denied* decision, faults or no faults.
    eve = op(lambda: system.login("Eve", "Spies", "eve-pw"), "login-eve")
    if eve is not None:
        for path in (
            f">udd>Crypto>Alice>proj_{tag}>data",
            f">udd>Crypto>Alice>private_{tag}",
        ):
            result.operations += 1
            try:
                eve.initiate(path)
                result.notes.append(f"probe {path}: UNEXPECTEDLY GRANTED")
            except (AccessDenied, KernelDenial):
                result.expected_denials += 1
            except DeviceError as exc:
                result.denied_use += 1
                result.notes.append(f"probe {path}: denial of use ({exc})")
            except ReproError as exc:
                # e.g. the entry never got created because its create
                # was denied use; still not a leak.
                result.notes.append(f"probe {path}: {type(exc).__name__}")
        op(lambda: eve.logout(), "logout-eve")
    return result


# ---------------------------------------------------------------------------
# crash, vandalism, recovery
# ---------------------------------------------------------------------------

def crash(system: MulticsSystem) -> int:
    """Kill the system where it stands; returns dropped event count.

    In-flight device completions and scheduled wakeups vanish with the
    event queue; device attachments are lost; per-process kernel state
    evaporates (those processes are gone).  The memory hierarchy, file
    system, directory tree, and audit log — the backing store — remain,
    exactly as a real crash leaves them.
    """
    services = system.services
    dropped = services.sim.clear_pending()
    for device in services.devices.values():
        device.power_fail()
    services._pstate.clear()
    services.created_processes.clear()
    services.process_creators.clear()
    system._booted = False
    return dropped


#: Damage kinds ``vandalize`` understands; ``orphan`` goes last so the
#: other kinds still find candidates before a subtree is stranded.
DAMAGE_KINDS = ("dangling", "label", "orphan")


def vandalize(services, seed: int = 0, kinds=DAMAGE_KINDS) -> list[str]:
    """Inflict deterministic crash-style damage on the hierarchy.

    * ``dangling`` — a branch's layer-1 record disappears (torn create);
    * ``orphan``   — a directory's parent branch is lost, stranding the
      subtree (torn rename/delete);
    * ``label``    — a directory's label is raised above a child's,
      breaking MAC non-decrease (torn metadata write).

    Damage bypasses the gates on purpose: it models storage corruption,
    not API misuse.  Selection is driven by ``seed`` alone.
    """
    rng = random.Random(f"vandal|{seed}")
    done: list[str] = []
    root = services.tree.root

    def all_branches():
        out = []
        stack = [root]
        visited = {root.uid}
        while stack:
            directory = stack.pop()
            for branch in directory.list_branches():
                out.append((directory, branch))
                if (
                    branch.is_directory
                    and services.tree.is_directory_uid(branch.uid)
                    and branch.uid not in visited
                ):
                    visited.add(branch.uid)
                    stack.append(services.tree.directory(branch.uid))
        return sorted(out, key=lambda pair: (pair[0].uid, pair[1].name))

    for kind in kinds:
        pairs = all_branches()
        if kind == "dangling":
            candidates = [
                (d, b) for d, b in pairs
                if not b.is_directory and b.name != "salvager_data"
            ]
            if not candidates:
                continue
            directory, branch = rng.choice(candidates)
            services.ufs._records.pop(branch.uid, None)
            done.append(f"dangling:{branch.name}")
        elif kind == "orphan":
            candidates = [
                (d, b) for d, b in pairs
                if b.is_directory and services.tree.is_directory_uid(b.uid)
                and len(services.tree.directory(b.uid))
            ]
            if not candidates:
                continue
            directory, branch = rng.choice(candidates)
            directory.remove(branch.name)
            done.append(f"orphan:{branch.name}")
        elif kind == "label":
            candidates = [
                (d, b) for d, b in pairs
                if not b.is_directory and b.name != "salvager_data"
            ]
            if not candidates:
                continue
            directory, branch = rng.choice(candidates)
            from repro.security.mac import SecurityLabel

            directory.label = SecurityLabel(
                level=branch.label.level + 1,
                categories=branch.label.categories,
            )
            done.append(f"label:{branch.name}")
        else:
            raise ValueError(f"unknown damage kind {kind!r}")
    return done


@dataclass
class CrashRecoveryResult:
    """Everything a crash-recovery run observed."""

    damage: list[str]
    dropped_events: int
    salvage_report: SalvageReport
    violations_after: list[str]
    pre_crash: WorkloadResult
    post_boot: WorkloadResult
    decisions: list[tuple[str, str, str, str]]
    clean_marker: bool

    @property
    def unauthorized(self) -> list[str]:
        """Probe notes that indicate a containment breach (must be [])."""
        return [
            note
            for wl in (self.pre_crash, self.post_boot)
            for note in wl.notes
            if "UNEXPECTEDLY GRANTED" in note
        ]


def run_crash_recovery(
    config: SystemConfig | None = None,
    seed: int = 0,
    kinds=DAMAGE_KINDS,
) -> CrashRecoveryResult:
    """The whole story: workload, crash, vandalism, reboot, salvage,
    workload again, clean shutdown."""
    cfg = config or harness_config()
    system = MulticsSystem(cfg).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    system.register_user("Eve", "Spies", "eve-pw")
    pre = standard_workload(system, tag="pre")

    dropped = crash(system)
    damage = vandalize(system.services, seed=seed, kinds=kinds)

    rebooted = MulticsSystem(services=system.services).boot()
    report = rebooted.salvage_report
    assert report is not None, "unclean marker must trigger the salvager"
    violations = hierarchy_violations(rebooted.services)

    post = standard_workload(rebooted, tag="post")
    rebooted.shutdown()
    return CrashRecoveryResult(
        damage=damage,
        dropped_events=dropped,
        salvage_report=report,
        violations_after=violations,
        pre_crash=pre,
        post_boot=post,
        decisions=security_decisions(rebooted.services.audit),
        clean_marker=read_marker(rebooted.services) == MAGIC_CLEAN,
    )
