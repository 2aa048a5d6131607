"""The hierarchy salvager and the clean-shutdown marker.

Multics ran a *salvager* after any unclean shutdown: a privileged
sweep that walked the directory hierarchy, reconciled the in-core
tables against backing storage, and repaired or quarantined damaged
entries so the system could come up rather than crash on the first
dangling pointer.  The seed planted the hook — the ``salvager_data``
marker segment written at boot — with nothing behind it; this module
is the salvager.

**The marker protocol.**  Word 0 of the ``salvager_data`` segment (a
root entry created by initialization) holds one of:

* ``0`` — fresh storage, first boot, nothing to salvage;
* :data:`MAGIC_RUNNING` — written when boot completes; still being
  there at the *next* boot means the system died without a clean
  shutdown, so the salvager must run;
* :data:`MAGIC_CLEAN` — written by an orderly shutdown; salvage skipped.

**What salvage does** (each action is audited with outcome
``salvaged``):

1. reclaims core: pages resident at the crash are given disk homes and
   evicted (their frames were volatile; the copies here stand in for
   the crash image), so boot sees a sane memory hierarchy;
2. walks the directory tree from the root, quarantining branches whose
   UID no longer exists in the layer-1 store (dangling), directory
   branches whose directory object is gone, and branches whose label
   fails MAC non-decrease (crash-torn metadata) — damaged-but-present
   entries move to ``>salvager_quarantine`` instead of being lost;
3. re-attaches orphan directories (registered but unreachable from the
   root) under the quarantine directory — the classic lost+found;
4. reconciles the active segment table: active UIDs with no layer-1
   record are flushed and dropped;
5. purges per-process KST entries that map segment numbers to deleted
   UIDs (the crashed processes are gone; their tables must not leak
   stale mappings into reused PIDs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SalvageNeeded
from repro.fs.acl import Acl
from repro.fs.directory import Branch, Directory
from repro.security.mac import BOTTOM
from repro.security.principal import KERNEL_PRINCIPAL
from repro.vm.segment_control import PageHome

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.services import KernelServices

#: Marker value meaning "shut down cleanly; no salvage needed".
MAGIC_CLEAN = 0o52525
#: Marker value meaning "system in operation" (unclean if seen at boot).
MAGIC_RUNNING = 0o31313

#: Name of the marker segment in the root (created by initialization).
MARKER_NAME = "salvager_data"
#: Root directory collecting quarantined and lost entries.
QUARANTINE_NAME = "salvager_quarantine"


# ---------------------------------------------------------------------------
# the marker
# ---------------------------------------------------------------------------

def _marker_slot(services: "KernelServices"):
    """(memory level, frame) holding word 0 of the marker segment."""
    branch = services.tree.root.maybe(MARKER_NAME)
    if branch is None or branch.uid not in services.ast:
        return None
    aseg = services.ast.get(branch.uid)
    if not aseg.ptws:
        return None
    ptw = aseg.ptws[0]
    if ptw.in_core and ptw.frame is not None:
        return services.hierarchy.core, ptw.frame
    home = aseg.homes[0]
    if home is None:
        return None
    return services.hierarchy.level(home.level), home.frame


def read_marker(services: "KernelServices") -> int | None:
    """The marker word, or None when the segment does not exist yet."""
    slot = _marker_slot(services)
    if slot is None:
        return None
    level, frame = slot
    return level.raw_page(frame)[0]


def _write_marker(services: "KernelServices", value: int) -> bool:
    slot = _marker_slot(services)
    if slot is None:
        return False
    level, frame = slot
    level.raw_page(frame, [value] + level.raw_page(frame)[1:])
    return True


def mark_running(services: "KernelServices") -> bool:
    """Boot completed; anything but a clean shutdown now needs salvage."""
    return _write_marker(services, MAGIC_RUNNING)


def mark_clean(services: "KernelServices") -> bool:
    """Orderly shutdown: the salvager may be skipped at the next boot."""
    return _write_marker(services, MAGIC_CLEAN)


# ---------------------------------------------------------------------------
# the salvager
# ---------------------------------------------------------------------------

@dataclass
class SalvageReport:
    """What one salvage pass found and did."""

    directories_checked: int = 0
    branches_checked: int = 0
    #: (entry name, reason) of every entry removed or moved.
    quarantined: list[tuple[str, str]] = field(default_factory=list)
    #: UIDs of orphan directories re-attached under quarantine.
    orphans_reattached: list[int] = field(default_factory=list)
    #: Active-segment UIDs dropped because layer 1 had no record.
    ast_dropped: list[int] = field(default_factory=list)
    core_pages_reclaimed: int = 0
    kst_entries_purged: int = 0
    #: Directory objects whose label was reset from the branch copy.
    labels_repaired: int = 0

    @property
    def damage_found(self) -> int:
        return (
            len(self.quarantined)
            + len(self.orphans_reattached)
            + len(self.ast_dropped)
            + self.kst_entries_purged
            + self.labels_repaired
        )


class HierarchySalvager:
    """Boot-time repair of the storage hierarchy after a crash."""

    def __init__(self, services: "KernelServices") -> None:
        self.services = services

    def needed(self) -> bool:
        """True when the marker shows the last session never shut down."""
        return read_marker(self.services) == MAGIC_RUNNING

    def require_clean(self) -> None:
        """Raise :class:`SalvageNeeded` instead of trusting a dirty tree."""
        if self.needed():
            raise SalvageNeeded(
                "unclean shutdown recorded in salvager_data; run salvage()"
            )

    # -- the pass -------------------------------------------------------

    def salvage(self) -> SalvageReport:
        report = SalvageReport()
        self._audit("hierarchy", "salvage_begin", "unclean shutdown marker")
        self._reclaim_core(report)
        # Quarantine and reattachment feed each other: removing a
        # dangling directory branch orphans its subtree, and a
        # reattached orphan subtree must itself be walked for damage.
        # Each round strictly reduces outstanding damage, so the
        # fixpoint is reached in a bounded number of rounds.
        while True:
            before = len(report.quarantined) + len(report.orphans_reattached)
            self._walk_and_quarantine(report)
            self._reattach_orphans(report)
            after = len(report.quarantined) + len(report.orphans_reattached)
            if after == before:
                break
        self._reconcile_ast(report)
        self._purge_kst(report)
        self._audit(
            "hierarchy",
            "salvage_end",
            f"{report.damage_found} damaged entries handled, "
            f"{report.directories_checked} directories checked",
        )
        return report

    # -- step 1: volatile memory ---------------------------------------

    def _reclaim_core(self, report: SalvageReport) -> None:
        """Give every crash-resident page a disk home and free its frame."""
        services = self.services
        for aseg in services.ast.segments():
            for pageno in aseg.resident_pages():
                ptw = aseg.ptws[pageno]
                disk_frame = services.hierarchy.disk.allocate()
                services.hierarchy.disk.write_page(
                    disk_frame, self._read_frame_insistently(ptw.frame)
                )
                services.hierarchy.core.free(ptw.frame)
                ptw.evict()
                aseg.homes[pageno] = PageHome("disk", disk_frame)
                report.core_pages_reclaimed += 1
        services.page_control.resident.clear()

    def _read_frame_insistently(self, frame: int) -> list[int]:
        """Read one core frame, riding out injected parity errors.

        The salvager cannot give up the way an I/O path can — the page
        must leave volatile core.  Bounded retries first; if they are
        exhausted, fall back to a raw copy of the frame contents (the
        classic salvager move: save what is there, flag it), audited so
        the possibly-damaged page is on the record.
        """
        from repro.errors import DeviceError
        from repro.faults.recovery import retry_call

        services = self.services
        try:
            data, _ = retry_call(
                lambda: services.hierarchy.core.read_page(frame),
                services.retry_policy,
                services.injector,
                "salvager.reclaim",
            )
            return data
        except DeviceError:
            self._audit(
                f"core frame {frame}", "raw_copy",
                "parity persisted through retries; page saved as-is",
            )
            return services.hierarchy.core.raw_page(frame)

    # -- step 2: the tree walk -----------------------------------------

    def _walk_and_quarantine(self, report: SalvageReport) -> None:
        services = self.services
        stack: list[Directory] = [services.tree.root]
        seen: set[int] = {services.tree.root.uid}
        while stack:
            directory = stack.pop()
            report.directories_checked += 1
            for branch in directory.list_branches():
                report.branches_checked += 1
                self._repair_torn_label(branch, report)
                reason = self._damage_reason(directory, branch)
                if reason is not None:
                    self._quarantine(directory, branch, reason, report)
                    continue
                if branch.is_directory and branch.uid not in seen:
                    seen.add(branch.uid)
                    stack.append(services.tree.directory(branch.uid))

    def _repair_torn_label(self, branch: Branch, report: SalvageReport) -> None:
        """Restore a directory object's label from its branch.

        Attributes live in the parent directory's branch (the Multics
        rule); a directory object whose label disagrees with its branch
        is crash-torn metadata, and the branch copy wins.  Without the
        repair every child of the torn directory would fail the MAC
        non-decrease check and be quarantined for someone else's damage.
        """
        services = self.services
        if not branch.is_directory or not services.tree.is_directory_uid(branch.uid):
            return
        directory = services.tree.directory(branch.uid)
        if directory.label == branch.label:
            return
        old = directory.label
        directory.label = branch.label
        report.labels_repaired += 1
        self._audit(
            branch.name, "repair_label",
            f"directory {branch.uid} label {old} reset to branch "
            f"label {branch.label}",
        )

    def _damage_reason(self, directory: Directory, branch: Branch) -> str | None:
        services = self.services
        if not services.ufs.exists(branch.uid):
            return f"dangling uid {branch.uid}"
        if branch.is_directory and not services.tree.is_directory_uid(branch.uid):
            return f"directory object {branch.uid} missing"
        if not branch.label.dominates(directory.label):
            return (
                f"label {branch.label} below directory label "
                f"{directory.label} (MAC non-decrease violated)"
            )
        return None

    def _quarantine(
        self,
        directory: Directory,
        branch: Branch,
        reason: str,
        report: SalvageReport,
    ) -> None:
        directory.remove(branch.name)
        report.quarantined.append((branch.name, reason))
        dangling = not self.services.ufs.exists(branch.uid)
        if not dangling:
            # The object itself survives; park the branch where only
            # the salvager's ACL reaches it, under a fresh name.
            quarantine = self._quarantine_dir()
            parked = Branch(
                name=f"{branch.name}.uid{branch.uid}",
                uid=branch.uid,
                is_directory=branch.is_directory
                and self.services.tree.is_directory_uid(branch.uid),
                acl=Acl.make(("*.SysDaemon.*", "rw")),
                label=branch.label,
                author=str(KERNEL_PRINCIPAL),
                bit_count=branch.bit_count,
            )
            quarantine.add(parked)
        self._audit(branch.name, "quarantine", reason)

    def _quarantine_dir(self) -> Directory:
        services = self.services
        root = services.tree.root
        existing = root.maybe(QUARANTINE_NAME)
        if existing is not None:
            return services.tree.directory(existing.uid)
        uid = services.ufs.create_segment(1, label=BOTTOM, is_directory=True)
        acl = Acl.make(("*.SysDaemon.*", "rw"))
        directory = services.tree.register_directory(
            uid, root, BOTTOM, acl=acl, name=QUARANTINE_NAME
        )
        root.add(
            Branch(
                name=QUARANTINE_NAME, uid=uid, is_directory=True,
                acl=acl, label=BOTTOM, author=str(KERNEL_PRINCIPAL),
            )
        )
        return directory

    # -- step 3: lost+found --------------------------------------------

    def _reattach_orphans(self, report: SalvageReport) -> None:
        """Park unreachable directories under quarantine (lost+found).

        Reachability is recomputed *after* the quarantine pass, so
        branches the walk parked already count as reachable.  Only the
        root of an orphan subtree needs a new branch; its descendants
        become reachable through it.
        """
        services = self.services
        reachable = self._reachable_uids()
        orphans = {
            d.uid for d in services.tree.directories() if d.uid not in reachable
        }
        for directory in services.tree.directories():
            if directory.uid not in orphans or directory.parent_uid in orphans:
                continue
            quarantine = self._quarantine_dir()
            name = f"lost.dir.uid{directory.uid}"
            if name not in quarantine:
                quarantine.add(
                    Branch(
                        name=name, uid=directory.uid, is_directory=True,
                        acl=Acl.make(("*.SysDaemon.*", "rw")),
                        label=directory.label, author=str(KERNEL_PRINCIPAL),
                    )
                )
            directory.parent_uid = quarantine.uid
            report.orphans_reattached.append(directory.uid)
            self._audit(name, "reattach_orphan", f"directory {directory.uid}")

    def _reachable_uids(self) -> set[int]:
        services = self.services
        reachable: set[int] = {services.tree.root.uid}
        stack: list[Directory] = [services.tree.root]
        while stack:
            for branch in stack.pop().list_branches():
                if (
                    branch.is_directory
                    and services.tree.is_directory_uid(branch.uid)
                    and branch.uid not in reachable
                ):
                    reachable.add(branch.uid)
                    stack.append(services.tree.directory(branch.uid))
        return reachable

    # -- step 4: active segment table ----------------------------------

    def _reconcile_ast(self, report: SalvageReport) -> None:
        services = self.services
        for aseg in services.ast.segments():
            if services.ufs.exists(aseg.uid):
                continue
            services.page_control.flush_segment(aseg)
            services.ast.drop(aseg.uid)
            report.ast_dropped.append(aseg.uid)
            self._audit(
                f"uid {aseg.uid}", "drop_active_segment", "no layer-1 record"
            )

    # -- step 5: known segment tables ----------------------------------

    def _purge_kst(self, report: SalvageReport) -> None:
        services = self.services
        for state in services._pstate.values():
            for entry in state.kst.entries():
                if not services.ufs.exists(entry.uid):
                    state.kst.terminate(entry.segno)
                    report.kst_entries_purged += 1
                    self._audit(
                        f"segno {entry.segno}", "purge_kst_entry",
                        f"uid {entry.uid} no longer exists",
                    )

    # -- audit ----------------------------------------------------------

    def _audit(self, obj: str, action: str, detail: str) -> None:
        self.services.audit.log(
            self.services.sim.clock.now,
            "kernel.salvager",
            obj,
            action,
            "salvaged",
            detail,
        )
