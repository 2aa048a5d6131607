"""The reference monitor: one checkpoint for every access decision.

Collecting all protection decisions in one auditable object is the
security-kernel idea in miniature: the match between the security model
(ACLs + the MITRE lattice) and the enforcement mechanism is established
*here*, and nowhere else, so a certifier audits this module instead of
the whole supervisor.

Decision rule for a subject (principal with clearance) requesting a
mode on a branch (ACL + label):

1. discretionary: the branch ACL's most-specific entry for the
   principal must include every requested mode bit;
2. mandatory, simple security: R or E requires
   ``subject.clearance dominates branch.label``;
3. mandatory, *-property: W requires
   ``branch.label dominates subject.clearance``.

:meth:`ReferenceMonitor.sdw_mode` computes the *largest safe* mode for
building an SDW, so the hardware continues to enforce the decision on
every subsequent reference without re-entering the kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AccessDenied
from repro.hw.segmentation import AccessMode
from repro.security.audit import AuditLog
from repro.security.mac import may_read, may_write
from repro.security.principal import Principal

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle with repro.fs
    from repro.fs.directory import Branch


#: What simple security and the *-property strip from a mode.
_NOT_READ = ~(AccessMode.R | AccessMode.E)
_NOT_WRITE = ~AccessMode.W


class ReferenceMonitor:
    """Combines ACL and MAC checks; logs every decision."""

    def __init__(self, audit: AuditLog | None = None) -> None:
        # Explicit None check: an *empty* AuditLog is falsy (it has
        # __len__), and ``audit or AuditLog()`` would silently replace
        # a caller's log — losing every decision logged through it.
        self.audit = audit if audit is not None else AuditLog()
        self.checks = 0
        self.denials = 0

    # -- core decision ------------------------------------------------------

    def permitted_modes(self, principal: Principal, branch: "Branch") -> AccessMode:
        """The largest mode ``principal`` may hold on ``branch``."""
        mode = branch.acl.effective_mode(principal)
        clearance, label = principal.clearance, branch.label
        if not clearance.dominates(label):  # may_read: simple security
            mode &= _NOT_READ
        if not label.dominates(clearance):  # may_write: *-property
            mode &= _NOT_WRITE
        return mode

    def sdw_mode(self, principal: Principal, branch: "Branch") -> AccessMode:
        """Alias of :meth:`permitted_modes`, named for its use when the
        kernel constructs an SDW."""
        return self.permitted_modes(principal, branch)

    def check(
        self,
        principal: Principal,
        branch: "Branch",
        requested: AccessMode,
        time: int = 0,
        ring: int | None = None,
    ) -> None:
        """Raise :class:`AccessDenied` unless every requested bit is
        permitted; audit either way (with the deciding mechanism —
        ``acl`` or ``mac`` — as the record's category)."""
        self.checks += 1
        permitted = self.permitted_modes(principal, branch)
        missing = requested & ~permitted
        if missing:
            self.denials += 1
            reason, category = self._explain(principal, branch, requested)
            self.audit.log(
                time,
                str(principal),
                branch.name,
                requested.to_string(),
                "denied",
                reason,
                ring=ring,
                category=category,
            )
            raise AccessDenied(
                f"{principal} denied {requested.to_string()!r} on "
                f"{branch.name!r}: {reason}"
            )
        self.audit.log(time, str(principal), branch.name,
                       requested.to_string(), "granted", "", ring, "acl")

    def _explain(
        self, principal: Principal, branch: "Branch", requested: AccessMode
    ) -> tuple[str, str]:
        """(human reason, audit category) for a denial."""
        acl_mode = branch.acl.effective_mode(principal)
        if requested & ~acl_mode:
            return f"acl grants only {acl_mode.to_string()!r}", "acl"
        if requested & (AccessMode.R | AccessMode.E) and not may_read(
            principal.clearance, branch.label
        ):
            return (
                f"simple security: clearance {principal.clearance} does "
                f"not dominate label {branch.label}"
            ), "mac"
        if requested & AccessMode.W and not may_write(
            principal.clearance, branch.label
        ):
            return (
                f"*-property: label {branch.label} does not dominate "
                f"clearance {principal.clearance}"
            ), "mac"
        return "denied", ""  # pragma: no cover - all causes enumerated

    # -- convenience predicates ----------------------------------------------

    def may(self, principal: Principal, branch: "Branch", requested: AccessMode) -> bool:
        try:
            self.check(principal, branch, requested)
        except AccessDenied:
            return False
        return True
