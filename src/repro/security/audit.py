"""The security audit: every security-relevant kernel decision, bounded.

Every reference-monitor decision and every gate invocation passes
through :meth:`AuditLog.log` — the monitor's ACL/MAC checks, the gate
table's ring/argument/handler refusals, the io-gate *-property check,
``revoke_branch_access`` sweeps, and the fault plane's injections.  The
penetration experiments use the log to demonstrate that no attack
produced a ``granted`` record it should not have.

The log is a ring buffer of decisions, each carrying a sequence
number, the principal, the object, the ring the request came from, a
category naming the mechanism that decided (``acl``, ``mac``, ``ring``,
``gate``, ``args``, ``revocation``), the decision, and the simulated
timestamp.  The ring holds each decision as a plain tuple in
:class:`AuditRecord` field order, and the readers build the frozen
records (or, for the export, their dicts) on read: most records of a
long run are evicted unread, and logging is on every gate's path.

Levels: ``all`` records every decision, ``deny`` only refusals and
errors, ``off`` nothing.  At any level except ``off`` the completeness
guarantee holds: **every deny raised anywhere appears in the log**
(until capacity forces the oldest out — ``dropped`` counts those, so a
consumer can tell a complete log from a truncated one).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, fields

#: Recognized audit levels, least to most verbose.
LEVELS = ("off", "deny", "all")


@dataclass(frozen=True)
class AuditRecord:
    """One security-relevant decision, as exported."""

    seq: int            #: monotonic sequence number (detects truncation)
    time: int           #: simulated clock at the decision
    principal: str      #: who asked
    object: str         #: what was referenced (path, uid, gate name)
    action: str         #: requested access or invoked operation
    ring: int | None    #: ring the request was made from (None = n/a)
    category: str       #: deciding mechanism: acl|mac|ring|gate|args|...
    decision: str       #: "granted" | "denied" | "error"
    detail: str = ""


#: ``AuditRecord``'s field names, in the order the ring's tuples hold
#: them.
_FIELDS = tuple(f.name for f in fields(AuditRecord))
_DECISION = _FIELDS.index("decision")


class AuditLog:
    """Bounded ring buffer of security decisions."""

    def __init__(self, capacity: int = 4096, level: str = "all") -> None:
        if level not in LEVELS:
            raise ValueError(f"audit level must be one of {LEVELS}, "
                             f"got {level!r}")
        if capacity <= 0:
            raise ValueError("audit capacity must be positive")
        self.capacity = capacity
        self.level = level
        #: Accepted decisions, as ``AuditRecord`` field tuples.
        self._records: deque[tuple] = deque(maxlen=capacity)
        #: Decisions offered to the log (before level filtering).
        self.seen = 0
        #: Records evicted by the capacity bound after being accepted.
        self.dropped = 0
        #: Denies/errors accepted (the completeness-check numerator).
        self.denials = 0
        #: Sequence number of the latest accepted record (0: none yet).
        self.seq = 0

    def log(
        self,
        time: int,
        principal: str,
        obj: str,
        action: str,
        decision: str,
        detail: str = "",
        ring: int | None = None,
        category: str = "",
    ) -> None:
        """Offer one decision to the log (level-filtered, bounded)."""
        self.seen += 1
        if self.level == "off":
            return
        if self.level == "deny" and decision == "granted":
            return
        if len(self._records) == self.capacity:
            self.dropped += 1
        self.seq += 1
        if decision != "granted":
            self.denials += 1
        self._records.append((
            self.seq, time, principal, obj, action, ring, category,
            decision, detail,
        ))

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[AuditRecord]:
        return [AuditRecord(*r) for r in self._records]

    def denied(self) -> list[AuditRecord]:
        return [AuditRecord(*r) for r in self._records
                if r[_DECISION] != "granted"]

    # -- export ----------------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        """The whole log as one self-describing JSON document."""
        return json.dumps(
            {
                "schema": "repro.audit/v1",
                "level": self.level,
                "capacity": self.capacity,
                "seen": self.seen,
                "dropped": self.dropped,
                "denials": self.denials,
                "records": [dict(zip(_FIELDS, r)) for r in self._records],
            },
            indent=indent,
        )

    # -- registry wiring -------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Expose the log under ``audit.*`` in the shared registry."""
        registry.counter("audit.seen", "decisions offered to the trail",
                         source=lambda: self.seen)
        registry.counter("audit.denials", "denies/errors recorded",
                         source=lambda: self.denials)
        registry.counter("audit.dropped",
                         "accepted records evicted by the capacity bound",
                         source=lambda: self.dropped)
        registry.gauge("audit.depth", "records held now",
                       source=lambda: len(self._records))
