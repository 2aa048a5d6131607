"""Access control lists.

Each branch carries an ACL: an ordered set of
``(principal-pattern, mode)`` entries.  The effective mode for a
principal is taken from the *most specific* matching entry — the
Multics rule — not the union of matches, so a specific denial
(``mode=n``) overrides a general grant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.segmentation import AccessMode
from repro.security.principal import Principal, PrincipalPattern


@dataclass(frozen=True)
class AclEntry:
    pattern: PrincipalPattern
    mode: AccessMode

    @classmethod
    def make(cls, pattern: str, mode: str) -> "AclEntry":
        return cls(PrincipalPattern.parse(pattern), AccessMode.from_string(mode))

    def __str__(self) -> str:
        return f"{self.mode.to_string():4s} {self.pattern}"


class Acl:
    """An ordered access control list with most-specific-match lookup."""

    def __init__(self, entries: list[AclEntry] | None = None) -> None:
        self._entries: list[AclEntry] = list(entries or [])

    @classmethod
    def make(cls, *pairs: tuple[str, str]) -> "Acl":
        """Build from ``("Person.Project.tag", "rw")`` pairs."""
        return cls([AclEntry.make(pattern, mode) for pattern, mode in pairs])

    def add(self, pattern: str, mode: str) -> None:
        """Add or replace the entry for ``pattern``."""
        new = AclEntry.make(pattern, mode)
        self._entries = [
            e for e in self._entries if str(e.pattern) != str(new.pattern)
        ]
        self._entries.append(new)

    def remove(self, pattern: str) -> bool:
        """Drop the entry for ``pattern``; returns whether one existed."""
        target = str(PrincipalPattern.parse(pattern))
        before = len(self._entries)
        self._entries = [
            e for e in self._entries if str(e.pattern) != target
        ]
        return len(self._entries) != before

    def effective_mode(self, principal: Principal) -> AccessMode:
        """Mode granted to ``principal``: most specific match wins,
        no match means no access."""
        person, project = principal.person, principal.project
        tag = principal.tag
        mode, best = AccessMode.NONE, -1
        for entry in self._entries:
            pattern = entry.pattern
            if (pattern.specificity > best
                    and pattern.person in ("*", person)
                    and pattern.project in ("*", project)
                    and pattern.tag in ("*", tag)):
                mode, best = entry.mode, pattern.specificity
        return mode

    def entries(self) -> list[AclEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self._entries) or "(empty acl)"

    def copy(self) -> "Acl":
        return Acl(self._entries)
