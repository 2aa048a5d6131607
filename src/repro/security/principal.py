"""Access-control principals.

Multics identifies every process by a three-part principal
``Person.Project.tag``.  ACL entries match principals, possibly with
``*`` wildcards in any component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.security.mac import BOTTOM, SecurityLabel


@dataclass(frozen=True)
class Principal:
    """``Person.Project.tag`` identity, plus a clearance for MAC."""

    person: str
    project: str
    tag: str = "a"
    clearance: SecurityLabel = field(default=BOTTOM, compare=False)

    def __post_init__(self) -> None:
        for part in (self.person, self.project, self.tag):
            if not part or "." in part or "*" in part:
                raise ValueError(
                    f"invalid principal component {part!r} "
                    "(no dots, stars, or empty parts)"
                )
        # Every audit record names its principal: build the text once.
        object.__setattr__(self, "_text",
                           f"{self.person}.{self.project}.{self.tag}")

    def __str__(self) -> str:
        return self._text

    @classmethod
    def parse(cls, text: str, clearance: SecurityLabel = BOTTOM) -> "Principal":
        parts = text.split(".")
        if len(parts) == 2:
            parts.append("a")
        if len(parts) != 3:
            raise ValueError(f"principal must be Person.Project[.tag]: {text!r}")
        return cls(parts[0], parts[1], parts[2], clearance=clearance)


#: The identity kernel daemons run under.
KERNEL_PRINCIPAL = Principal("Initializer", "SysDaemon", "z")


@dataclass(frozen=True)
class PrincipalPattern:
    """An ACL matcher: any component may be ``*``.

    ``specificity`` ranks matching patterns: exact components beat
    wildcards, and person outranks project outranks tag (Multics's
    most-specific-match rule).  It is fixed at construction.
    """

    person: str = "*"
    project: str = "*"
    tag: str = "*"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specificity",
                           4 * (self.person != "*")
                           + 2 * (self.project != "*")
                           + (self.tag != "*"))

    @classmethod
    def parse(cls, text: str) -> "PrincipalPattern":
        parts = text.split(".")
        if len(parts) == 1:
            parts += ["*", "*"]
        elif len(parts) == 2:
            parts.append("*")
        if len(parts) != 3:
            raise ValueError(f"bad ACL pattern {text!r}")
        return cls(*parts)

    def matches(self, principal: Principal) -> bool:
        return (
            self.person in ("*", principal.person)
            and self.project in ("*", principal.project)
            and self.tag in ("*", principal.tag)
        )

    def __str__(self) -> str:
        return f"{self.person}.{self.project}.{self.tag}"
