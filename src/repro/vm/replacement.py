"""Page replacement policies.

A policy chooses which resident page to evict.  Candidates are
presented as :class:`Candidate` records; the policy returns an index
into the candidate list.  Policies never touch page *contents* —
the policy/mechanism split of experiment E7 makes that impossibility
structural, but even the in-kernel policies here are written against
the same narrow interface.

Page control presents resident pages in load order (``loaded_at``
never decreases along the list).  A policy whose choice depends only
on that order and the used bits — FIFO and clock — also implements
``victim_position``, which is handed the used bits alone, in load
order, and returns the victim's position.  Page control then builds no
:class:`Candidate` at all; a policy without the method (LRU) keeps
``select``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol


@dataclass
class Candidate:
    """What a replacement policy may know about a resident page."""

    slot: int          #: opaque identity within this decision round
    used: bool         #: hardware used bit
    modified: bool     #: hardware modified bit
    loaded_at: int     #: time the page came into core


class ReplacementPolicy(Protocol):
    """Interface every policy implements."""

    name: str

    def select(self, candidates: list[Candidate]) -> int:
        """Return the index of the victim in ``candidates``."""
        ...

    def note_loaded(self, slot: int, time: int) -> None:
        """Observe that a page was loaded (for policies keeping state)."""
        ...


class FIFOPolicy:
    """Evict the page longest in core, regardless of use."""

    name = "fifo"

    def select(self, candidates: list[Candidate]) -> int:
        if not candidates:
            raise ValueError("no candidates")
        best = min(range(len(candidates)), key=lambda i: candidates[i].loaded_at)
        return best

    def victim_position(self, used: Iterable[bool]) -> int:
        """The first page in load order is the oldest; no bit is read."""
        return 0

    def note_loaded(self, slot: int, time: int) -> None:
        pass


class ClockPolicy:
    """Second-chance: prefer pages with the used bit off.

    The caller clears the used bit of pages the policy passes over
    (that is the 'clock hand sweep'); the policy itself only reads the
    bits it is given, keeping the interface one-way.
    """

    name = "clock"

    def select(self, candidates: list[Candidate]) -> int:
        if not candidates:
            raise ValueError("no candidates")
        unused = [i for i, c in enumerate(candidates) if not c.used]
        if unused:
            # Oldest unused page.
            return min(unused, key=lambda i: candidates[i].loaded_at)
        # Everything recently used: fall back to FIFO order.
        return min(range(len(candidates)), key=lambda i: candidates[i].loaded_at)

    def victim_position(self, used: Iterable[bool]) -> int:
        """In load order the oldest unused page is the first unused
        one, so the bits are read only up to it; when every page is
        used, the first page (FIFO)."""
        for position, bit in enumerate(used):
            if not bit:
                return position
        return 0

    def note_loaded(self, slot: int, time: int) -> None:
        pass


class LRUPolicy:
    """Least-recently-used, approximated by used-bit sampling.

    Each selection round, pages with the used bit set are treated as
    referenced 'now'; the policy keeps a recency estimate per slot.
    A round keeps the estimates of its own candidates only: a page that
    has left the census is not asked about again until ``note_loaded``
    sets its estimate afresh, so the table stays the size of the census
    plus the pages loaded since the last round.
    """

    name = "lru"

    def __init__(self) -> None:
        self._last_seen: dict[int, int] = {}
        self._round = 0

    def select(self, candidates: list[Candidate]) -> int:
        if not candidates:
            raise ValueError("no candidates")
        self._round += 1
        previous = self._last_seen
        seen: dict[int, int] = {}
        for cand in candidates:
            if cand.used:
                seen[cand.slot] = self._round
            elif cand.slot not in seen:
                seen[cand.slot] = previous.get(cand.slot, 0)
        self._last_seen = seen
        return min(
            range(len(candidates)),
            key=lambda i: (seen[candidates[i].slot], candidates[i].loaded_at),
        )

    def note_loaded(self, slot: int, time: int) -> None:
        self._last_seen[slot] = self._round


def make_policy(name: str) -> ReplacementPolicy:
    """Policy factory used by configuration code."""
    policies = {"fifo": FIFOPolicy, "clock": ClockPolicy, "lru": LRUPolicy}
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}") from None
