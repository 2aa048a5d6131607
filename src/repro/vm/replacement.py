"""Page replacement policies.

A policy chooses which resident page to evict, through one call:
``victim_position(pages)``.  Page control hands it the census of
resident pages as ``(slot, used)`` pairs in load order (``slot`` is
the page's resident key ``(uid, pageno)``, ``used`` its hardware used
bit) and the policy returns the victim's position in that census; the
same key reaches ``note_loaded`` when the page comes into core.  Load
times never decrease along the census, so the oldest page is the first
one: FIFO reads no bit, and clock reads bits only up to the first
unused page.  Policies never touch page *contents* — the
policy/mechanism split of experiment E7 makes that impossibility
structural, but even the in-kernel policies here are written against
the same narrow interface.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Protocol


class ReplacementPolicy(Protocol):
    """Interface every policy implements."""

    name: str

    def victim_position(self, pages: Iterable[tuple[Hashable, bool]]) -> int:
        """Return the victim's position in the census ``pages``."""
        ...

    def note_loaded(self, slot: Hashable, time: int) -> None:
        """Observe that a page was loaded (for policies keeping state)."""
        ...


class FIFOPolicy:
    """Evict the page longest in core, regardless of use."""

    name = "fifo"

    def victim_position(self, pages: Iterable[tuple[Hashable, bool]]) -> int:
        """The first page in load order is the oldest; no bit is read."""
        return 0

    def note_loaded(self, slot: Hashable, time: int) -> None:
        pass


class ClockPolicy:
    """Second-chance: prefer pages with the used bit off.

    The caller clears the used bit of pages the policy passes over
    (that is the 'clock hand sweep'); the policy itself only reads the
    bits it is given, keeping the interface one-way.
    """

    name = "clock"

    def victim_position(self, pages: Iterable[tuple[Hashable, bool]]) -> int:
        """In load order the oldest unused page is the first unused
        one, so the bits are read only up to it; when every page is
        used, the first page (FIFO)."""
        for position, (_slot, used) in enumerate(pages):
            if not used:
                return position
        return 0

    def note_loaded(self, slot: Hashable, time: int) -> None:
        pass


class LRUPolicy:
    """Least-recently-used, approximated by used-bit sampling.

    Each replacement round, pages with the used bit set are treated as
    referenced 'now'; the policy keeps a recency estimate per slot and
    evicts the first page in load order with the oldest estimate (so,
    among equals, the one longest in core).  A round keeps the
    estimates of its own census only: a page that has left it is not
    asked about again until ``note_loaded`` sets its estimate afresh,
    so the table stays the size of the census plus the pages loaded
    since the last round.
    """

    name = "lru"

    def __init__(self) -> None:
        self._last_seen: dict[Hashable, int] = {}
        self._round = 0

    def victim_position(self, pages: Iterable[tuple[Hashable, bool]]) -> int:
        self._round += 1
        now = self._round
        previous = self._last_seen
        seen: dict[Hashable, int] = {}
        victim, oldest = 0, now + 1
        for position, (slot, used) in enumerate(pages):
            estimate = now if used else previous.get(slot, 0)
            seen[slot] = estimate
            if estimate < oldest:
                victim, oldest = position, estimate
        self._last_seen = seen
        return victim

    def note_loaded(self, slot: Hashable, time: int) -> None:
        self._last_seen[slot] = self._round


def make_policy(name: str) -> ReplacementPolicy:
    """Policy factory used by configuration code."""
    policies = {"fifo": FIFOPolicy, "clock": ClockPolicy, "lru": LRUPolicy}
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}") from None
