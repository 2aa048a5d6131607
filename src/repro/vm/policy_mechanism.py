"""Policy/mechanism separation for page removal (experiment E7).

The paper: "Programs in the most privileged ring would implement the
mechanics of page removal, providing gate entry points for requesting
the movement of a particular page from primary memory to a particular
free block on the bulk store, and for obtaining usage information about
pages in primary memory.  The policy algorithm ... would execute in a
less privileged ring ... The policy algorithm, however, could never
read or write the contents of pages, learn the segment to which each
page belonged, or cause one page to overwrite another ... It could only
cause denial of use."

Here the *mechanism* (:class:`PageRemovalMechanism`) runs conceptually
in ring 0 and exposes exactly three gates.  The *policy* receives only
a :class:`PolicyGates` facade whose methods are closures over the
mechanism — the facade carries no reference a well-typed caller could
follow to page contents, and the gate return values are scrubbed:

* ``usage_info()`` returns opaque slot handles plus used/modified bits
  — never a segment UID, page number, frame number, or data word;
* ``move_to_bulk(slot)`` names the victim only by handle; the free
  bulk block is chosen by the mechanism, so no page can be made to
  overwrite another;
* ``free_count()`` returns one integer.

A malicious policy can therefore evict the wrong pages (denial of use)
but cannot violate confidentiality or integrity.  The test suite and
experiment E7 drive three adversarial policies against the gates to
demonstrate exactly that.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable

from repro.errors import InvalidArgument
from repro.vm.page_control import PageControl


@dataclass(frozen=True)
class SlotInfo:
    """Everything a removal policy may know about one resident page."""

    slot: int
    used: bool
    modified: bool
    age: int  #: cycles since the page was loaded


class PageRemovalMechanism:
    """The ring-0 mechanics of page removal, behind three gates."""

    GATE_NAMES = ("usage_info", "move_to_bulk", "free_count")

    def __init__(self, page_control: PageControl) -> None:
        self._pc = page_control
        self._round = itertools.count(1)
        self._salt = 0
        #: slot handle -> (uid, pageno); regenerated every usage_info round
        self._slots: dict[int, tuple[int, int]] = {}
        #: Gate-call audit trail: (gate, argument, outcome).
        self.audit: list[tuple[str, object, str]] = []
        self.invalid_calls = 0
        self.moves_performed = 0

    # -- gate bodies ------------------------------------------------------

    def _gate_usage_info(self) -> list[SlotInfo]:
        """Fresh usage snapshot with new opaque handles.

        Handles are salted hashes so a policy cannot even correlate
        identity across rounds beyond what the bits reveal.
        """
        self._salt = next(self._round)
        self._slots = {}
        now = self._pc.sim.clock.now
        infos = []
        for (uid, pageno), rp in self._pc.resident.items():
            digest = hashlib.blake2b(
                f"{self._salt}:{uid}:{pageno}".encode(), digest_size=6
            ).digest()
            handle = int.from_bytes(digest, "big")
            self._slots[handle] = (uid, pageno)
            infos.append(
                SlotInfo(
                    slot=handle,
                    used=rp.ptw.used,
                    modified=rp.ptw.modified,
                    age=now - rp.loaded_at,
                )
            )
        self.audit.append(("usage_info", None, "ok"))
        return infos

    def _gate_move_to_bulk(self, slot: int) -> bool:
        """Evict the page behind ``slot`` from core to the bulk store.

        The mechanism chooses the destination block; validates the
        handle; quietly makes bulk room if needed.  Returns False when
        the handle is stale (the page left core since the snapshot).
        """
        if not isinstance(slot, int):
            self.invalid_calls += 1
            self.audit.append(("move_to_bulk", slot, "invalid-type"))
            raise InvalidArgument("slot handle must be an integer")
        target = self._slots.get(slot)
        if target is None:
            self.invalid_calls += 1
            self.audit.append(("move_to_bulk", slot, "invalid-handle"))
            raise InvalidArgument(f"no such page slot {slot}")
        rp = self._pc.resident.get(target)
        if rp is None:
            self.audit.append(("move_to_bulk", slot, "stale"))
            return False
        self._pc._make_bulk_room()
        self._pc._evict_core_move(rp)
        del self._slots[slot]
        self.moves_performed += 1
        self.audit.append(("move_to_bulk", slot, "moved"))
        return True

    def _gate_free_count(self) -> int:
        self.audit.append(("free_count", None, "ok"))
        return self._pc.hierarchy.core.free_count

    # -- the facade handed to ring 2 --------------------------------------

    def gates(self) -> "PolicyGates":
        return PolicyGates(
            usage_info=self._gate_usage_info,
            move_to_bulk=self._gate_move_to_bulk,
            free_count=self._gate_free_count,
        )


class PolicyGates:
    """The complete interface visible from the policy's ring.

    Instances expose *only* the three gate callables; there is no
    attribute leading back to page frames, segment identities, or data.
    """

    __slots__ = ("usage_info", "move_to_bulk", "free_count")

    def __init__(
        self,
        usage_info: Callable[[], list[SlotInfo]],
        move_to_bulk: Callable[[int], bool],
        free_count: Callable[[], int],
    ) -> None:
        object.__setattr__(self, "usage_info", usage_info)
        object.__setattr__(self, "move_to_bulk", move_to_bulk)
        object.__setattr__(self, "free_count", free_count)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("the gate facade is immutable")


# ---------------------------------------------------------------------------
# Policies (run conceptually in ring 2)
# ---------------------------------------------------------------------------

class RemovalPolicy:
    """Base class: make room by calling gates until ``target`` frames free."""

    name = "abstract"

    def make_room(self, gates: PolicyGates, target: int) -> int:
        """Free frames until ``free_count() >= target``; returns moves made."""
        moves = 0
        guard = 0
        while gates.free_count() < target:
            guard += 1
            if guard > 10_000:
                break  # a policy must never wedge the mechanism's caller
            infos = gates.usage_info()
            if not infos:
                break
            slot = self.choose(infos)
            try:
                if gates.move_to_bulk(slot):
                    moves += 1
            except InvalidArgument:
                continue
        return moves

    def choose(self, infos: list[SlotInfo]) -> int:
        raise NotImplementedError


class SensibleRemovalPolicy(RemovalPolicy):
    """Prefers old, unused, clean pages — a reasonable policy."""

    name = "sensible"

    def choose(self, infos: list[SlotInfo]) -> int:
        ranked = sorted(
            infos, key=lambda i: (i.used, i.modified, -i.age)
        )
        return ranked[0].slot


class ThrashingRemovalPolicy(RemovalPolicy):
    """Malicious: always evicts the *most recently used* pages,
    maximizing refaults — pure denial of use."""

    name = "thrasher"

    def choose(self, infos: list[SlotInfo]) -> int:
        ranked = sorted(infos, key=lambda i: (not i.used, i.age))
        return ranked[0].slot


class ForgingRemovalPolicy(RemovalPolicy):
    """Malicious: fabricates slot handles, probing for a way to name
    pages it was never shown.  Every forged call is rejected."""

    name = "forger"

    def __init__(self) -> None:
        self.rejections = 0

    def make_room(self, gates: PolicyGates, target: int) -> int:
        moves = 0
        for probe in range(64):
            try:
                gates.move_to_bulk(probe * 7919)
            except InvalidArgument:
                self.rejections += 1
        # Falls back to legitimate behaviour so the system still runs.
        moves += SensibleRemovalPolicy().make_room(gates, target)
        return moves

    def choose(self, infos: list[SlotInfo]) -> int:  # pragma: no cover
        return infos[0].slot


class SnoopingRemovalPolicy(RemovalPolicy):
    """Malicious: inspects everything the gate interface returns,
    recording any field that could leak segment identity or contents.

    Its ``loot`` stays empty — the interface exposes nothing to steal —
    which experiment E7 asserts.
    """

    name = "snooper"

    def __init__(self) -> None:
        self.loot: list[object] = []

    def choose(self, infos: list[SlotInfo]) -> int:
        for info in infos:
            for field_name in dir(info):
                if field_name.startswith("_"):
                    continue
                value = getattr(info, field_name)
                # Anything other than the four declared scalars would
                # be a leak.
                if field_name not in ("slot", "used", "modified", "age"):
                    self.loot.append((field_name, value))
        return sorted(infos, key=lambda i: -i.age)[0].slot
