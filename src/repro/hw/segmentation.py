"""Segmentation hardware: SDWs, descriptor segments, PTWs, translation.

Every reference by the simulated CPU passes through
:func:`translate`, which enforces, in order:

1. a valid SDW exists for the segment number (else segment fault);
2. the reference is inside the segment's bound (else bounds violation);
3. the executing ring and the SDW's access/brackets permit the intent
   (else access violation) — this is the hardware half of the
   reference monitor;
4. the page is in core (else missing-page fault, serviced by page
   control).

Nothing above the hardware can bypass this path; the kernel differs
from user code only in the SDWs its descriptor segment contains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import (
    AccessViolation,
    BoundsViolation,
    MissingPageFault,
    SegmentFault,
)
from repro.hw.assoc import AssociativeMemory
from repro.hw.rings import RingBrackets


class AccessMode(enum.Flag):
    """Permission bits recorded in an SDW (and in ACL entries).

    The bit operations, truth value and :meth:`to_string` index tables
    of the eight values (``_MODES``, ``_MODE_STRINGS``) instead of
    running ``enum.Flag``'s Python-level methods: every reference
    monitor decision and every hardware access check combines modes.
    The tables hold the stdlib's own ``AccessMode(v)``, so identity,
    ``repr`` and pickling are ``Flag``'s.
    """

    NONE = 0
    R = enum.auto()
    E = enum.auto()
    W = enum.auto()
    RW = R | W
    RE = R | E
    REW = R | E | W

    def __and__(self, other):
        if other.__class__ is not AccessMode:
            return NotImplemented
        return _MODES[self._value_ & other._value_]

    def __or__(self, other):
        if other.__class__ is not AccessMode:
            return NotImplemented
        return _MODES[self._value_ | other._value_]

    def __xor__(self, other):
        if other.__class__ is not AccessMode:
            return NotImplemented
        return _MODES[self._value_ ^ other._value_]

    __rand__ = __and__
    __ror__ = __or__
    __rxor__ = __xor__

    def __invert__(self):
        return _MODES[self._value_ ^ 0b111]  # the bits this mode lacks

    def __bool__(self):
        return self._value_ != 0

    @classmethod
    def from_string(cls, text: str) -> "AccessMode":
        """Parse Multics-style mode strings like ``"rw"`` or ``"re"``."""
        mode = cls.NONE
        for ch in text.lower():
            if ch == "r":
                mode |= cls.R
            elif ch == "e":
                mode |= cls.E
            elif ch == "w":
                mode |= cls.W
            elif ch in ("n", " "):
                continue
            else:
                raise ValueError(f"unknown access mode character {ch!r}")
        return mode

    def to_string(self) -> str:
        return _MODE_STRINGS[self._value_]


#: Every ``AccessMode``, indexed by its value (the three bits' eight
#: combinations).
_MODES = tuple(AccessMode(v) for v in range(8))
#: Each mode's Multics spelling, indexed by value: r, e, w in that
#: order, ``"n"`` for none.
_MODE_STRINGS = tuple(
    "".join(ch for bit, ch in ((AccessMode.R, "r"), (AccessMode.E, "e"),
                               (AccessMode.W, "w")) if mode & bit) or "n"
    for mode in _MODES
)


class Intent(enum.Enum):
    """What a reference is trying to do.

    Hashed by identity (members are singletons and ``Enum`` compares
    by identity), so the associative memory's keys hash in C rather
    than through ``Enum.__hash__``.
    """

    READ = "read"
    WRITE = "write"
    FETCH = "fetch"  #: instruction fetch

    __hash__ = object.__hash__


@dataclass(slots=True)
class PTW:
    """Page table word: core-residence state of one page.

    ``used`` and ``modified`` are the hardware-maintained bits that
    replacement policies sample (through gates, in the new design — E7).
    Slotted: one PTW exists per page of every active segment, and the
    CPU touches one per reference — the hottest struct in the machine.
    """

    in_core: bool = False
    frame: int | None = None
    used: bool = False
    modified: bool = False

    def place(self, frame: int) -> None:
        self.in_core = True
        self.frame = frame
        self.used = False
        self.modified = False

    def evict(self) -> None:
        self.in_core = False
        self.frame = None


@dataclass
class SDW:
    """Segment descriptor word as seen by one process.

    The access mode and brackets here are *per-process*: the kernel sets
    them from the branch ACL when the segment is added to the process's
    address space, so hardware enforcement and the file-system access
    model coincide.
    """

    segno: int
    access: AccessMode
    brackets: RingBrackets
    page_table: list[PTW] = field(default_factory=list)
    bound: int = 0
    #: Legal gate entry offsets for inward calls, or None if no gates.
    gates: frozenset[int] | None = None
    #: Opaque link back to the owning file-system object (UID).
    uid: int | None = None

    def n_pages(self) -> int:
        return len(self.page_table)


class DescriptorSegment:
    """The per-process table mapping segment numbers to SDWs.

    Carries the process's associative memory: cached results of
    :func:`translate` over these SDWs.  A CPU of the SMP complex caches
    them in its own AM instead, and connects that AM here while it runs
    the process.  Changing an SDW fires the selective ``cam`` on every
    one of them — on the 6180, a connect to each CPU — so no cached
    translation outlives its SDW.
    """

    #: Per-CPU AMs currently connected.  A tuple, defaulting to the
    #: class's empty one, so a table no CPU runs allocates nothing.
    _cpu_ams: tuple = ()

    def __init__(self) -> None:
        self._sdws: dict[int, SDW] = {}
        self.am = AssociativeMemory()

    def connect(self, am: AssociativeMemory) -> None:
        """A CPU now translates this table's references through ``am``."""
        self._cpu_ams += (am,)

    def disconnect(self, am: AssociativeMemory) -> None:
        self._cpu_ams = tuple(x for x in self._cpu_ams if x is not am)

    def invalidate(self, segno: int) -> None:
        """Cam ``segno`` in this table's AM and every connected one."""
        self.am.invalidate_segno(segno)
        for am in self._cpu_ams:
            am.invalidate_segno(segno)

    def add(self, sdw: SDW) -> None:
        if sdw.segno in self._sdws:
            raise ValueError(f"segment number {sdw.segno} already in use")
        self._sdws[sdw.segno] = sdw
        self.invalidate(sdw.segno)

    def remove(self, segno: int) -> SDW:
        try:
            sdw = self._sdws.pop(segno)
        except KeyError:
            raise SegmentFault(segno, f"segment {segno} not in address space") from None
        self.invalidate(segno)
        return sdw

    def get(self, segno: int) -> SDW:
        try:
            return self._sdws[segno]
        except KeyError:
            raise SegmentFault(segno) from None

    def maybe(self, segno: int) -> SDW | None:
        return self._sdws.get(segno)

    def __contains__(self, segno: int) -> bool:
        return segno in self._sdws

    def __iter__(self):
        return iter(self._sdws.values())

    def __len__(self) -> int:
        return len(self._sdws)

    def segnos(self) -> list[int]:
        return sorted(self._sdws)


def check_access(sdw: SDW, ring: int, intent: Intent) -> None:
    """Raise :class:`AccessViolation` unless ``ring`` may perform
    ``intent`` on the segment described by ``sdw``."""
    if intent is Intent.READ:
        if not (sdw.access & AccessMode.R and sdw.brackets.may_read(ring)):
            raise AccessViolation(
                f"ring {ring} may not read segment {sdw.segno} "
                f"(access {sdw.access.to_string()}, brackets {sdw.brackets!r})"
            )
    elif intent is Intent.WRITE:
        if not (sdw.access & AccessMode.W and sdw.brackets.may_write(ring)):
            raise AccessViolation(
                f"ring {ring} may not write segment {sdw.segno} "
                f"(access {sdw.access.to_string()}, brackets {sdw.brackets!r})"
            )
    elif intent is Intent.FETCH:
        if not sdw.access & AccessMode.E:
            raise AccessViolation(
                f"segment {sdw.segno} is not executable"
            )
        # Ring legality of execution is established at CALL time by
        # rings.call_check; a fetch in a ring outside the execute
        # bracket means the call machinery was bypassed.
        if not (
            sdw.brackets.in_execute_bracket(ring)
            or sdw.brackets.in_call_bracket(ring)
        ):
            raise AccessViolation(
                f"ring {ring} may not execute segment {sdw.segno} "
                f"(brackets {sdw.brackets!r})"
            )
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown intent {intent!r}")


def translate(
    dseg: DescriptorSegment,
    segno: int,
    offset: int,
    ring: int,
    intent: Intent,
    page_size: int,
    am: AssociativeMemory | None = None,
) -> tuple[int, int]:
    """Full address translation; returns ``(core_frame, word_offset)``.

    Raises the appropriate hardware fault when translation cannot
    complete.  Marks the PTW used (and modified, for writes) on success.

    With ``am`` (normally ``dseg.am``), a previously checked
    ``(segno, pageno, ring, intent)`` short-circuits the SDW walk and
    access computation to the cached frame — the 6180 associative
    memory.  A hit still marks the PTW bits, so replacement sampling is
    identical with the cache on or off, and the offset stays bounded by
    the cached SDW bound (see :mod:`repro.hw.assoc` for the
    invalidation contract that keeps the cache honest).
    """
    if not isinstance(offset, int) or offset < 0:
        # Reject before the AM is even probed: a negative offset maps
        # to pageno -1, and a non-integer one (1.5) to a key equal to
        # page 0's; no cached entry may ever witness either.
        sdw = dseg.get(segno)
        if not isinstance(offset, int):
            raise BoundsViolation(
                f"offset {offset!r} of segment {segno} is not an integer"
            )
        raise BoundsViolation(
            f"offset {offset} outside bound {sdw.bound} of segment {segno}"
        )
    pageno = offset // page_size
    word = offset - pageno * page_size
    if am is not None:
        hit = am.probe(segno, pageno, ring, intent, offset)
        if hit is not None:
            frame, ptw = hit
            ptw.used = True
            if intent is Intent.WRITE:
                ptw.modified = True
            return frame, word
    sdw = dseg.get(segno)
    if offset >= sdw.bound:
        raise BoundsViolation(
            f"offset {offset} outside bound {sdw.bound} of segment {segno}"
        )
    check_access(sdw, ring, intent)
    if pageno >= len(sdw.page_table):
        raise BoundsViolation(
            f"offset {offset} past the {len(sdw.page_table)}-page table "
            f"of segment {segno}"
        )
    ptw = sdw.page_table[pageno]
    if not ptw.in_core or ptw.frame is None:
        raise MissingPageFault(segno, pageno)
    ptw.used = True
    if intent is Intent.WRITE:
        ptw.modified = True
    if am is not None:
        am.insert(segno, pageno, ring, intent, ptw.frame, ptw,
                  sdw.bound, sdw.uid)
    return ptw.frame, word
