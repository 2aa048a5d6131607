"""Associative memory: the simulated 6180 SDW/PTW translation cache.

The paper's reference-monitor argument requires *every* reference to
pass SDW access + bracket checks and a PTW residence check
(:func:`repro.hw.segmentation.translate`).  The real 6180 made that
affordable with small associative memories holding recently used SDWs
and PTWs, so the full descriptor walk ran only on an AM miss.  This
module models that cache: bounded, with round-robin replacement, keyed
on ``(segno, pageno, ring, intent)`` and holding the *result* of a
complete check chain — the core frame plus the PTW that witnessed it.
Each CPU of the SMP complex owns one, as on the 6180; the session CPU
(kernel-mediated reads and writes, ``CPU.execute`` outside the
complex) uses one per process, held by its descriptor segment.

Security invariant — the cache must never outlive the decision it
caches.  Two mechanisms enforce it:

1. **Explicit invalidation** (the Multics ``cam`` — clear associative
   memory — instruction, and its selective descendants).  Every kernel
   action that changes a translation's inputs clears the affected
   entries: SDW add/remove (:class:`~repro.hw.segmentation.
   DescriptorSegment`), ACL/brackets revocation (``KernelServices.
   revoke_branch_access``), page eviction and placement
   (:mod:`repro.vm.page_control`), and address-space teardown.  An SDW
   change reaches the process's AM and the AM of every CPU connected
   to its descriptor segment.  Cross-process events (a page leaving
   core affects every process sharing the segment) go out through the
   system's :class:`CamBroadcast` to every AM of that system caching
   the object, exactly as the 6180's connect mechanism fired ``cam``
   on every CPU — and never to another system's AMs.

2. **Witness checks on hit** (:meth:`AssociativeMemory.probe`).  A hit
   is honoured only if the cached PTW is still in core in the cached
   frame and the offset is inside the cached bound.  The *access*
   decision has no such cheap authoritative witness — that is what the
   explicit ``cam`` on revocation exists for — but residence staleness
   can never leak a reused frame even if an invalidation hook were
   missed.

Fetch-legality entries (``pageno == FETCH_PAGENO``) cache the
instruction-fetch access check the CPU otherwise performs per
instruction; they hold no frame and are cleared by the same
invalidations.
"""

from __future__ import annotations

import weakref

#: Default entries per associative memory (the 6180's PTW AM held 16;
#: we default larger because one AM serves a whole process here).
DEFAULT_ENTRIES = 64

#: Pseudo page number keying fetch-legality entries (no frame cached).
FETCH_PAGENO = -1

#: Pseudo intent keying fetch-legality entries, kept private to this
#: module so it can never collide with a real Intent.
_FETCH = object()

#: Marks "no entry" in ``dict.pop`` (fetch-legality entries hold None).
_ABSENT = object()


def fetch_key(segno: int, ring: int) -> tuple:
    """The cache key of a fetch-legality entry.

    Public so the CPU's interpreter can test membership in the
    entry table directly without reconstructing the private intent
    sentinel; :meth:`AssociativeMemory.fetch_probe` remains the
    counting lookup.
    """
    return (segno, FETCH_PAGENO, ring, _FETCH)


class AmTotals:
    """Running sums of the counters of every AM bound to it.

    The ``am.*`` metrics read these five integers instead of adding up
    one AM per process at every read: a bound AM bumps them as it bumps
    its own counters, so a registry read costs the same at ten
    processes as at ten thousand.  :meth:`bind` adds an AM's lifetime
    counts (and its current size) and routes its later changes here
    through the AM's one ``totals`` slot; :meth:`unbind` stops the feed
    and takes its entries back out, while its counts stay in, so the
    four counters never go down.
    """

    __slots__ = ("hits", "misses", "invalidations", "cams", "entries")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.cams = 0
        #: Entries currently cached by the bound AMs.
        self.entries = 0

    def bind(self, am: "AssociativeMemory") -> None:
        self.hits += am.hits
        self.misses += am.misses
        self.invalidations += am.invalidations
        self.cams += am.cams
        self.entries += len(am)
        am.totals = self

    def unbind(self, am: "AssociativeMemory") -> None:
        if am.totals is self:
            self.entries -= len(am)
            am.totals = None


class AssociativeMemory:
    """Bounded cache of checked translations for one descriptor segment.

    Replacement is round-robin (evict in insertion order), like the
    hardware's replacement cursor: a hit is a pure lookup, with no
    recency bookkeeping on the hot path.

    Slotted: a 10k-user population carries one AM per process, and the
    CPU touches the entry table on every reference.  ``__weakref__``
    stays declared so a :class:`CamBroadcast` can hold the AM weakly.

    Every change to ``hits``, ``misses``, ``invalidations``, ``cams``
    or the entry count is mirrored into :attr:`totals` when the AM is
    bound to one (a process's AM tracked by the kernel); a per-CPU
    private AM is never bound.
    """

    __slots__ = ("capacity", "_entries", "_by_segno", "_by_uid",
                 "_key_uid", "hits", "misses", "invalidations", "cams",
                 "capacity_evictions", "totals", "broadcast",
                 "__weakref__")

    def __init__(self, capacity: int = DEFAULT_ENTRIES) -> None:
        self.capacity = capacity
        #: key -> (frame, ptw, bound) for translations, None for
        #: fetch-legality entries.  Insertion order is eviction order.
        self._entries: dict[tuple, tuple | None] = {}
        #: Secondary indexes for selective invalidation.
        self._by_segno: dict[int, set[tuple]] = {}
        self._by_uid: dict[int, set[tuple]] = {}
        self._key_uid: dict[tuple, int] = {}
        # Accounting (aggregated into am.* metrics by KernelServices).
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.cams = 0
        self.capacity_evictions = 0
        #: The :class:`AmTotals` this AM feeds, if any.
        self.totals: AmTotals | None = None
        #: The :class:`CamBroadcast` this AM listens to, if any.
        self.broadcast: CamBroadcast | None = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ----------------------------------------------------------

    def probe(self, segno: int, pageno: int, ring: int, intent,
              offset: int) -> tuple | None:
        """Return ``(frame, ptw)`` for a still-valid cached translation,
        else None.  Counts the hit/miss; drops entries whose witness
        checks fail (see module docstring)."""
        key = (segno, pageno, ring, intent)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            if self.totals is not None:
                self.totals.misses += 1
            return None
        frame, ptw, bound = entry
        if offset >= bound or not ptw.in_core or ptw.frame != frame:
            # Residence or bound witness failed: the mapping moved
            # underneath the cache.  Never honour it.
            self._drop(key)
            self.invalidations += 1
            self.misses += 1
            if self.totals is not None:
                self.totals.invalidations += 1
                self.totals.misses += 1
            return None
        self.hits += 1
        if self.totals is not None:
            self.totals.hits += 1
        return frame, ptw

    def fetch_probe(self, segno: int, ring: int) -> bool:
        """True if instruction fetch from ``segno`` in ``ring`` was
        already checked and not since invalidated."""
        key = fetch_key(segno, ring)
        if key in self._entries:
            self.hits += 1
            if self.totals is not None:
                self.totals.hits += 1
            return True
        self.misses += 1
        if self.totals is not None:
            self.totals.misses += 1
        return False

    # -- insertion -------------------------------------------------------

    def insert(self, segno: int, pageno: int, ring: int, intent,
               frame: int, ptw, bound: int, uid: int | None) -> None:
        """Record one fully checked translation."""
        self._insert((segno, pageno, ring, intent), (frame, ptw, bound),
                     segno, uid)

    def fetch_insert(self, segno: int, ring: int, uid: int | None) -> None:
        """Record one fully checked fetch-legality decision."""
        self._insert(fetch_key(segno, ring), None, segno, uid)

    def _insert(self, key, value, segno, uid) -> None:
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.pop(key)
        elif self.totals is not None:
            self.totals.entries += 1
        while len(self._entries) >= self.capacity:
            self._drop(next(iter(self._entries)))
            self.capacity_evictions += 1
        self._entries[key] = value
        self._by_segno.setdefault(segno, set()).add(key)
        if uid is not None:
            keys = self._by_uid.get(uid)
            if keys is None:
                self._by_uid[uid] = {key}
                if self.broadcast is not None:
                    self.broadcast.add(uid, self)
            else:
                keys.add(key)
            self._key_uid[key] = uid

    # -- invalidation ----------------------------------------------------

    def _drop(self, key) -> None:
        if (self._entries.pop(key, _ABSENT) is not _ABSENT
                and self.totals is not None):
            self.totals.entries -= 1
        segno = key[0]
        keys = self._by_segno.get(segno)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_segno[segno]
        uid = self._key_uid.pop(key, None)
        if uid is not None:
            ukeys = self._by_uid.get(uid)
            if ukeys is not None:
                ukeys.discard(key)
                if not ukeys:
                    del self._by_uid[uid]
                    if self.broadcast is not None:
                        self.broadcast.discard(uid, self)

    def invalidate_segno(self, segno: int) -> int:
        """Clear every entry for one segment number (SDW add/remove)."""
        keys = self._by_segno.get(segno)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            self._drop(key)
            dropped += 1
        self.invalidations += dropped
        if self.totals is not None:
            self.totals.invalidations += dropped
        return dropped

    def invalidate_uid(self, uid: int, pageno: int | None = None) -> int:
        """Clear entries for one file-system object: all of them
        (``pageno=None`` — revocation) or one page's translations
        (page eviction/placement; fetch-legality entries are untouched,
        their decision does not depend on residence)."""
        keys = self._by_uid.get(uid)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            if pageno is not None and key[1] != pageno:
                continue
            self._drop(key)
            dropped += 1
        self.invalidations += dropped
        if self.totals is not None:
            self.totals.invalidations += dropped
        return dropped

    def cam(self) -> int:
        """Clear associative memory — the 6180 instruction: drop
        everything (address-space teardown, descriptor-segment swap)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_segno.clear()
        if self.broadcast is not None:
            for uid in self._by_uid:
                self.broadcast.discard(uid, self)
        self._by_uid.clear()
        self._key_uid.clear()
        self.cams += 1
        self.invalidations += dropped
        if self.totals is not None:
            self.totals.cams += 1
            self.totals.invalidations += dropped
            self.totals.entries -= dropped
        return dropped


# ---------------------------------------------------------------------------
# the cam broadcast (the 6180 "connect": fire cam on every CPU)
# ---------------------------------------------------------------------------

class CamBroadcast:
    """One system's cam broadcast: uid -> the AMs caching that object.

    Page-control events are expressed in UIDs (a page of segment
    ``uid`` left or entered core) while AM entries are per-process
    segment numbers; each AM's own uid index bridges the two.  Page
    control owns one broadcast, and every AM of its system joins it:
    a tracked process's AM and each CPU's private AM.  One system's
    page moves therefore never cam another system's AMs.

    :meth:`cam_uid` visits only the AMs caching the uid, so it costs
    O(sharers), not O(AMs): a 10k-user population has 10k+ AMs but
    each segment is cached by a handful, and page control broadcasts
    on *every* page movement.  AMs without the uid would drop nothing
    (``invalidate_uid`` returns 0 before touching any counter), so the
    restricted walk is observationally identical to visiting them all.
    """

    __slots__ = ("_by_uid",)

    def __init__(self) -> None:
        #: uid -> the joined AMs caching at least one entry for it
        #: (WeakSets: an AM dies with its descriptor segment or CPU and
        #: drops out of the broadcast by itself).
        self._by_uid: dict[int, weakref.WeakSet[AssociativeMemory]] = {}

    def join(self, am: AssociativeMemory) -> None:
        """Make ``am`` listen to this broadcast, for the objects it
        already caches too."""
        am.broadcast = self
        for uid in am._by_uid:
            self.add(uid, am)

    def add(self, uid: int, am: AssociativeMemory) -> None:
        index = self._by_uid.get(uid)
        if index is None:
            index = self._by_uid[uid] = weakref.WeakSet()
        index.add(am)

    def discard(self, uid: int, am: AssociativeMemory) -> None:
        index = self._by_uid.get(uid)
        if index is not None:
            index.discard(am)
            if not index:
                del self._by_uid[uid]

    def cam_uid(self, uid: int | None, pageno: int | None = None) -> int:
        """Invalidate one object's cached translations (one page's,
        given ``pageno``) in every joined AM caching it."""
        if uid is None:
            return 0
        index = self._by_uid.get(uid)
        if not index:
            if index is not None:
                del self._by_uid[uid]  # every joined AM died; drop the husk
            return 0
        return sum(am.invalidate_uid(uid, pageno) for am in list(index))
