"""Segment control: active segments and their page homes.

A segment's pages live at exactly one memory level each: in a core
frame (recorded in the hardware PTW), on the bulk store, or on disk.
:class:`ActiveSegment` tracks the non-core homes; the PTW list it owns
is shared by every process that has the segment in its address space,
so one page-in serves all sharers (Multics's single-copy sharing).

The :class:`ActiveSegmentTable` (AST) is the kernel's census of
segments currently set up for paging.  Activation allocates disk homes
for all pages; dropping a segment requires every page to be out of core
and frees its homes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import MemoryHierarchy
from repro.hw.segmentation import PTW


@dataclass
class PageHome:
    """Where a page lives when it is not in a core frame."""

    level: str   # "bulk" or "disk"
    frame: int


class ActiveSegment:
    """Paging state of one active segment."""

    def __init__(self, uid: int, n_pages: int) -> None:
        if n_pages < 0:
            raise ValueError("negative page count")
        self.uid = uid
        self.ptws: list[PTW] = [PTW() for _ in range(n_pages)]
        #: Non-core home of each page; None while the page is in core.
        self.homes: list[PageHome | None] = [None] * n_pages

    @property
    def n_pages(self) -> int:
        return len(self.ptws)

    def resident_pages(self) -> list[int]:
        return [i for i, ptw in enumerate(self.ptws) if ptw.in_core]

    def __repr__(self) -> str:
        return (
            f"<ActiveSegment uid={self.uid} pages={self.n_pages} "
            f"in_core={len(self.resident_pages())}>"
        )


class ActiveSegmentTable:
    """The kernel's table of active segments, keyed by UID."""

    def __init__(self, hierarchy: MemoryHierarchy, lock=None) -> None:
        self.hierarchy = hierarchy
        #: The AST lock (repro.kernel.locks): every activation and drop
        #: of a page table is made while holding it.  Acquisitions here
        #: are accounting-only — AST mutations happen on the serialized
        #: kernel paths — but the discipline (which operations serialize
        #: on which lock) is explicit and visible in the ``lock.ast.*``
        #: metrics.
        self.lock = lock
        self._segments: dict[int, ActiveSegment] = {}
        self.activations = 0

    def _locked(self) -> None:
        if self.lock is not None:
            self.lock.acquire()

    def __contains__(self, uid: int) -> bool:
        return uid in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def get(self, uid: int) -> ActiveSegment:
        try:
            return self._segments[uid]
        except KeyError:
            raise KeyError(f"segment {uid} is not active") from None

    def segments(self) -> list[ActiveSegment]:
        return list(self._segments.values())

    def activate(
        self, uid: int, n_pages: int, initial_data: list[list[int]] | None = None
    ) -> ActiveSegment:
        """Make a segment pageable: every page gets a disk home.

        ``initial_data`` optionally seeds page contents (used when a
        segment is created with content, e.g. a bootstrap image).
        """
        self._locked()
        if uid in self._segments:
            return self._segments[uid]
        seg = ActiveSegment(uid, n_pages)
        disk = self.hierarchy.disk
        for pageno in range(n_pages):
            frame = disk.allocate()
            if initial_data is not None:
                disk.write_page(frame, initial_data[pageno])
            seg.homes[pageno] = PageHome("disk", frame)
        self._segments[uid] = seg
        self.activations += 1
        return seg

    def drop(self, uid: int) -> None:
        """Remove a segment from the AST, freeing its non-core homes.

        Core frames must already have been released (page control's
        ``flush_segment`` does that).
        """
        self._locked()
        seg = self.get(uid)
        if seg.resident_pages():
            raise RuntimeError(f"segment {uid} still has pages in core")
        for i, home in enumerate(seg.homes):
            if home is not None:
                self.hierarchy.level(home.level).free(home.frame)
                seg.homes[i] = None
        del self._segments[uid]
