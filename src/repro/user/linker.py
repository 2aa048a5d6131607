"""The dynamic linker, in the user ring (the "after" of project E1).

Janson's removal: linking "could be done without resort to a mechanism
common to both protection regions."  This linker runs with only the
caller's own rights:

* it parses object segments with the *defensive* decoder — a malformed
  segment raises :class:`ObjectFormatError` in the user ring, damaging
  nobody ("the chances of such a complex argument ... causing the
  linker to malfunction while executing in the supervisor" become
  irrelevant: there is no supervisor execution);
* it resolves reference names through the user-ring
  :class:`~repro.user.refnames.ReferenceNameManager` and
  :class:`~repro.user.search_rules.UserSearchRules`, so every directory
  it touches is access-checked by the kernel's ``hcs_$initiate``;
* it snaps links in the process's own linkage section, which is
  private data.

The linkage-fault flow: the CPU's ``CALLL`` through an unsnapped link
invokes :meth:`UserRingLinker.snap`, then restarts the call — same
machinery, different ring.
"""

from __future__ import annotations

from repro.errors import LinkageError, ObjectFormatError
from repro.hw.cpu import CodeSegment, Link
from repro.user.object_format import decode_object, parse_symbol
from repro.user.refnames import ReferenceNameManager
from repro.user.search_rules import UserSearchRules


class UserRingLinker:
    """Per-process dynamic linker."""

    def __init__(
        self,
        supervisor,
        process,
        refnames: ReferenceNameManager | None = None,
        search: UserSearchRules | None = None,
    ) -> None:
        self._sup = supervisor
        self._process = process
        # Explicit None checks: a manager holding no names yet is falsy
        # (it has __len__), and ``refnames or ...`` would give the
        # linker a second, private one the session never sees.
        self.refnames = (refnames if refnames is not None
                         else ReferenceNameManager(supervisor, process))
        self.search = (search if search is not None
                       else UserSearchRules(supervisor, process))
        self.snaps = 0
        self.parse_failures = 0

    # -- loading -----------------------------------------------------------------

    def load_object(self, segno: int) -> CodeSegment:
        """Parse the object segment at ``segno`` (defensively) and
        install its code and links in the process."""
        words = self._read_words(segno)
        try:
            obj = decode_object(words, name=f"seg{segno}")
        except ObjectFormatError:
            self.parse_failures += 1
            raise
        code = CodeSegment(
            instructions=obj.code, entry_points=dict(obj.definitions)
        )
        self._process.code_segments[segno] = code
        for sym in obj.links:
            self._process.links.append(Link(symbol=sym))
        return code

    def load_by_name(self, refname: str) -> int:
        """Search for, initiate, and load an object segment."""
        existing = self.refnames.maybe(refname)
        if existing is not None:
            return existing
        _dir_segno, segno = self.search.search(refname)
        self.refnames.bind(refname, segno)
        if segno not in self._process.code_segments:
            self.load_object(segno)
        return segno

    def _read_words(self, segno: int) -> list[int]:
        """Ordinary loads through the process's own SDW."""
        return self._sup.services.read_segment_words(self._process, segno)

    # -- snapping ----------------------------------------------------------------

    def snap(self, index: int) -> tuple[int, int]:
        """Resolve link ``index``; the linkage-fault handler."""
        links = self._process.links
        if not 0 <= index < len(links):
            raise LinkageError(f"no link {index}")
        link = links[index]
        if link.snapped:
            return (link.segno, link.offset)
        ref, entry = parse_symbol(link.symbol)
        target_segno = self.refnames.maybe(ref)
        if target_segno is None:
            target_segno = self.load_by_name(ref)
        code = self._process.code_segments.get(target_segno)
        if code is None:
            code = self.load_object(target_segno)
        offset = code.entry_points.get(entry)
        if offset is None:
            raise LinkageError(
                f"no definition {entry!r} in segment {target_segno}"
            )
        link.snapped = True
        link.segno = target_segno
        link.offset = offset
        self.snaps += 1
        return (target_segno, offset)

    def fault_handler(self):
        """Adapter for :class:`repro.hw.cpu.CPU`'s linkage-fault hook."""

        def on_linkage_fault(ctx, index: int) -> None:
            self.snap(index)

        return on_linkage_fault

    def unsnap_all(self) -> int:
        count = 0
        for link in self._process.links:
            if link.snapped:
                link.snapped = False
                link.segno = -1
                link.offset = -1
                count += 1
        return count
