"""Tree-name following and search rules, in the user ring.

The "after" of the other half of the naming removal: "The algorithms
for following a tree name through the file system hierarchy to locate
the named element are thus removed from the supervisor to be
implemented by procedures executing in the user ring.  (The actual file
system hierarchy remains protected inside the supervisor.)"

Every *step* of a walk is a kernel call (``hcs_$initiate`` on one
directory, one name), so the kernel checks access at every level —
the user ring can express any naming policy it likes, but it cannot
see anything the reference monitor would deny.  Compare the legacy
``hcs_$search`` gate, which walks inside the kernel and leaks existence
information (the FLAW exploited by experiment E11).
"""

from __future__ import annotations

from repro.errors import KernelDenial, NoSuchEntry, SearchFailed
from repro.fs.directory import SEP, split_path


class UserSearchRules:
    """Per-process naming environment: working dir + search rules."""

    def __init__(self, supervisor, process) -> None:
        self._sup = supervisor
        self._process = process
        self.root_segno = supervisor.call(process, "hcs_$get_root")
        self.working_dir_segno = self.root_segno
        #: Directory handles searched, in order, for bare names.
        self.rules: list[int] = []

    # -- the tree walk (all in the user ring) -----------------------------------

    def resolve_dir(self, path: str) -> int:
        """Walk a tree name to a directory handle (segno)."""
        current = self.root_segno if path.startswith(SEP) else self.working_dir_segno
        parts = split_path(path) if path.startswith(SEP) else [
            p for p in path.split(SEP) if p
        ]
        for name in parts:
            current = self._sup.call(self._process, "hcs_$initiate", current, name)
        return current

    def resolve(self, path: str) -> tuple[int, str]:
        """Walk to the parent of ``path``; return (dir_segno, entry)."""
        if path.startswith(SEP):
            parts = split_path(path)
            base = self.root_segno
        else:
            parts = [p for p in path.split(SEP) if p]
            base = self.working_dir_segno
        if not parts:
            raise NoSuchEntry("the root has no entry name")
        current = base
        for name in parts[:-1]:
            current = self._sup.call(self._process, "hcs_$initiate", current, name)
        return current, parts[-1]

    def initiate_path(self, path: str) -> int:
        """Initiate the object a tree name denotes."""
        dir_segno, entry = self.resolve(path)
        return self._sup.call(self._process, "hcs_$initiate", dir_segno, entry)

    # -- the working directory ----------------------------------------------------

    def set_working_dir(self, path: str) -> int:
        self.working_dir_segno = self.resolve_dir(path)
        return self.working_dir_segno

    # -- search rules ---------------------------------------------------------------

    def search(self, name: str) -> tuple[int, int]:
        """Find ``name`` along working dir + rules.

        Returns ``(dir_segno, segno)``.  Directories the caller may not
        read contribute nothing — the kernel denies the step and the
        search just moves on, so no existence information leaks that
        the ACLs do not already grant.
        """
        for dir_segno in [self.working_dir_segno] + self.rules:
            try:
                segno = self._sup.call(
                    self._process, "hcs_$initiate", dir_segno, name
                )
                return dir_segno, segno
            except KernelDenial:
                continue
        raise SearchFailed(f"{name!r} not found along search rules")
