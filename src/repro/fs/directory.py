"""Layer 2 of the file system: the naming hierarchy.

Directories map character-string names to *branches*; a branch carries
the entry's UID, ACL, ring brackets, and security label.  Paths use the
Multics ``>`` separator (``>udd>Crypto>alice>notes``).

Two lookup interfaces coexist, matching the paper's removal project:

* :meth:`DirectoryTree.resolve` walks a full tree name inside the
  kernel — the **legacy** interface ("identifying a directory by
  character string tree name");
* :meth:`DirectoryTree.lookup` performs a *single* name step on a
  directory the caller already holds — the **new** minimal interface
  ("Instead ... a segment number is used.  The algorithms for following
  a tree name through the file system hierarchy ... are thus removed
  from the supervisor"), with the walking loop living in the user ring
  (:mod:`repro.user.search_rules`).

MAC non-decrease: a branch's label must dominate its directory's label,
so walking *down* the tree never descends in classification — the
bottom-layer compartment enforcement the paper's partitioning section
proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AccessDenied, InvalidArgument, NameDuplication, NoSuchEntry
from repro.fs.acl import Acl
from repro.hw.rings import RingBrackets
from repro.security.mac import BOTTOM, SecurityLabel

#: Path separator (Multics convention).
SEP = ">"


def validate_name(name: str) -> None:
    """Entry names: non-empty, no separator, no NUL, at most 32 chars."""
    if not name or len(name) > 32:
        raise InvalidArgument(f"bad entry name {name!r}")
    if SEP in name or "\x00" in name:
        raise InvalidArgument(f"entry name may not contain {SEP!r}: {name!r}")


def split_path(path: str) -> list[str]:
    """``">a>b>c"`` -> ``["a", "b", "c"]``; ``">"`` -> ``[]``."""
    if not path.startswith(SEP):
        raise InvalidArgument(f"paths are absolute and start with '>': {path!r}")
    parts = [p for p in path.split(SEP) if p]
    for part in parts:
        validate_name(part)
    return parts


#: A new branch's ring brackets: the user ring reads, writes and
#: executes it.
_DEFAULT_BRACKETS = RingBrackets(4, 4, 4)


@dataclass
class Branch:
    """One directory entry."""

    name: str
    uid: int
    is_directory: bool
    acl: Acl = field(default_factory=Acl)
    #: Frozen, so every branch created with the default shares one.
    brackets: RingBrackets = _DEFAULT_BRACKETS
    label: SecurityLabel = field(default=BOTTOM)
    author: str = ""
    #: Additional names (Multics "added names").
    names: set[str] = field(default_factory=set)
    #: When on, the entry refuses deletion (Multics safety switch).
    safety_switch: bool = False
    #: Meaningful data length in bits (maintained by convention).
    bit_count: int = 0

    def all_names(self) -> set[str]:
        return {self.name} | self.names


class Directory:
    """One directory: an ordered mapping of names to branches.

    A directory carries its own ACL and label (and a display name) so
    the reference monitor can check directory operations — listing is a
    read of the directory, creating/deleting entries is a write — with
    the same code path it uses for segments.
    """

    def __init__(
        self,
        uid: int,
        parent_uid: int | None,
        label: SecurityLabel,
        acl: Acl | None = None,
        name: str = "",
    ) -> None:
        self.uid = uid
        self.parent_uid = parent_uid
        self.label = label
        self.acl = acl if acl is not None else Acl.make(("*.*.*", "rw"))
        self.name = name or f"dir#{uid}"
        #: Storage quota, in pages, for branches created here.
        self.quota_pages = 1 << 20
        #: Memo of the segment pages charged to this directory, or None
        #: when a structural change made it stale.  The quota gate
        #: (``fs_gates._used_pages``) maintains it so that creating the
        #: N-th segment does not rescan the previous N-1 branches; any
        #: mutation outside that gate (salvager, boot image) just
        #: invalidates and the next check rescans.
        self.used_pages_cache: int | None = None
        self._by_name: dict[str, Branch] = {}
        self._branches: list[Branch] = []

    # -- mutation ------------------------------------------------------------

    def add(self, branch: Branch) -> None:
        names = branch.all_names()
        for name in names:
            validate_name(name)
            if name in self._by_name:
                raise NameDuplication(
                    f"name {name!r} already exists in directory {self.uid}"
                )
        if not branch.label.dominates(self.label):
            raise AccessDenied(
                f"branch label {branch.label} does not dominate "
                f"directory label {self.label} (MAC non-decrease)"
            )
        for name in names:
            self._by_name[name] = branch
        self._branches.append(branch)
        self.used_pages_cache = None

    def remove(self, name: str) -> Branch:
        branch = self.get(name)
        for alias in branch.all_names():
            del self._by_name[alias]
        self._branches.remove(branch)
        self.used_pages_cache = None
        return branch

    def add_name(self, existing: str, new_name: str) -> None:
        validate_name(new_name)
        branch = self.get(existing)
        if new_name in self._by_name:
            raise NameDuplication(f"name {new_name!r} already exists")
        branch.names.add(new_name)
        self._by_name[new_name] = branch

    def remove_name(self, name: str) -> None:
        branch = self.get(name)
        if name == branch.name:
            raise InvalidArgument(
                "cannot remove the primary name; delete or rename the branch"
            )
        branch.names.discard(name)
        del self._by_name[name]

    def rename(self, old: str, new: str) -> None:
        validate_name(new)
        branch = self.get(old)
        if new in self._by_name and self._by_name[new] is not branch:
            raise NameDuplication(f"name {new!r} already exists")
        if old != branch.name:
            raise InvalidArgument("rename must use the primary name")
        del self._by_name[old]
        branch.name = new
        self._by_name[new] = branch

    # -- queries ------------------------------------------------------------

    def get(self, name: str) -> Branch:
        try:
            return self._by_name[name]
        except KeyError:
            raise NoSuchEntry(
                f"no entry {name!r} in directory {self.uid}"
            ) from None

    def maybe(self, name: str) -> Branch | None:
        return self._by_name.get(name)

    def list_branches(self) -> list[Branch]:
        return list(self._branches)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._branches)


class DirectoryTree:
    """The hierarchy: a root directory plus a UID index of directories."""

    def __init__(self, root_uid: int, root_label: SecurityLabel = BOTTOM) -> None:
        self.root = Directory(root_uid, None, root_label, name=SEP)
        self._dirs: dict[int, Directory] = {root_uid: self.root}

    # -- registration ---------------------------------------------------------

    def register_directory(
        self,
        uid: int,
        parent: Directory,
        label: SecurityLabel,
        acl: Acl | None = None,
        name: str = "",
    ) -> Directory:
        if uid in self._dirs:
            raise InvalidArgument(f"directory uid {uid} already registered")
        if not label.dominates(parent.label):
            raise AccessDenied(
                f"directory label {label} must dominate parent label "
                f"{parent.label}"
            )
        directory = Directory(uid, parent.uid, label, acl=acl, name=name)
        self._dirs[uid] = directory
        return directory

    def drop_directory(self, uid: int) -> None:
        directory = self.directory(uid)
        if len(directory):
            raise InvalidArgument(f"directory {uid} is not empty")
        if directory is self.root:
            raise InvalidArgument("cannot drop the root")
        del self._dirs[uid]

    # -- lookup ------------------------------------------------------------

    def directory(self, uid: int) -> Directory:
        try:
            return self._dirs[uid]
        except KeyError:
            raise NoSuchEntry(f"no directory with uid {uid}") from None

    def is_directory_uid(self, uid: int) -> bool:
        return uid in self._dirs

    def lookup(self, directory: Directory, name: str) -> Branch:
        """The minimal kernel interface: one name, one directory."""
        return directory.get(name)

    def resolve(self, path: str) -> Branch:
        """The legacy kernel interface: walk a full tree name.

        (In the new system this loop executes in the user ring; the
        kernel only ever performs single :meth:`lookup` steps.)
        """
        parts = split_path(path)
        if not parts:
            raise InvalidArgument("the root has no branch")
        current = self.root
        for name in parts[:-1]:
            branch = current.get(name)
            if not branch.is_directory:
                raise NoSuchEntry(f"{name!r} in {path!r} is not a directory")
            current = self.directory(branch.uid)
        return current.get(parts[-1])

    def resolve_directory(self, path: str) -> Directory:
        """Resolve a path that must name a directory (legacy helper)."""
        parts = split_path(path)
        current = self.root
        for name in parts:
            branch = current.get(name)
            if not branch.is_directory:
                raise NoSuchEntry(f"{name!r} in {path!r} is not a directory")
            current = self.directory(branch.uid)
        return current

    def path_of(self, directory: Directory) -> str:
        """Reconstruct a directory's tree name (diagnostic use)."""
        if directory.parent_uid is None:
            return SEP
        names: list[str] = []
        current = directory
        while current.parent_uid is not None:
            parent = self.directory(current.parent_uid)
            name = next(
                (
                    b.name
                    for b in parent.list_branches()
                    if b.is_directory and b.uid == current.uid
                ),
                None,
            )
            if name is None:  # pragma: no cover - orphan
                name = f"#{current.uid}"
            names.append(name)
            current = parent
        return SEP + SEP.join(reversed(names))

    def directories(self) -> list[Directory]:
        return list(self._dirs.values())
