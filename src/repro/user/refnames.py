"""Reference-name management in the user ring — the private KST half.

The "after" of Bratt's removal project (experiment E3): the association
between reference names and segment numbers is purely private to a
process's own naming environment, so it needs no protection at all.
This manager lives in the user ring, keeps plain per-process
dictionaries, and calls the kernel only for the one thing that *is*
common mechanism: mapping branches into the address space
(``hcs_$initiate`` / ``hcs_$terminate``).

An error here damages only the process that contains it.
"""

from __future__ import annotations

from repro.errors import LinkageError, UserRingError


class ReferenceNameManager:
    """Per-process, user-ring reference names."""

    def __init__(self, supervisor, process) -> None:
        self._sup = supervisor
        self._process = process
        self._names: dict[str, int] = {}

    # -- binding ------------------------------------------------------------

    def bind(self, refname: str, segno: int) -> None:
        if refname in self._names:
            raise UserRingError(f"reference name {refname!r} already bound")
        self._names[refname] = segno

    def unbind(self, refname: str) -> int:
        try:
            return self._names.pop(refname)
        except KeyError:
            raise UserRingError(f"no reference name {refname!r}") from None

    def terminate(self, refname: str) -> None:
        """Unbind; terminate the segment when its last name drops."""
        segno = self.unbind(refname)
        if segno not in self._names.values():
            self._sup.call(self._process, "hcs_$terminate", segno)

    # -- queries -----------------------------------------------------------

    def segno_of(self, refname: str) -> int:
        try:
            return self._names[refname]
        except KeyError:
            raise LinkageError(f"no reference name {refname!r}") from None

    def maybe(self, refname: str) -> int | None:
        return self._names.get(refname)

    def all(self) -> list[tuple[str, int]]:
        return sorted(self._names.items())

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, refname: str) -> bool:
        return refname in self._names
