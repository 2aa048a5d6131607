"""Level 1 of the process implementation: virtual processors.

The paper: "The first level multiplexes the processors into a larger
fixed number of virtual processors.  Because the number of virtual
processors is fixed, this first layer need not depend on the facilities
for managing the virtual memory.  Several of the virtual processors are
permanently assigned to implement processes for the dedicated use of
other kernel mechanisms ... while the remaining virtual processors are
multiplexed by the second layer of the process implementation into any
desired number of full Multics processes."

This module therefore knows nothing about segments, pages, or the file
system — the test suite asserts it imports nothing from
:mod:`repro.vm` or :mod:`repro.fs` (experiment E9's structural claim).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc.process import Process


class VirtualProcessor:
    """One virtual processor slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        #: Permanently bound kernel process, if any.
        self.dedicated_to: "Process | None" = None
        #: Process currently loaded (for pooled VPs, assigned by level 2).
        self.process: "Process | None" = None

    @property
    def is_dedicated(self) -> bool:
        return self.dedicated_to is not None

    @property
    def is_free(self) -> bool:
        return self.process is None and self.dedicated_to is None

    def __repr__(self) -> str:
        kind = "dedicated" if self.is_dedicated else "pooled"
        who = self.process.name if self.process else "-"
        return f"<VP {self.index} {kind} running={who}>"


class VirtualProcessorTable:
    """The fixed population of virtual processors.

    The table is sized once at boot and never grows — that fixed size is
    what frees level 1 from any dependence on virtual memory (it needs
    no dynamic storage).
    """

    def __init__(self, n_virtual_processors: int) -> None:
        if n_virtual_processors < 2:
            raise ValueError("need at least two virtual processors")
        self._vps = [VirtualProcessor(i) for i in range(n_virtual_processors)]
        self.dedications = 0

    def __len__(self) -> int:
        return len(self._vps)

    def __iter__(self):
        return iter(self._vps)

    def dedicate(self, process: "Process") -> VirtualProcessor:
        """Permanently bind a free VP to a kernel process (boot time).

        At least one VP must always remain in the pool for level 2,
        otherwise no user process could ever run.
        """
        free = [vp for vp in self._vps if vp.is_free]
        if len(free) <= 1:
            raise RuntimeError(
                "cannot dedicate the last pooled virtual processor"
            )
        vp = free[0]
        vp.dedicated_to = process
        vp.process = process
        process.vp = vp
        self.dedications += 1
        return vp

    def acquire(self, process: "Process") -> VirtualProcessor | None:
        """Level 2 loads a user process onto a free pooled VP.

        Returns None when every pooled VP is occupied — the process must
        wait (state ``WAITING_VP``).
        """
        for vp in self._vps:
            if vp.is_free:
                vp.process = process
                process.vp = vp
                return vp
        return None

    def release(self, process: "Process") -> None:
        """Level 2 unloads a process from its pooled VP."""
        vp = process.vp
        if vp is None:
            return
        if vp.is_dedicated:
            raise RuntimeError(
                f"dedicated VP {vp.index} can never be released"
            )
        vp.process = None
        process.vp = None

    @property
    def pooled_total(self) -> int:
        return sum(1 for vp in self._vps if not vp.is_dedicated)

    @property
    def dedicated_total(self) -> int:
        return sum(1 for vp in self._vps if vp.is_dedicated)
