"""Three-level physical memory hierarchy: core, bulk store, disk.

Multics moved pages among primary (core) memory, the bulk store (a fast
drum used as a paging device), and disk.  Each :class:`MemoryLevel`
manages a fixed population of page frames, whose words sit in one flat
Python list of ints (frame ``i`` from word ``i * page_size``) standing in
for 1024-word Multics pages: a level builds no object per frame.  The
list covers only the frames up to the highest one handed out (or
written through :meth:`MemoryLevel.raw_page`), so a level costs what a
run touches, not what it is configured to hold.

Security note: whether a frame is cleared when freed is configurable.
Failing to clear frames is the classic "residue" flaw (reading another
user's leftover data out of newly allocated storage); the penetration
experiments (E11) exploit exactly this when clearing is disabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.errors import ParityError, ReproError, TransientFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector


class OutOfFrames(ReproError):
    """A memory level has no free frame.

    Page control is responsible for never letting this surface to users;
    seeing it escape is a bug in a page-control implementation.
    """


class MemoryLevel:
    """A fixed pool of page frames with characteristic access latency."""

    def __init__(
        self,
        name: str,
        n_frames: int,
        transfer_cost: int,
        page_size: int,
        clear_on_free: bool = True,
        injector: "FaultInjector | None" = None,
        retire_threshold: int | None = None,
    ) -> None:
        if n_frames <= 0:
            raise ValueError("a memory level needs at least one frame")
        self.name = name
        self.n_frames = n_frames
        self.page_size = page_size
        self.transfer_cost = transfer_cost
        self.clear_on_free = clear_on_free
        self.injector = injector
        #: Parity hits at which a frame is retired when next freed
        #: (graceful degradation); None disables retirement.
        self.retire_threshold = retire_threshold
        #: Words of frames ``0 .. len(_words) // page_size - 1``; a frame
        #: past the end has never been handed out or written, so it
        #: holds zeros.
        self._words: list[int] = []
        #: Freed frames not retired, reused last-freed first.
        self._free: list[int] = []
        #: The lowest frame never handed out: frames come back from
        #: ``_free`` first, then fresh in index order, the order a free
        #: list of every frame, lowest on top, gave.
        self._fresh = 0
        self._allocated: set[int] = set()
        #: Injected parity hits per frame (drives retirement).
        self.fault_counts: dict[int, int] = {}
        #: Frames permanently removed from the free pool.
        self.retired: set[int] = set()
        # Counters for the benches.
        self.allocations = 0
        self.frees = 0

    # -- capacity --------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free) + self.n_frames - self._fresh

    @property
    def used_count(self) -> int:
        return len(self._allocated)

    # -- allocation ------------------------------------------------------

    def allocate(self) -> int:
        """Take a free frame; raises :class:`OutOfFrames` when exhausted."""
        if self._free:
            idx = self._free.pop()
        else:
            idx = self._fresh
            if idx == self.n_frames:
                raise OutOfFrames(f"{self.name}: no free frames")
            self._fresh = idx + 1
            if len(self._words) == idx * self.page_size:
                self._words.extend([0] * self.page_size)
        self._allocated.add(idx)
        self.allocations += 1
        return idx

    def free(self, idx: int) -> None:
        """Return a frame to the free pool, clearing it if configured.

        A frame that has accumulated ``retire_threshold`` parity hits is
        retired instead of being reused — degraded capacity, but no
        future reads through known-bad storage.
        """
        if idx not in self._allocated:
            raise ValueError(f"{self.name}: frame {idx} is not allocated")
        self._allocated.remove(idx)
        if self.clear_on_free:
            base = idx * self.page_size
            self._words[base:base + self.page_size] = [0] * self.page_size
        if (
            self.retire_threshold is not None
            and self.fault_counts.get(idx, 0) >= self.retire_threshold
        ):
            self.retired.add(idx)
            if self.injector is not None:
                self.injector.note_degraded(
                    f"memory.{self.name}.frame.{idx}",
                    f"{self.fault_counts[idx]} parity hits; frame retired",
                )
        else:
            self._free.append(idx)
        self.frees += 1

    def is_allocated(self, idx: int) -> bool:
        return idx in self._allocated

    # -- data access -----------------------------------------------------

    def _maybe_parity(self, idx: int, offset: int | None = None) -> None:
        if self.injector is None:
            return
        kind = self.injector.check(
            f"memory.{self.name}.read", detail=f"frame {idx}"
        )
        if kind == "parity":
            self.fault_counts[idx] = self.fault_counts.get(idx, 0) + 1
            raise ParityError(self.name, idx, offset)

    # ``read`` and ``write`` make their checks in their own frame: every
    # core reference the interpreter makes lands here.

    def read(self, idx: int, offset: int) -> int:
        """Read one word from an allocated frame."""
        if idx not in self._allocated:
            raise ValueError(f"{self.name}: frame {idx} is not allocated")
        if not 0 <= offset < self.page_size:
            raise ValueError(f"{self.name}: offset {offset} out of page")
        if self.injector is not None:
            self._maybe_parity(idx, offset)
        return self._words[idx * self.page_size + offset]

    def write(self, idx: int, offset: int, value: int) -> None:
        """Write one word into an allocated frame."""
        if idx not in self._allocated:
            raise ValueError(f"{self.name}: frame {idx} is not allocated")
        if not 0 <= offset < self.page_size:
            raise ValueError(f"{self.name}: offset {offset} out of page")
        self._words[idx * self.page_size + offset] = value

    def read_page(self, idx: int) -> list[int]:
        """Copy out the whole frame (used for page transfers)."""
        if idx not in self._allocated:
            raise ValueError(f"{self.name}: frame {idx} is not allocated")
        self._maybe_parity(idx)
        return self._words[idx * self.page_size:(idx + 1) * self.page_size]

    def write_page(self, idx: int, data: list[int]) -> None:
        """Replace the whole frame contents (used for page transfers)."""
        if idx not in self._allocated:
            raise ValueError(f"{self.name}: frame {idx} is not allocated")
        # A slice of another length would shift every later frame.
        if len(data) != self.page_size:
            raise ValueError("page data has the wrong length")
        self._words[idx * self.page_size:(idx + 1) * self.page_size] = data

    def raw_page(self, idx: int, data: list[int] | None = None) -> list[int]:
        """Frame ``idx``'s words, replaced by ``data`` first if given.  No
        allocation check and no fault injection (no fault-plan count
        moves): for the salvager's marker and last-resort copy, and tests.

        A frame past the end of the store reads as zeros without growing
        it; writing one grows the store to cover it, so the words are
        there when the frame is handed out."""
        if not 0 <= idx < self.n_frames:
            raise IndexError(f"{self.name}: no frame {idx}")
        words = self._words
        base = idx * self.page_size
        end = base + self.page_size
        if data is not None:
            if len(data) != self.page_size:
                raise ValueError("page data has the wrong length")
            if len(words) < end:
                words.extend([0] * (end - len(words)))
            words[base:end] = data
        elif len(words) < end:
            return [0] * self.page_size
        return words[base:end]


class MemoryHierarchy:
    """Core + bulk store + disk, with transfer bookkeeping.

    Transfers are *instantaneous data moves* here; their latency is
    charged by page control through the simulator (the hardware itself
    has no notion of waiting).
    """

    def __init__(
        self,
        config: SystemConfig,
        injector: "FaultInjector | None" = None,
        metrics=None,
    ) -> None:
        costs = config.costs
        clear = config.clear_freed_frames
        self.page_size = config.page_size
        self.injector = injector
        retire = config.frame_retire_threshold if injector is not None else None
        self.core = MemoryLevel(
            "core", config.core_frames, costs.core_access,
            config.page_size, clear_on_free=clear,
            injector=injector, retire_threshold=retire,
        )
        self.bulk = MemoryLevel(
            "bulk", config.bulk_frames, costs.bulk_transfer,
            config.page_size, clear_on_free=clear,
            injector=injector, retire_threshold=retire,
        )
        self.disk = MemoryLevel(
            "disk", config.disk_frames, costs.disk_transfer,
            config.page_size, clear_on_free=clear,
            injector=injector, retire_threshold=retire,
        )
        #: (from_level, to_level) -> count, for the page-control benches.
        self.transfer_counts: dict[tuple[str, str], int] = {}
        if metrics is not None:
            for level in (self.core, self.bulk, self.disk):
                prefix = f"mem.{level.name}"
                metrics.counter(f"{prefix}.allocations", "frames taken",
                                source=lambda lv=level: lv.allocations)
                metrics.counter(f"{prefix}.frees", "frames returned",
                                source=lambda lv=level: lv.frees)
                metrics.gauge(f"{prefix}.free_frames", "free frames now",
                              source=lambda lv=level: lv.free_count)
                metrics.gauge(f"{prefix}.retired_frames",
                              "frames retired by degradation",
                              source=lambda lv=level: len(lv.retired))
            metrics.counter(
                "mem.transfers", "page moves between levels",
                source=lambda: sum(self.transfer_counts.values()),
            )

    def level(self, name: str) -> MemoryLevel:
        try:
            return {"core": self.core, "bulk": self.bulk, "disk": self.disk}[name]
        except KeyError:
            raise ValueError(f"unknown memory level {name!r}") from None

    def transfer(
        self, src: MemoryLevel, src_idx: int, dst: MemoryLevel
    ) -> int:
        """Move a page from ``src`` frame ``src_idx`` into a newly
        allocated frame of ``dst``; frees the source frame.

        Returns the destination frame index.  Raises
        :class:`OutOfFrames` if ``dst`` is full — callers (page control)
        must make room first.
        """
        if self.injector is not None:
            kind = self.injector.check(
                "memory.transfer",
                detail=f"{src.name}[{src_idx}] -> {dst.name}",
            )
            if kind == "transfer_error":
                raise TransientFault(
                    "memory.transfer",
                    f"page move {src.name}[{src_idx}] -> {dst.name} failed",
                )
        # Read before allocating so a parity hit leaks nothing; the
        # source frame is freed only after the copy has landed.
        data = src.read_page(src_idx)
        dst_idx = dst.allocate()
        dst.write_page(dst_idx, data)
        src.free(src_idx)
        key = (src.name, dst.name)
        self.transfer_counts[key] = self.transfer_counts.get(key, 0) + 1
        return dst_idx

    def transfer_cost(self, src: MemoryLevel, dst: MemoryLevel) -> int:
        """Cycles a transfer between these two levels takes (the slower
        of the two endpoints dominates)."""
        return max(src.transfer_cost, dst.transfer_cost)
