"""Tests for the physical memory hierarchy."""

import gc
import sys
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import MulticsSystem, kernel_config
from repro.config import SystemConfig
from repro.errors import ParityError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw import memory
from repro.hw.memory import MemoryHierarchy, MemoryLevel, OutOfFrames

from tests.test_superblocks import profile_world, run_free


@pytest.fixture
def level():
    return MemoryLevel("core", 4, 1, page_size=8)


class TestMemoryLevel:
    def test_initially_all_free(self, level):
        assert level.free_count == 4
        assert level.used_count == 0

    def test_allocate_and_free(self, level):
        idx = level.allocate()
        assert level.is_allocated(idx)
        assert level.used_count == 1
        level.free(idx)
        assert not level.is_allocated(idx)
        assert level.free_count == 4

    def test_exhaustion(self, level):
        for _ in range(4):
            level.allocate()
        with pytest.raises(OutOfFrames):
            level.allocate()

    def test_double_free_rejected(self, level):
        idx = level.allocate()
        level.free(idx)
        with pytest.raises(ValueError):
            level.free(idx)

    def test_read_write_word(self, level):
        idx = level.allocate()
        level.write(idx, 3, 99)
        assert level.read(idx, 3) == 99

    def test_access_unallocated_rejected(self, level):
        with pytest.raises(ValueError):
            level.read(0, 0)
        with pytest.raises(ValueError):
            level.write(0, 0, 1)

    def test_offset_bounds(self, level):
        idx = level.allocate()
        with pytest.raises(ValueError):
            level.read(idx, 8)
        with pytest.raises(ValueError):
            level.write(idx, -1, 0)

    def test_page_read_write(self, level):
        idx = level.allocate()
        data = list(range(8))
        level.write_page(idx, data)
        assert level.read_page(idx) == data

    def test_page_write_wrong_length(self, level):
        idx = level.allocate()
        with pytest.raises(ValueError):
            level.write_page(idx, [1, 2, 3])

    def test_frames_cleared_on_free(self, level):
        idx = level.allocate()
        level.write(idx, 0, 777)
        level.free(idx)
        # Next allocation of the same frame sees zeros.
        idx2 = level.allocate()
        while idx2 != idx:
            idx2 = level.allocate()
        assert level.read(idx2, 0) == 0

    def test_residue_when_clearing_disabled(self):
        """The classic residue flaw: with clearing off, freed data is
        readable by the next owner (exploited by experiment E11)."""
        dirty = MemoryLevel("core", 1, 1, page_size=8, clear_on_free=False)
        idx = dirty.allocate()
        dirty.write(idx, 0, 777)
        dirty.free(idx)
        idx2 = dirty.allocate()
        assert dirty.read(idx2, 0) == 777

    def test_counters(self, level):
        a = level.allocate()
        level.free(a)
        level.allocate()
        assert level.allocations == 2
        assert level.frees == 1


class TestMemoryHierarchy:
    @pytest.fixture
    def hierarchy(self, config: SystemConfig):
        return MemoryHierarchy(config)

    def test_levels_sized_from_config(self, hierarchy, config):
        assert hierarchy.core.n_frames == config.core_frames
        assert hierarchy.bulk.n_frames == config.bulk_frames
        assert hierarchy.disk.n_frames == config.disk_frames

    def test_level_lookup(self, hierarchy):
        assert hierarchy.level("core") is hierarchy.core
        assert hierarchy.level("bulk") is hierarchy.bulk
        assert hierarchy.level("disk") is hierarchy.disk
        with pytest.raises(ValueError):
            hierarchy.level("drum")

    def test_transfer_moves_data_and_frees_source(self, hierarchy, config):
        src = hierarchy.core.allocate()
        data = list(range(config.page_size))
        hierarchy.core.write_page(src, data)
        dst = hierarchy.transfer(hierarchy.core, src, hierarchy.bulk)
        assert hierarchy.bulk.read_page(dst) == data
        assert not hierarchy.core.is_allocated(src)

    def test_transfer_counts(self, hierarchy):
        src = hierarchy.core.allocate()
        hierarchy.transfer(hierarchy.core, src, hierarchy.disk)
        assert hierarchy.transfer_counts[("core", "disk")] == 1

    def test_transfer_cost_is_slower_endpoint(self, hierarchy):
        assert (
            hierarchy.transfer_cost(hierarchy.core, hierarchy.disk)
            == hierarchy.disk.transfer_cost
        )
        assert (
            hierarchy.transfer_cost(hierarchy.core, hierarchy.bulk)
            == hierarchy.bulk.transfer_cost
        )

    def test_transfer_into_full_level_raises(self, config):
        config.bulk_frames = config.core_frames  # tiny bulk
        hierarchy = MemoryHierarchy(config)
        for _ in range(hierarchy.bulk.n_frames):
            hierarchy.bulk.allocate()
        src = hierarchy.core.allocate()
        with pytest.raises(OutOfFrames):
            hierarchy.transfer(hierarchy.core, src, hierarchy.bulk)


class PerFrameLevel:
    """Reference model of a :class:`MemoryLevel`: one list per frame, as
    the store was before it became one flat list per level.  Same
    checks, in the same order, against the same fault plan."""

    def __init__(self, name, n_frames, page_size, clear_on_free,
                 injector, retire_threshold):
        self.name = name
        self.n_frames = n_frames
        self.page_size = page_size
        self.clear_on_free = clear_on_free
        self.injector = injector
        self.retire_threshold = retire_threshold
        self.frames = [[0] * page_size for _ in range(n_frames)]
        self.free_list = list(range(n_frames - 1, -1, -1))
        self.allocated = set()
        self.fault_counts = {}
        self.retired = set()
        self.allocations = 0
        self.frees = 0

    @property
    def free_count(self):
        return len(self.free_list)

    @property
    def used_count(self):
        return len(self.allocated)

    def allocate(self):
        if not self.free_list:
            raise OutOfFrames(self.name)
        idx = self.free_list.pop()
        self.allocated.add(idx)
        self.allocations += 1
        return idx

    def free(self, idx):
        if idx not in self.allocated:
            raise ValueError(idx)
        self.allocated.remove(idx)
        if self.clear_on_free:
            self.frames[idx] = [0] * self.page_size
        if (self.retire_threshold is not None
                and self.fault_counts.get(idx, 0) >= self.retire_threshold):
            self.retired.add(idx)
            if self.injector is not None:
                self.injector.note_degraded(
                    f"memory.{self.name}.frame.{idx}")
        else:
            self.free_list.append(idx)
        self.frees += 1

    def _maybe_parity(self, idx, offset=None):
        if self.injector is None:
            return
        kind = self.injector.check(f"memory.{self.name}.read")
        if kind == "parity":
            self.fault_counts[idx] = self.fault_counts.get(idx, 0) + 1
            raise ParityError(self.name, idx, offset)

    def _check(self, idx, offset):
        if idx not in self.allocated:
            raise ValueError(idx)
        if not 0 <= offset < self.page_size:
            raise ValueError(offset)

    def read(self, idx, offset):
        self._check(idx, offset)
        self._maybe_parity(idx, offset)
        return self.frames[idx][offset]

    def write(self, idx, offset, value):
        self._check(idx, offset)
        self.frames[idx][offset] = value

    def read_page(self, idx):
        if idx not in self.allocated:
            raise ValueError(idx)
        self._maybe_parity(idx)
        return list(self.frames[idx])

    def write_page(self, idx, data):
        if idx not in self.allocated:
            raise ValueError(idx)
        if len(data) != self.page_size:
            raise ValueError(len(data))
        self.frames[idx] = list(data)

    def raw_page(self, idx, data=None):
        if not 0 <= idx < self.n_frames:
            raise IndexError(idx)
        if data is not None:
            if len(data) != self.page_size:
                raise ValueError(len(data))
            self.frames[idx] = list(data)
        return list(self.frames[idx])


LEVELS = ("core", "bulk", "disk")
WORDS = st.integers(-(2 ** 70), 2 ** 70)


class WordStoreMachine(RuleBasedStateMachine):
    """The flat word store against :class:`PerFrameLevel`: every
    operation returns (or raises) the same, and afterwards every
    counter and every word of every frame agree — so no operation
    touches a neighbouring frame.  The reference hands frames out from
    an eager free list of every frame; the store, which holds only the
    frames up to the highest one handed out or written, must hand out
    the same ones and grow no further."""

    @initialize(sizes=st.tuples(*[st.integers(1, 6)] * 3),
                page_size=st.integers(1, 8), clear=st.booleans(),
                faults=st.none() | st.tuples(
                    st.integers(0, 99), st.sampled_from([0.1, 0.3]),
                    st.integers(1, 3)),
                filled=st.booleans(), held=st.integers(0, 6))
    def setup(self, sizes, page_size, clear, faults, filled, held):
        config = SystemConfig(
            page_size=page_size, core_frames=sizes[0],
            bulk_frames=sizes[1], disk_frames=sizes[2],
            clear_freed_frames=clear,
        )
        injectors = [None, None]
        if faults is not None:
            seed, rate, config.frame_retire_threshold = faults
            specs = [FaultSpec("memory.*.read", "parity", rate=rate),
                     FaultSpec("memory.transfer", "transfer_error",
                               rate=rate)]
            injectors = [FaultInjector(FaultPlan(specs, seed=seed))
                         for _ in range(2)]
        self.real = MemoryHierarchy(config, injector=injectors[0])
        self.ref = MemoryHierarchy(config, injector=injectors[1])
        #: Per level, the highest frame handed out or raw-written.
        self.highest = dict.fromkeys(LEVELS, -1)
        for name in LEVELS:
            level = self.real.level(name)
            setattr(self.ref, name, PerFrameLevel(
                name, level.n_frames, page_size, clear, injectors[1],
                level.retire_threshold))
            if filled:
                # Distinct words everywhere, so a misplaced clear or copy
                # shows even when nothing was written there yet.
                for i in range(level.n_frames):
                    words = [1000 * i + k + 1 for k in range(page_size)]
                    self.both(lambda h: h.level(name).raw_page(i, words))
                    self.touched(name, i)
            # Start with frames in use, so that most operations reach
            # an allocated frame rather than stopping at the check.
            for _ in range(min(held, level.n_frames)):
                self.handed_out(name, self.both(
                    lambda h: h.level(name).allocate()))

    def both(self, op):
        """Apply ``op`` to each side; the outcomes must agree.  Returns
        the outcome."""
        outcomes = []
        for side in (self.real, self.ref):
            try:
                outcomes.append(("ok", op(side)))
            except Exception as exc:
                outcomes.append(("raised", type(exc)))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def touched(self, name, idx):
        self.highest[name] = max(self.highest[name], idx)

    def handed_out(self, name, outcome):
        """Note the frame an allocating operation returned, if it did."""
        if outcome[0] == "ok":
            self.touched(name, outcome[1])

    def frame_index(self, data, name):
        """Mostly an allocated frame; otherwise any index in -1..n."""
        level = self.real.level(name)
        allocated = [i for i in range(level.n_frames)
                     if level.is_allocated(i)]
        anywhere = st.integers(-1, level.n_frames)
        if allocated:
            anywhere = st.sampled_from(allocated) | anywhere
        return data.draw(anywhere, label="idx")

    def page_words(self, data):
        """Words for a page write: mostly a whole page, else 0..ps+1."""
        ps = self.real.page_size
        n = data.draw(st.just(ps) | st.integers(0, ps + 1), label="len")
        return data.draw(st.lists(WORDS, min_size=n, max_size=n))

    # -- rules ------------------------------------------------------------

    @rule(name=st.sampled_from(LEVELS))
    def allocate(self, name):
        self.handed_out(name, self.both(lambda h: h.level(name).allocate()))

    @rule(name=st.sampled_from(LEVELS), data=st.data())
    def free(self, name, data):
        idx = self.frame_index(data, name)
        self.both(lambda h: h.level(name).free(idx))

    @rule(name=st.sampled_from(LEVELS), data=st.data())
    def read(self, name, data):
        idx = self.frame_index(data, name)
        offset = data.draw(st.integers(-1, self.real.page_size))
        self.both(lambda h: h.level(name).read(idx, offset))

    @rule(name=st.sampled_from(LEVELS), data=st.data(), value=WORDS)
    def write(self, name, data, value):
        idx = self.frame_index(data, name)
        offset = data.draw(st.integers(-1, self.real.page_size))
        self.both(lambda h: h.level(name).write(idx, offset, value))

    @rule(name=st.sampled_from(LEVELS), data=st.data())
    def read_page(self, name, data):
        idx = self.frame_index(data, name)
        self.both(lambda h: h.level(name).read_page(idx))

    @rule(name=st.sampled_from(LEVELS), data=st.data())
    def write_page(self, name, data):
        idx = self.frame_index(data, name)
        words = self.page_words(data)
        self.both(lambda h: h.level(name).write_page(idx, list(words)))

    @rule(name=st.sampled_from(LEVELS), data=st.data())
    def raw_page(self, name, data):
        idx = self.frame_index(data, name)
        words = self.page_words(data) if data.draw(st.booleans()) else None
        outcome = self.both(lambda h: h.level(name).raw_page(
            idx, None if words is None else list(words)))
        if words is not None and outcome[0] == "ok":
            self.touched(name, idx)

    @rule(src=st.sampled_from(LEVELS), dst=st.sampled_from(LEVELS),
          data=st.data())
    def transfer(self, src, dst, data):
        idx = self.frame_index(data, src)
        self.handed_out(dst, self.both(
            lambda h: h.transfer(h.level(src), idx, h.level(dst))))

    # -- the comparison -----------------------------------------------------

    @invariant()
    def same_counters_and_words(self):
        assert self.real.transfer_counts == self.ref.transfer_counts
        for name in LEVELS:
            real, ref = self.real.level(name), self.ref.level(name)
            assert (real.allocations, real.frees, real.free_count,
                    real.used_count, real.retired, real.fault_counts) == (
                ref.allocations, ref.frees, ref.free_count,
                ref.used_count, ref.retired, ref.fault_counts)
            assert [real.raw_page(i) for i in range(real.n_frames)] \
                == ref.frames

    @invariant()
    def store_covers_only_frames_touched(self):
        # The invariant above reads every frame, past the store's end
        # too; that must grow nothing.
        for name in LEVELS:
            level = self.real.level(name)
            assert len(level._words) <= \
                level.page_size * (self.highest[name] + 1)


WordStoreMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=30, derandomize=True,
    deadline=None,
)
TestWordStoreAgainstPerFrameModel = WordStoreMachine.TestCase


def test_a_level_builds_no_object_per_frame():
    """At E18's sizes a hierarchy adds a handful of objects for the
    collector to track, not two per page frame (229,376 when every frame
    was an object holding a list)."""
    config = SystemConfig(page_size=16, core_frames=16384,
                          bulk_frames=32768, disk_frames=65536)
    gc.collect()
    before = len(gc.get_objects())
    hierarchy = MemoryHierarchy(config)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert hierarchy.disk.n_frames == 65536
    assert added < 100, added


#: E18's hierarchy: the ``interactive`` workload's.
E18_FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
                  disk_frames=65536)


def traced_peak(thunk):
    """``thunk()`` and the peak bytes it had allocated (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = thunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_hierarchy_allocates_no_words_for_frames_not_handed_out():
    """About 3.4 KiB at E18's sizes; 18,795 KiB when every level held a
    word slot for each of its frames and a free list of all of them."""
    hierarchy, peak = traced_peak(
        lambda: MemoryHierarchy(SystemConfig(**E18_FRAMES)))
    assert hierarchy.disk.free_count == 65536
    assert peak < 64 * 1024, peak


def test_booting_an_e18_sized_system_costs_what_it_touches():
    """About 0.26 MiB; 37.0 MiB when both the system's hierarchy and the
    memory-image builder's scratch one were allocated whole."""
    system, peak = traced_peak(
        lambda: MulticsSystem(kernel_config(**E18_FRAMES)).boot())
    assert system.services.hierarchy.core.n_frames == 16384
    assert peak < 2 * 2 ** 20, peak


def test_a_block_reference_enters_the_memory_module_once():
    """Every core word a compiled block reads or writes costs one Python
    frame in this module: ``read`` or ``write`` itself, which check in
    line (three frames a read when they called ``_check`` and
    ``_maybe_parity``)."""
    cpu, ctx = profile_world("io", frames=4)
    entered = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code.co_filename != memory.__file__:
            return
        caller = frame.f_back
        while caller.f_code.co_filename == memory.__file__:
            caller = caller.f_back
        if caller.f_code.co_filename.startswith("<block"):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        outcome = run_free(cpu, ctx)
    finally:
        sys.setprofile(None)
    assert outcome[0] == "ok"
    assert entered.count("read") > 50 and entered.count("write") > 50
    assert set(entered) == {"read", "write"}
