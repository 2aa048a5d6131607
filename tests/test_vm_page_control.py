"""Tests for the two page-control designs."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PageControlKind, SystemConfig
from repro.hw.clock import Simulator
from repro.hw.memory import MemoryHierarchy
from repro.proc.process import Process, ProcessState
from repro.proc.scheduler import TrafficController
from repro.vm.page_control import (
    ParallelPageControl,
    SequentialPageControl,
    make_page_control,
)
from repro.vm.replacement import LRUPolicy, make_policy
from repro.vm.segment_control import ActiveSegmentTable


def build(config: SystemConfig, kind: PageControlKind, policy=None):
    sim = Simulator()
    tc = TrafficController(sim, config)
    hierarchy = MemoryHierarchy(config)
    ast = ActiveSegmentTable(hierarchy)
    pc = make_page_control(kind, sim, tc, hierarchy, ast, config, policy)
    return sim, tc, hierarchy, ast, pc


@pytest.fixture(params=[PageControlKind.SEQUENTIAL, PageControlKind.PARALLEL])
def stack(request, config):
    return build(config, request.param)


class TestCommonBehaviour:
    def test_fault_brings_page_into_core(self, stack):
        sim, tc, hierarchy, ast, pc = stack
        seg = ast.activate(uid=1, n_pages=2)

        def body(proc):
            yield from pc.fault(proc, seg, 0)

        p = Process("faulter", body=body)
        tc.add_process(p)
        tc.run(max_events=100_000)
        assert p.state is ProcessState.STOPPED
        assert seg.ptws[0].in_core
        assert seg.homes[0] is None
        assert pc.faults_serviced == 1
        assert p.page_faults == 1

    def test_fault_latency_recorded(self, stack):
        sim, tc, hierarchy, ast, pc = stack
        seg = ast.activate(uid=1, n_pages=1)

        def body(proc):
            yield from pc.fault(proc, seg, 0)

        p = Process("faulter", body=body)
        tc.add_process(p)
        tc.run(max_events=100_000)
        assert len(pc.fault_records) == 1
        record = pc.fault_records[0]
        assert record.latency > 0
        assert p.fault_wait_cycles == record.latency

    def test_touch_faults_then_charges(self, stack):
        sim, tc, hierarchy, ast, pc = stack
        seg = ast.activate(uid=1, n_pages=1)

        def body(proc):
            yield from pc.touch(proc, seg, 0, write=True)
            yield from pc.touch(proc, seg, 0)  # second touch: no fault

        p = Process("toucher", body=body)
        tc.add_process(p)
        tc.run(max_events=100_000)
        assert p.page_faults == 1
        assert seg.ptws[0].modified

    def test_working_set_larger_than_core_evicts(self, stack):
        sim, tc, hierarchy, ast, pc = stack
        n_pages = hierarchy.core.n_frames + 4
        seg = ast.activate(uid=1, n_pages=n_pages)

        def body(proc):
            for page in range(n_pages):
                yield from pc.touch(proc, seg, page)

        p = Process("sweeper", body=body)
        tc.add_process(p)
        tc.run(max_events=500_000)
        assert p.state is ProcessState.STOPPED
        assert pc.core_evictions > 0
        assert hierarchy.core.used_count <= hierarchy.core.n_frames

    def test_sync_service_path(self, stack):
        sim, tc, hierarchy, ast, pc = stack
        seg = ast.activate(uid=2, n_pages=1)
        cost = pc.service_sync(seg, 0)
        assert seg.ptws[0].in_core
        assert cost >= hierarchy.disk.transfer_cost

    def test_sync_service_cascade_under_pressure(self, stack):
        sim, tc, hierarchy, ast, pc = stack
        n = hierarchy.core.n_frames + 2
        seg = ast.activate(uid=2, n_pages=n)
        for page in range(n):
            pc.service_sync(seg, page)
        assert pc.core_evictions >= 2


class TestSequentialSpecific:
    def test_cascade_steps_charged_to_faulter(self, config):
        """Under full core the faulting process itself performs the
        eviction steps (the complexity the paper criticizes)."""
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.SEQUENTIAL)
        assert isinstance(pc, SequentialPageControl)
        n = hierarchy.core.n_frames + 2
        seg = ast.activate(uid=1, n_pages=n)

        def body(proc):
            for page in range(n):
                yield from pc.touch(proc, seg, page)

        p = Process("f", body=body)
        tc.add_process(p)
        tc.run(max_events=500_000)
        multi_step = [r for r in pc.fault_records if r.steps_in_faulter > 1]
        assert multi_step, "expected cascaded faults with >1 step in faulter"

    def test_triple_cascade_when_bulk_full(self, config):
        """When the bulk store is also full, the faulter additionally
        moves a page to disk: three levels of work in one fault."""
        config.core_frames = 4
        config.bulk_frames = 4
        config.disk_frames = 64
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.SEQUENTIAL)
        seg = ast.activate(uid=1, n_pages=16)

        def body(proc):
            for page in range(16):
                yield from pc.touch(proc, seg, page)

        p = Process("f", body=body)
        tc.add_process(p)
        tc.run(max_events=500_000)
        assert pc.bulk_evictions > 0
        assert p.state is ProcessState.STOPPED


class TestParallelSpecific:
    def test_freer_processes_installed(self, config):
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.PARALLEL)
        assert isinstance(pc, ParallelPageControl)
        assert pc.core_freer is not None and pc.core_freer.dedicated
        assert pc.bulk_freer is not None and pc.bulk_freer.dedicated
        assert tc.vpt.dedicated_total == 2

    def test_faulting_path_is_single_step(self, config):
        """Paper: the faulting process 'can just wait until a primary
        memory block is free and then initiate the transfer'."""
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.PARALLEL)
        n = hierarchy.core.n_frames + 4
        seg = ast.activate(uid=1, n_pages=n)

        def body(proc):
            for page in range(n):
                yield from pc.touch(proc, seg, page)

        p = Process("f", body=body)
        tc.add_process(p)
        tc.run(max_events=500_000)
        assert p.state is ProcessState.STOPPED
        assert pc.fault_records
        assert all(r.steps_in_faulter <= 1 for r in pc.fault_records)

    def test_evictions_happen_in_freer_not_faulter(self, config):
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.PARALLEL)
        n = hierarchy.core.n_frames + 4
        seg = ast.activate(uid=1, n_pages=n)

        def body(proc):
            for page in range(n):
                yield from pc.touch(proc, seg, page)

        p = Process("f", body=body)
        tc.add_process(p)
        tc.run(max_events=500_000)
        assert pc.core_evictions > 0
        # The freer did work on its own dedicated processor time.
        assert pc.core_freer.cpu_cycles >= 0
        assert pc.core_freer.state is ProcessState.BLOCKED  # parked, not dead

    def test_free_frames_maintained_near_target(self, config):
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.PARALLEL)
        n = hierarchy.core.n_frames * 2
        seg = ast.activate(uid=1, n_pages=n)

        def body(proc):
            for page in range(n):
                yield from pc.touch(proc, seg, page)

        tc.add_process(Process("f", body=body))
        tc.run(max_events=500_000)
        # After the storm settles the freer has restored the low-water mark.
        assert hierarchy.core.free_count >= config.free_core_target

    def test_many_concurrent_faulters(self, config):
        config.n_processors = 2
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.PARALLEL)
        segs = [ast.activate(uid=i, n_pages=8) for i in range(4)]

        def body(seg):
            def gen(proc):
                for page in range(seg.n_pages):
                    yield from pc.touch(proc, seg, page)

            return gen

        procs = [Process(f"w{i}", body=body(s)) for i, s in enumerate(segs)]
        for p in procs:
            tc.add_process(p)
        tc.run(max_events=1_000_000)
        assert all(p.state is ProcessState.STOPPED for p in procs)
        assert pc.faults_serviced >= sum(s.n_pages for s in segs) - 4


@dataclass
class Candidate:
    """The census record the select-based policies took."""

    slot: object
    used: bool
    modified: bool
    loaded_at: int


class OldFIFO:
    """FIFO as it chose through ``select``, before the one call."""

    def select(self, candidates):
        return min(range(len(candidates)),
                   key=lambda i: candidates[i].loaded_at)

    def note_loaded(self, slot, time):
        pass


class OldClock(OldFIFO):
    """Clock as it chose through ``select``."""

    def select(self, candidates):
        unused = [i for i, c in enumerate(candidates) if not c.used]
        if unused:
            return min(unused, key=lambda i: candidates[i].loaded_at)
        return super().select(candidates)


class OldLRU:
    """LRU as it chose through ``select``."""

    def __init__(self):
        self._last_seen = {}
        self._round = 0

    def select(self, candidates):
        self._round += 1
        previous = self._last_seen
        seen = {}
        for cand in candidates:
            if cand.used:
                seen[cand.slot] = self._round
            elif cand.slot not in seen:
                seen[cand.slot] = previous.get(cand.slot, 0)
        self._last_seen = seen
        return min(
            range(len(candidates)),
            key=lambda i: (seen[candidates[i].slot], candidates[i].loaded_at),
        )

    def note_loaded(self, slot, time):
        self._last_seen[slot] = self._round


OLD_SELECT = {"fifo": OldFIFO, "clock": OldClock, "lru": OldLRU}


class SelectOverCensus:
    """A select-based policy behind the one call: it keeps each page's
    load time from ``note_loaded`` and builds the :class:`Candidate`
    census page control used to build."""

    def __init__(self, name):
        self.name = name
        self.old = OLD_SELECT[name]()
        self.loaded_at = {}

    def note_loaded(self, slot, time):
        self.loaded_at[slot] = time
        self.old.note_loaded(slot, time)

    def victim_position(self, pages):
        return self.old.select([
            Candidate(slot, used, False, self.loaded_at[slot])
            for slot, used in pages
        ])


class FixedPositionPolicy:
    """A broken policy: ``victim_position`` returns ``position_of(n)``
    for an ``n``-page census."""

    name = "broken"

    def __init__(self, position_of):
        self.position_of = position_of

    def victim_position(self, pages):
        return self.position_of(len(list(pages)))

    def note_loaded(self, slot, time):
        pass


#: A round's used bits: every page used, none, or one bit per page in
#: load order (cycled over the census).
USED_BITS = st.one_of(
    st.just("all"), st.just("none"),
    st.lists(st.booleans(), min_size=1, max_size=8),
)


class TestReplacementRound:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(["fifo", "clock", "lru"]),
        first_loads=st.lists(st.integers(0, 2), min_size=1, max_size=8),
        rounds=st.lists(
            st.tuples(USED_BITS, st.integers(1, 9),
                      st.lists(st.integers(0, 2), min_size=1, max_size=9)),
            min_size=1, max_size=6,
        ),
    )
    def test_victim_position_matches_select(self, name, first_loads, rounds):
        """The one call chooses what the old ``select`` over a
        :class:`Candidate` census chose, round after round: each round
        sets the used bits, chooses a batch of victims, evicts them and
        loads other pages (``note_loaded``) at load times that often
        tie.  Both page controls must evict the same pages in the same
        order and leave the same bits."""
        config = SystemConfig(page_size=4, core_frames=8, bulk_frames=64,
                              disk_frames=128)
        stacks = [build(config, PageControlKind.SEQUENTIAL, policy)
                  for policy in (make_policy(name), SelectOverCensus(name))]
        segs = [ast.activate(uid=1, n_pages=24)
                for _sim, _tc, _h, ast, _pc in stacks]
        cursor = 0

        def load(gaps):
            nonlocal cursor
            for gap in gaps:
                if stacks[0][2].core.free_count == 0:
                    return
                while segs[0].ptws[cursor % 24].in_core:
                    cursor += 1
                for (sim, _tc, _h, _ast, pc), seg in zip(stacks, segs):
                    sim.clock.advance(gap)
                    pc.service_sync(seg, cursor % 24)
                cursor += 1

        load(first_loads)
        for used_bits, want, gaps in rounds:
            outcomes = []
            for (_sim, _tc, _h, _ast, pc), seg in zip(stacks, segs):
                for position, rp in enumerate(pc.resident.values()):
                    if used_bits in ("all", "none"):
                        rp.ptw.used = used_bits == "all"
                    else:
                        rp.ptw.used = used_bits[position % len(used_bits)]
                victims = pc._choose_core_victims(want)
                outcomes.append(([rp.pageno for rp in victims],
                                 [ptw.used for ptw in seg.ptws]))
                for rp in victims:
                    pc._evict_core_move(rp)
            assert outcomes[0] == outcomes[1]
            load(gaps)

    @pytest.mark.parametrize(
        "position_of", [lambda n: -1, lambda n: n],
        ids=["minus_one", "past_the_end"],
    )
    def test_bad_position_raises(self, position_of):
        """A position outside the census raises an error naming the
        policy and the position, and the fault evicts nothing."""
        config = SystemConfig(page_size=4, core_frames=3, bulk_frames=8,
                              disk_frames=32)
        sim, tc, hierarchy, ast, pc = build(
            config, PageControlKind.SEQUENTIAL,
            FixedPositionPolicy(position_of),
        )
        seg = ast.activate(uid=1, n_pages=4)
        for pageno in range(3):
            pc.service_sync(seg, pageno)
        with pytest.raises(ValueError, match=r"policy 'broken' chose "
                           r"position (-1|3) of a 3-page census"):
            pc.service_sync(seg, 3)
        assert [ptw.in_core for ptw in seg.ptws] == [True] * 3 + [False]
        assert pc.core_evictions == 0

    def test_lru_table_stays_census_sized(self):
        """Paging many distinct pages through a small core leaves LRU
        with estimates for the census and the pages loaded since the
        last round, not for every page it has ever seen."""
        config = SystemConfig(page_size=4, core_frames=8, bulk_frames=16,
                              disk_frames=512)
        policy = LRUPolicy()
        sim, tc, hierarchy, ast, pc = build(
            config, PageControlKind.SEQUENTIAL, policy
        )
        seg = ast.activate(uid=1, n_pages=400)
        bound = config.core_frames + pc._core_eviction_batch()
        for pageno in range(seg.n_pages):
            sim.clock.advance(10)
            pc.service_sync(seg, pageno)
            assert len(policy._last_seen) <= bound
        assert pc.core_evictions >= seg.n_pages - config.core_frames


class TestBulkCensus:
    def test_census_is_fifo_and_follows_each_page(self, config):
        """The census lists bulk pages oldest first; a page-in from
        bulk, a move to disk and a segment flush each remove exactly
        their own pages from it."""
        sim, tc, hierarchy, ast, pc = build(config, PageControlKind.SEQUENTIAL)
        n = config.core_frames
        a = ast.activate(uid=1, n_pages=n)
        b = ast.activate(uid=2, n_pages=n)
        for seg in (a, b):
            for pageno in range(n):
                pc.service_sync(seg, pageno)
        assert list(pc._bulk_pages) == [(1, page) for page in range(n)]
        # A full core: one round sends b's oldest batch to bulk, then
        # page 5 of a comes back from bulk.
        pc.service_sync(a, 5)
        batch = pc._core_eviction_batch()
        census = [(1, page) for page in range(n) if page != 5]
        census += [(2, page) for page in range(batch)]
        assert list(pc._bulk_pages) == census
        pc._evict_bulk_move()
        assert a.homes[0].level == "disk"
        assert list(pc._bulk_pages) == census[1:]
        pc.flush_segment(a)
        assert list(pc._bulk_pages) == [(2, page) for page in range(batch)]
