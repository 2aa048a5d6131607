"""Tests for the two page-control designs."""

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


class SelectOnly:
    """A policy stripped to ``select``: page control must build the
    :class:`Candidate` census for it."""

    def __init__(self, policy):
        self.name = policy.name
        self.select = policy.select
        self.note_loaded = policy.note_loaded


class FixedIndexPolicy:
    """A broken policy: ``select`` returns ``index_of(candidates)``."""

    name = "broken"

    def __init__(self, index_of):
        self.index_of = index_of

    def select(self, candidates):
        return self.index_of(candidates)

    def note_loaded(self, slot, time):
        pass


def replacement_round(policy, census, want):
    """Load one page per ``(used, modified, loaded_at)`` of ``census``
    through the fault path, set its bits, run one replacement round,
    and return the victims' page numbers and every page's used bit."""
    config = SystemConfig(page_size=4, core_frames=48, bulk_frames=48,
                          disk_frames=128)
    sim, tc, hierarchy, ast, pc = build(
        config, PageControlKind.SEQUENTIAL, policy
    )
    seg = ast.activate(uid=1, n_pages=len(census))
    for pageno, (used, modified, loaded_at) in enumerate(census):
        sim.clock.advance_to(loaded_at)
        pc.service_sync(seg, pageno)
        seg.ptws[pageno].used = used
        seg.ptws[pageno].modified = modified
    victims = pc._choose_core_victims(want)
    return [rp.pageno for rp in victims], [ptw.used for ptw in seg.ptws]


class TestReplacementRound:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(["clock", "fifo"]),
        pages=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.integers(0, 3)),
            min_size=1, max_size=40,
        ),
        data=st.data(),
    )
    def test_victim_position_matches_select(self, name, pages, data):
        """The oracle for the in-kernel policies' fast path: given only
        the used bits in load order, they evict what ``select`` over
        the full census evicts, in the same order, and the sweep leaves
        the same bits.  Load times never decrease and often tie."""
        want = data.draw(st.integers(1, len(pages) + 2))
        census, now = [], 0
        for used, modified, gap in pages:
            now += gap
            census.append((used, modified, now))
        policy = make_policy(name)
        assert hasattr(policy, "victim_position")
        assert replacement_round(policy, census, want) == replacement_round(
            SelectOnly(make_policy(name)), census, want
        )

    @pytest.mark.parametrize(
        "index_of", [lambda cands: -1, lambda cands: len(cands)],
        ids=["minus_one", "past_the_end"],
    )
    def test_bad_index_substitutes_fifo(self, index_of):
        """A policy index out of range evicts the oldest page, and the
        round still clears every used bit."""
        census = [(True, False, 3), (False, True, 5), (True, False, 5),
                  (False, False, 9)]
        victims, used = replacement_round(
            FixedIndexPolicy(index_of), census, want=1
        )
        assert victims == [0]
        assert not any(used)
        victims, _ = replacement_round(
            FixedIndexPolicy(index_of), census, want=3
        )
        assert victims == [0, 1, 2]

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
