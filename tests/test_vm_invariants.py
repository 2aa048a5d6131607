"""Property-based invariants of the memory system.

A stateful hypothesis machine drives page control with arbitrary
interleavings of touches, synchronous fault servicing, segment
creation, deletion and the passage of time, under each replacement
policy, checking the storage invariants that page control must never
break — each page has exactly one home, censuses agree with the
hardware, resident pages stay in load order (replacement rounds
depend on it), and data written is data read back.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.config import PageControlKind, SystemConfig
from repro.hw.clock import Simulator
from repro.hw.memory import MemoryHierarchy
from repro.proc.scheduler import TrafficController
from repro.vm.page_control import make_page_control
from repro.vm.replacement import make_policy
from repro.vm.segment_control import ActiveSegmentTable


class PageControlMachine(RuleBasedStateMachine):
    @initialize(kind=st.sampled_from(list(PageControlKind)),
                policy=st.sampled_from(["clock", "fifo", "lru"]))
    def setup(self, kind, policy):
        config = SystemConfig(
            page_size=8, core_frames=6, bulk_frames=10, disk_frames=128,
        )
        self.config = config
        self.sim = Simulator()
        tc = TrafficController(self.sim, config)
        self.hierarchy = MemoryHierarchy(config)
        self.ast = ActiveSegmentTable(self.hierarchy)
        self.pc = make_page_control(
            kind, self.sim, tc, self.hierarchy, self.ast, config,
            make_policy(policy),
        )
        self.segments = {}
        self.shadow = {}   # (uid, pageno, offset) -> expected word
        self.next_uid = 1

    # -- rules ------------------------------------------------------------

    @rule(n_pages=st.integers(1, 4))
    def create_segment(self, n_pages):
        if self.hierarchy.disk.free_count < n_pages + 4:
            return
        uid = self.next_uid
        self.next_uid += 1
        self.segments[uid] = self.ast.activate(uid, n_pages)

    @rule(data=st.data())
    def write_word(self, data):
        if not self.segments:
            return
        uid = data.draw(st.sampled_from(sorted(self.segments)))
        seg = self.segments[uid]
        pageno = data.draw(st.integers(0, seg.n_pages - 1))
        offset = data.draw(st.integers(0, self.config.page_size - 1))
        value = data.draw(st.integers(0, 2**18))
        self.pc.service_sync(seg, pageno)
        ptw = seg.ptws[pageno]
        self.hierarchy.core.write(ptw.frame, offset, value)
        ptw.modified = True
        self.shadow[(uid, pageno, offset)] = value

    @rule(data=st.data())
    def read_back(self, data):
        if not self.shadow:
            return
        key = data.draw(st.sampled_from(sorted(self.shadow)))
        uid, pageno, offset = key
        if uid not in self.segments:
            return
        seg = self.segments[uid]
        self.pc.service_sync(seg, pageno)
        assert (
            self.hierarchy.core.read(seg.ptws[pageno].frame, offset)
            == self.shadow[key]
        )

    @rule(data=st.data())
    def touch_random_page(self, data):
        if not self.segments:
            return
        uid = data.draw(st.sampled_from(sorted(self.segments)))
        seg = self.segments[uid]
        pageno = data.draw(st.integers(0, seg.n_pages - 1))
        self.pc.service_sync(seg, pageno)

    @rule(cycles=st.integers(0, 50))
    def advance_clock(self, cycles):
        self.sim.clock.advance(cycles)

    @rule(data=st.data())
    def delete_segment(self, data):
        if not self.segments:
            return
        uid = data.draw(st.sampled_from(sorted(self.segments)))
        seg = self.segments.pop(uid)
        self.pc.flush_segment(seg)
        self.ast.drop(uid)
        self.shadow = {
            key: value for key, value in self.shadow.items() if key[0] != uid
        }

    # -- invariants ------------------------------------------------------------

    @invariant()
    def every_page_has_exactly_one_home(self):
        for seg in self.segments.values():
            for pageno in range(seg.n_pages):
                in_core = seg.ptws[pageno].in_core
                has_home = seg.homes[pageno] is not None
                assert in_core != has_home, (
                    f"page {pageno} of {seg.uid}: in_core={in_core}, "
                    f"home={seg.homes[pageno]}"
                )

    @invariant()
    def resident_census_matches_hardware(self):
        hw_resident = {
            (seg.uid, pageno)
            for seg in self.segments.values()
            for pageno in seg.resident_pages()
        }
        census = set(self.pc.resident)
        assert hw_resident == census

    @invariant()
    def resident_iterates_in_load_order(self):
        loaded = [rp.loaded_at for rp in self.pc.resident.values()]
        assert loaded == sorted(loaded)

    @invariant()
    def bulk_census_matches_homes(self):
        on_bulk = {
            (seg.uid, pageno)
            for seg in self.segments.values()
            for pageno, home in enumerate(seg.homes)
            if home is not None and home.level == "bulk"
        }
        assert set(self.pc._bulk_pages) == on_bulk

    @invariant()
    def core_never_overcommitted(self):
        assert self.hierarchy.core.used_count <= self.hierarchy.core.n_frames

    @invariant()
    def homes_point_at_allocated_frames(self):
        for seg in self.segments.values():
            for home in seg.homes:
                if home is not None:
                    level = self.hierarchy.level(home.level)
                    assert level.is_allocated(home.frame)


PageControlMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestPageControlInvariants = PageControlMachine.TestCase
