"""Tests for replacement policies.

Every policy answers one call, ``victim_position``, over the census of
resident pages as ``(slot, used)`` pairs in load order.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vm.replacement import (
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    make_policy,
)


def census(*bits):
    """Pages with slots 0, 1, ... in load order and the given used bits."""
    return list(enumerate(bits))


class TestFIFO:
    def test_oldest_evicted(self):
        assert FIFOPolicy().victim_position(census(False, False, False)) == 0

    def test_ignores_used_bit(self):
        assert FIFOPolicy().victim_position(census(True, False)) == 0

    def test_victim_position_reads_no_bit(self):
        pages = iter(census(True, False, True))
        assert FIFOPolicy().victim_position(pages) == 0
        assert list(pages) == census(True, False, True)


class TestClock:
    def test_prefers_unused(self):
        assert ClockPolicy().victim_position(census(True, False)) == 1

    def test_oldest_unused_wins(self):
        assert ClockPolicy().victim_position(census(True, False, False)) == 1

    def test_all_used_falls_back_to_fifo(self):
        assert ClockPolicy().victim_position(census(True, True)) == 0

    def test_victim_position_stops_at_first_unused(self):
        pages = iter(census(True, True, False, True, False))
        assert ClockPolicy().victim_position(pages) == 2
        assert list(pages) == [(3, True), (4, False)]

    def test_victim_position_all_used_is_first(self):
        assert ClockPolicy().victim_position(census(True, True, True)) == 0


class TestLRU:
    def test_untouched_page_evicted_before_touched(self):
        policy = LRUPolicy()
        # Round 1: both unused -> both recency 0; the older page goes.
        assert policy.victim_position([(10, False), (20, False)]) == 0
        # Round 2: slot 10 now used, slot 20 not: 20 is least recent.
        assert policy.victim_position([(10, True), (20, False)]) == 1

    def test_note_loaded_updates_recency(self):
        policy = LRUPolicy()
        policy.victim_position([(1, False), (2, False)])
        policy.note_loaded(1, time=100)
        # Slot 1 was just loaded; slot 2 is older.
        assert policy.victim_position([(1, False), (2, False)]) == 1

    def test_round_forgets_pages_outside_its_census(self):
        policy = LRUPolicy()
        policy.victim_position([(1, True), (2, False), (3, False)])
        policy.note_loaded(4, time=0)
        assert set(policy._last_seen) == {1, 2, 3, 4}
        # Pages 2 and 3 were evicted; page 1 keeps its estimate.
        assert policy.victim_position([(1, False), (4, False)]) == 0
        assert policy._last_seen == {1: 1, 4: 1}

    def test_first_page_with_the_oldest_estimate_wins(self):
        """One recency pass over the whole census; among the pages with
        the oldest estimate, the first in load order goes."""
        policy = LRUPolicy()
        policy.victim_position(census(True, True, True))
        policy.note_loaded(3, time=0)
        # Slot 0 is used again; slots 1, 2 and 3 tie on round 1.
        pages = iter(census(True, False, False, False))
        assert policy.victim_position(pages) == 1
        assert list(pages) == []


class TestFactory:
    @pytest.mark.parametrize("name", ["fifo", "clock", "lru"])
    def test_known_policies(self, name):
        assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("random")


@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_every_policy_returns_valid_index(bits):
    """Property: all policies pick an in-range victim for any census."""
    for name in ("fifo", "clock", "lru"):
        index = make_policy(name).victim_position(census(*bits))
        assert 0 <= index < len(bits)
