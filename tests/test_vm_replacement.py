"""Tests for replacement policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vm.replacement import (
    Candidate,
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    make_policy,
)


def cand(slot, used=False, modified=False, loaded_at=0):
    return Candidate(slot=slot, used=used, modified=modified, loaded_at=loaded_at)


class TestFIFO:
    def test_oldest_evicted(self):
        policy = FIFOPolicy()
        cands = [cand(0, loaded_at=10), cand(1, loaded_at=5), cand(2, loaded_at=20)]
        assert policy.select(cands) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FIFOPolicy().select([])

    def test_ignores_used_bit(self):
        policy = FIFOPolicy()
        cands = [cand(0, used=True, loaded_at=1), cand(1, used=False, loaded_at=2)]
        assert policy.select(cands) == 0

    def test_victim_position_reads_no_bit(self):
        bits = iter([True, False, True])
        assert FIFOPolicy().victim_position(bits) == 0
        assert list(bits) == [True, False, True]


class TestClock:
    def test_prefers_unused(self):
        policy = ClockPolicy()
        cands = [cand(0, used=True, loaded_at=1), cand(1, used=False, loaded_at=2)]
        assert policy.select(cands) == 1

    def test_oldest_unused_wins(self):
        policy = ClockPolicy()
        cands = [
            cand(0, used=False, loaded_at=9),
            cand(1, used=False, loaded_at=3),
        ]
        assert policy.select(cands) == 1

    def test_all_used_falls_back_to_fifo(self):
        policy = ClockPolicy()
        cands = [cand(0, used=True, loaded_at=9), cand(1, used=True, loaded_at=3)]
        assert policy.select(cands) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClockPolicy().select([])

    def test_victim_position_stops_at_first_unused(self):
        bits = iter([True, True, False, True, False])
        assert ClockPolicy().victim_position(bits) == 2
        assert list(bits) == [True, False]

    def test_victim_position_all_used_is_first(self):
        assert ClockPolicy().victim_position([True, True, True]) == 0


class TestLRU:
    def test_untouched_page_evicted_before_touched(self):
        policy = LRUPolicy()
        # Round 1: both unused -> both recency 0; slot order by loaded_at.
        cands = [cand(10, used=False, loaded_at=1), cand(20, used=False, loaded_at=2)]
        assert policy.select(cands) == 0
        # Round 2: slot 10 now used, slot 20 not: 20 is least recent.
        cands = [cand(10, used=True, loaded_at=1), cand(20, used=False, loaded_at=2)]
        assert policy.select(cands) == 1

    def test_note_loaded_updates_recency(self):
        policy = LRUPolicy()
        policy.select([cand(1), cand(2)])
        policy.note_loaded(1, time=100)
        # Slot 1 was just loaded; slot 2 is older.
        assert policy.select([cand(1), cand(2)]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LRUPolicy().select([])

    def test_round_forgets_pages_outside_its_census(self):
        policy = LRUPolicy()
        policy.select([cand(1, used=True), cand(2), cand(3)])
        policy.note_loaded(4, time=0)
        assert set(policy._last_seen) == {1, 2, 3, 4}
        # Pages 2 and 3 were evicted; page 1 keeps its estimate.
        assert policy.select([cand(1), cand(4)]) == 0
        assert policy._last_seen == {1: 1, 4: 1}

    def test_has_no_victim_position(self):
        # LRU needs more than the used bits in load order.
        assert not hasattr(LRUPolicy(), "victim_position")


class TestFactory:
    @pytest.mark.parametrize("name", ["fifo", "clock", "lru"])
    def test_known_policies(self, name):
        assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("random")


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans(), st.integers(0, 1000)),
        min_size=1,
        max_size=30,
    )
)
def test_every_policy_returns_valid_index(raw):
    """Property: all policies pick an in-range victim for any census."""
    cands = [
        cand(slot=i, used=u, modified=m, loaded_at=t)
        for i, (u, m, t) in enumerate(raw)
    ]
    for name in ("fifo", "clock", "lru"):
        index = make_policy(name).select(cands)
        assert 0 <= index < len(cands)
