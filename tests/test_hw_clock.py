"""Tests for the discrete-event core."""

import pytest

from repro.hw.clock import Clock, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_advance(self):
        clock = Clock()
        assert clock.advance(10) == 10
        assert clock.now == 10

    def test_advance_to(self):
        clock = Clock()
        clock.advance_to(42)
        assert clock.now == 42

    def test_no_backwards_time(self):
        clock = Clock()
        clock.advance(5)
        with pytest.raises(ValueError):
            clock.advance_to(3)

    def test_no_negative_advance(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, lambda: order.append("b"))
        sim.schedule(5, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.clock.now == 20

    def test_fifo_within_same_time(self):
        sim = Simulator()
        order = []
        for tag in ("x", "y", "z"):
            sim.schedule(7, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == ["x", "y", "z"]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1, lambda: chain(n + 1))

        sim.schedule(0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.clock.now == 3

    def test_run_until_stops_clock_at_limit(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == []
        assert sim.clock.now == 50
        sim.run()
        assert fired == [1]

    def test_run_until_past_all_events_advances_clock(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run(until=500)
        assert sim.clock.now == 500

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)
        sim.clock.advance(10)
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_event_budget_guards_livelock(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_pending_count(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending == 2
        sim.step()
        assert sim.pending == 1


class TestSimulatorBucket:
    """Delay-0 events go to a FIFO bucket beside the heap; together the
    two must run events in exactly (time, seq) order."""

    def run_interleaving(self) -> tuple[list, int, int]:
        """A mix of delay-0, delayed, and absolute-time events, with
        events scheduling further delay-0 events while running."""
        sim = Simulator()
        order: list[str] = []

        def ev(tag):
            return lambda: order.append(tag)

        def chain(tag, n):
            def fire():
                order.append(tag)
                if n:
                    sim.schedule(0, chain(f"{tag}+", n - 1))
            return fire

        sim.schedule(5, ev("d5"))
        sim.schedule(0, ev("z1"))
        sim.schedule_at(0, ev("at0"))   # heap event at the same time
        sim.schedule(0, chain("z2", 2))
        sim.schedule(5, ev("d5b"))
        sim.schedule(2, ev("d2"))
        sim.run()
        sim.schedule(0, ev("tail"))
        pending_mid = sim.pending
        sim.run()
        return order, pending_mid, sim.clock.now

    def test_classic_order_is_time_then_seq(self):
        order, pending_mid, now = self.run_interleaving()
        assert order == ["z1", "at0", "z2", "z2+", "z2++", "d2",
                         "d5", "d5b", "tail"]
        assert pending_mid == 1
        assert now == 5

    def test_pending_and_clear_cover_the_bucket(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        sim.schedule(3, lambda: None)
        assert sim.pending == 2
        assert sim.clear_pending() == 2
        assert sim.pending == 0
        assert sim.run() is None  # nothing left; no error

    def test_step_picks_earliest_across_bucket_and_heap(self):
        sim = Simulator()
        seen = []
        sim.schedule(0, lambda: seen.append("bucket"))
        sim.schedule_at(0, lambda: seen.append("heap"))
        assert sim.step() and sim.step()
        assert seen == ["bucket", "heap"]  # seq order within time 0

    def test_run_until_stops_before_late_bucketless_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(0, lambda: seen.append("now"))
        sim.schedule(10, lambda: seen.append("later"))
        sim.run(until=4)
        assert seen == ["now"]
        assert sim.clock.now == 4
        sim.run()
        assert seen == ["now", "later"]

    def test_events_run_counted_in_run_loop(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0, lambda: None)
        sim.run()
        assert sim.events_run == 5

    def test_event_budget_still_enforced(self):
        sim = Simulator()

        def again():
            sim.schedule(0, again)

        sim.schedule(0, again)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run(max_events=50)
