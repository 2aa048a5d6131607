"""Tests for the observability plane (repro.obs): the metrics
registry, the tracer, snapshot validation, and the end-to-end wiring
through a live system."""

import collections
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import SystemConfig
from repro.faults.harness import harness_config, standard_workload
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.clock import Clock
from repro.obs import (
    NULL_TRACER,
    SCHEMA,
    SCHEMA_VERSION,
    MetricsRegistry,
    Tracer,
    validate_snapshot,
)
from repro.system import MulticsSystem


def nearest_rank(values, q):
    """The nearest-rank percentile by brute force: clamp ``q`` to
    [0, 1], then walk a tally of the values up to the observation of
    rank ``int(q * (n - 1) + 0.5)`` (None when there are none)."""
    if not values:
        return None
    q = 0.0 if q < 0 else 1.0 if q > 1 else q
    rank = int(q * (len(values) - 1) + 0.5)
    tally = collections.Counter(values)
    seen = 0
    for value in sorted(tally):
        seen += tally[value]
        if seen > rank:
            return value
    raise AssertionError("rank past the tally")


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b", "doc")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a.b", "doc").inc(-1)

    def test_name_validation(self):
        reg = MetricsRegistry()
        for bad in ("nodots", "Upper.case", "a..b", "a.b-c", ".a.b", "a.b."):
            with pytest.raises(ValueError):
                reg.counter(bad, "doc")

    def test_source_callable_wins_over_stored_value(self):
        reg = MetricsRegistry()
        box = {"n": 0}
        c = reg.counter("a.b", "doc", source=lambda: box["n"])
        box["n"] = 7
        assert c.value == 7

    def test_reregistration_rebinds_source(self):
        """Latest owner wins — a rebuilt component takes over its names."""
        reg = MetricsRegistry()
        reg.counter("a.b", "doc", source=lambda: 1)
        c = reg.counter("a.b", "doc", source=lambda: 2)
        assert c.value == 2
        assert reg.names().count("a.b") == 1

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b", "doc")
        with pytest.raises(ValueError):
            reg.gauge("a.b", "doc")

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("g.x", "doc")
        g.set(3)
        assert g.value == 3

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h.x", "doc")
        assert h.mean == 0.0
        for v in (2, 4, 6):
            h.observe(v)
        s = h.summary()
        assert s == {"count": 3, "sum": 12, "min": 2, "max": 6, "mean": 4.0}

    def test_snapshot_stamps_clock(self):
        clock = Clock()
        reg = MetricsRegistry(clock=clock)
        reg.counter("a.b", "doc").inc(2)
        clock.advance(99)
        snap = reg.snapshot()
        assert snap["schema"] == SCHEMA
        assert snap["schema_version"] == SCHEMA_VERSION
        assert snap["clock"] == 99
        assert snap["counters"]["a.b"] == 2

    def test_snapshot_without_clock(self):
        snap = MetricsRegistry().snapshot()
        assert snap["clock"] is None

    def test_to_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a.b", "doc").inc()
        reg.gauge("g.x", "doc").set(5)
        reg.histogram("h.x", "doc").observe(1)
        doc = json.loads(reg.to_json())
        assert validate_snapshot(doc) == []

    def test_delta(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b", "doc")
        before = reg.snapshot()
        c.inc(10)
        reg.counter("c.d", "doc").inc(3)
        after = reg.snapshot()
        diff = MetricsRegistry.delta(before, after)
        assert diff == {"a.b": 10, "c.d": 3}

    def test_validate_snapshot_flags_violations(self):
        good = MetricsRegistry().snapshot()
        assert validate_snapshot(good) == []
        assert validate_snapshot({"schema": "wrong"})  # non-empty
        bad = MetricsRegistry().snapshot()
        bad["counters"] = {"a.b": "nan"}
        assert validate_snapshot(bad)
        bad2 = MetricsRegistry().snapshot()
        bad2["histograms"] = {"h.x": {"count": 1}}  # missing keys
        assert validate_snapshot(bad2)


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(clock=None, enabled=False)
        sid = t.begin("gate", gate="x")
        assert sid == -1
        t.end(sid)
        t.point("ring_crossing")
        assert t.spans == []

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_enabled_spans_carry_clock_and_attrs(self):
        clock = Clock()
        t = Tracer(clock, enabled=True)
        sid = t.begin("gate", gate="hcs_$initiate")
        clock.advance(40)
        t.end(sid, outcome="granted")
        (span,) = t.spans
        assert span.name == "gate"
        assert span.start == 0 and span.end == 40
        assert span.duration == 40
        assert span.attrs["gate"] == "hcs_$initiate"
        assert span.attrs["outcome"] == "granted"

    def test_point_is_zero_duration(self):
        clock = Clock()
        clock.advance(5)
        t = Tracer(clock, enabled=True)
        t.point("ring_crossing", from_ring=4, to_ring=0)
        (span,) = t.spans
        assert span.start == span.end == 5
        assert span.duration == 0

    def test_by_name_and_counts(self):
        t = Tracer(Clock(), enabled=True)
        t.point("a")
        t.point("a")
        t.point("b")
        assert len(t.by_name("a")) == 2
        assert t.counts() == {"a": 2, "b": 1}

    def test_to_dicts(self):
        t = Tracer(Clock(), enabled=True)
        t.point("a", k=1)
        (d,) = t.to_dicts()
        assert d["name"] == "a" and d["attrs"] == {"k": 1}

    def test_clear_and_disable(self):
        t = Tracer(Clock(), enabled=True)
        t.point("a")
        t.clear()
        assert t.spans == []
        t.disable()
        assert t.begin("a") == -1

    def test_abort_closes_span_and_marks_it(self):
        clock = Clock()
        t = Tracer(clock, enabled=True)
        sid = t.begin("page_fault", page=3)
        clock.advance(25)
        t.abort(sid, steps=1)
        (span,) = t.spans
        assert span.end == 25
        assert span.attrs["aborted"] is True
        assert span.attrs["steps"] == 1
        assert t.open_spans() == []

    def test_abort_is_noop_when_disabled(self):
        t = Tracer(clock=None, enabled=False)
        t.abort(-1)
        t.abort(-1, steps=0)
        assert t.spans == []

    def test_open_spans_reports_unclosed(self):
        t = Tracer(Clock(), enabled=True)
        sid = t.begin("gate")
        assert len(t.open_spans()) == 1
        t.end(sid)
        assert t.open_spans() == []


class TestChromeTraceExport:
    def test_export_shape_and_lanes(self):
        clock = Clock()
        t = Tracer(clock, enabled=True)
        sid = t.begin("gate", gate="hcs_$initiate", process="alice")
        clock.advance(40)
        t.end(sid, outcome="granted")
        t.point("ring_crossing", from_ring=4, to_ring=0)
        doc = t.to_chrome_trace()
        events = doc["traceEvents"]
        # Metadata names the synthetic process and the kernel lane.
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        gate_ev = next(e for e in xs if e["name"] == "gate")
        assert gate_ev["ts"] == 0 and gate_ev["dur"] == 40
        cross_ev = next(e for e in xs if e["name"] == "ring_crossing")
        # Distinct lanes: the span carries a process, the point does not.
        assert gate_ev["tid"] != cross_ev["tid"]
        assert cross_ev["tid"] == 0  # kernel lane
        # Round-trips through JSON.
        json.loads(json.dumps(doc))

    def test_unclosed_span_exported_as_aborted_not_dropped(self):
        clock = Clock()
        t = Tracer(clock, enabled=True)
        t.begin("page_fault", process="w0")
        clock.advance(10)
        doc = t.to_chrome_trace()
        (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert ev["dur"] == 0
        assert ev["args"]["aborted"] is True


class TestSpanLeakRegression:
    """A page-fault generator dropped mid-service (process destroy,
    fatal injected fault) must not leak an open span."""

    def build(self, kind):
        from repro.config import PageControlKind
        from repro.hw.clock import Simulator
        from repro.hw.memory import MemoryHierarchy
        from repro.proc.scheduler import TrafficController
        from repro.vm.page_control import make_page_control
        from repro.vm.segment_control import ActiveSegmentTable

        config = SystemConfig(
            page_size=16, core_frames=8, bulk_frames=32, disk_frames=256,
            n_processors=1, n_virtual_processors=4, quantum=500,
        )
        config.validate()
        sim = Simulator()
        tc = TrafficController(sim, config)
        hierarchy = MemoryHierarchy(config)
        ast = ActiveSegmentTable(hierarchy)
        tracer = Tracer(sim.clock, enabled=True)
        pc = make_page_control(
            PageControlKind[kind], sim, tc, hierarchy, ast, config,
            tracer=tracer,
        )
        return tc, ast, pc, tracer

    @pytest.mark.parametrize("kind", ["SEQUENTIAL", "PARALLEL"])
    def test_dropped_fault_generator_aborts_its_span(self, kind):
        from repro.proc.process import Process

        tc, ast, pc, tracer = self.build(kind)
        seg = ast.activate(uid=1, n_pages=1)
        proc = Process("victim", ring=4)
        gen = pc.fault(proc, seg, 0)
        next(gen)          # reach `started = yield Now()`
        gen.send(0)        # enter the service loop, park at an I/O yield
        assert len(tracer.open_spans()) == 1
        gen.close()        # drop mid-service (GeneratorExit at the yield)
        assert tracer.open_spans() == []
        (span,) = tracer.by_name("page_fault")
        assert span.attrs["aborted"] is True
        assert span.end is not None

    def test_process_destroy_mid_fault_leaves_no_open_spans(self):
        """End-to-end: a faulting process torn down by the scheduler
        (generator garbage-collected) leaves a closed, aborted span."""
        from repro.proc.ipc import Charge
        from repro.proc.process import Process

        tc, ast, pc, tracer = self.build("SEQUENTIAL")
        seg = ast.activate(uid=1, n_pages=1)

        def body(proc):
            yield Charge(10)
            yield from pc.fault(proc, seg, 0)

        victim = Process("victim", body=body, ring=4)
        tc.add_process(victim)
        tc.run(until=12)  # partway into the fault's I/O service
        assert len(tracer.open_spans()) == 1
        victim.start().close()
        assert tracer.open_spans() == []


class TestSystemWiring:
    """The obs plane threaded through a whole live system."""

    def make_traced_system(self):
        plan = FaultPlan(
            [FaultSpec("memory.transfer", "transfer_error", at_ops=(2,))],
            seed=3,
        )
        config = harness_config(fault_plan=plan, tracing=True)
        system = MulticsSystem(config).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        system.register_user("Eve", "Spies", "eve-pw")
        return system

    def test_tracing_captures_all_span_kinds(self):
        system = self.make_traced_system()
        standard_workload(system, tag="t")
        counts = system.tracer.counts()
        assert counts.get("gate", 0) > 0
        assert counts.get("ring_crossing", 0) > 0
        assert counts.get("page_fault", 0) > 0
        assert counts.get("interrupt", 0) > 0
        assert counts.get("retry", 0) > 0

    def test_tracing_disabled_by_default_and_costless(self):
        config = harness_config()
        assert config.tracing is False
        system = MulticsSystem(config).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        system.register_user("Eve", "Spies", "eve-pw")
        standard_workload(system, tag="d")
        assert system.tracer.spans == []

    def test_registry_snapshot_reflects_activity(self):
        system = self.make_traced_system()
        standard_workload(system, tag="s")
        snap = system.metrics.snapshot()
        assert validate_snapshot(snap) == []
        c = snap["counters"]
        assert c["gate.calls"] > 0
        assert c["gate.cycles"] > 0
        assert c["pc.faults_serviced"] > 0
        assert c["mem.transfers"] > 0
        assert c["intr.delivered"] > 0
        assert c["io.buffer.puts"] >= 3
        assert c["faults.injected"] >= 1
        assert c["faults.recovered"] >= 1
        assert snap["histograms"]["faults.recovery_ticks"]["count"] >= 1
        assert snap["clock"] == system.clock.now

    def test_identical_simulated_cycles_traced_or_not(self):
        """Tracing must not perturb the simulation: same workload, same
        seed, same simulated clock with the tracer on or off."""
        clocks = {}
        for tracing in (False, True):
            config = harness_config(tracing=tracing)
            system = MulticsSystem(config).boot()
            system.register_user("Alice", "Crypto", "alice-pw")
            system.register_user("Eve", "Spies", "eve-pw")
            standard_workload(system, tag="z")
            clocks[tracing] = system.clock.now
        assert clocks[False] == clocks[True]


class TestHistogramReservoir:
    """The bounded deterministic reservoir behind percentile reads."""

    def test_reservoir_is_bounded_and_aggregates_exact(self):
        from repro.obs.registry import Histogram

        h = Histogram("h.x", reservoir_size=64)
        for i in range(10_000):
            h.observe(i)
        assert len(h.reservoir) == 64
        assert h.count == 10_000
        assert h.sum == sum(range(10_000))
        assert (h.min, h.max) == (0, 9_999)

    def test_same_sequence_same_reservoir_and_percentiles(self):
        from repro.obs.registry import Histogram

        runs = []
        for _ in range(2):
            h = Histogram("h.x", reservoir_size=32)
            for i in range(1_000):
                h.observe((i * 37) % 101)
            runs.append((list(h.reservoir), h.percentile(0.5),
                         h.percentile(0.95)))
        assert runs[0] == runs[1]

    def test_reservoir_seed_is_per_name(self):
        from repro.obs.registry import Histogram

        a, b = Histogram("h.a", reservoir_size=8), Histogram(
            "h.b", reservoir_size=8)
        for i in range(500):
            a.observe(i)
            b.observe(i)
        # Same aggregates either way; the kept samples differ because
        # each name seeds its own RNG.
        assert (a.count, a.sum) == (b.count, b.sum)
        assert a.reservoir != b.reservoir

    def test_percentiles_exact_under_the_bound(self):
        from repro.obs.registry import Histogram

        h = Histogram("h.x")
        assert h.percentile(0.5) is None
        for v in (10, 20, 30, 40, 50):
            h.observe(v)
        assert h.percentile(0.0) == 10
        assert h.percentile(0.5) == 30
        assert h.percentile(1.0) == 50
        assert h.percentile(-3) == 10   # q clamped
        assert h.percentile(7) == 50

    @given(st.integers(0, 600), st.integers(0, 2**32),
           st.sampled_from([1, 7, 1_000_000]),
           st.lists(st.floats(-2.0, 3.0)
                    | st.sampled_from([0.0, 0.5, 0.95, 1.0,
                                       -math.inf, math.inf]),
                    min_size=1, max_size=5))
    @example(600, 1975, 1_000_000, [0.5, 0.95])
    @example(513, 2718, 7, [-0.5, 0.0, 1.0, 1.5])
    @example(512, 1, 1_000_000, [0.95])
    @example(0, 0, 1, [0.5, 0.95])
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_one_sort_read_matches_a_nearest_rank_model(self, n, seed,
                                                        spread, qs):
        """``percentiles`` sorts the reservoir once for every ``q`` and
        ``percentile`` reads through it; both give what the model gives,
        past the reservoir's size too, where replacement has run."""
        from repro.obs.registry import RESERVOIR_SIZE, Histogram

        rng = random.Random(seed)
        h = Histogram("h.x")
        for _ in range(n):
            h.observe(rng.randrange(spread))
        assert len(h.reservoir) == min(n, RESERVOIR_SIZE)
        want = [nearest_rank(h.reservoir, q) for q in qs]
        assert h.percentiles(tuple(qs)) == want
        assert [h.percentile(q) for q in qs] == want

    def test_summary_shape_is_unchanged(self):
        from repro.obs.registry import Histogram

        h = Histogram("h.x")
        h.observe(2)
        h.observe(4)
        assert h.summary() == {
            "count": 2, "sum": 6, "min": 2, "max": 4, "mean": 3.0,
        }


class TestDeltaSemantics:
    """``MetricsRegistry.delta`` is counters-only by design: counters
    are flows (differences mean activity); gauge levels and histogram
    summaries are not."""

    def test_counters_only_gauges_and_histograms_ignored(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b", "doc")
        g = reg.gauge("g.x", "doc")
        h = reg.histogram("h.x", "doc")
        g.set(100)
        h.observe(5)
        before = reg.snapshot()
        c.inc(4)
        g.set(1)        # level moved down: not a flow, not in delta
        h.observe(50)   # summary changed: not in delta either
        after = reg.snapshot()
        assert MetricsRegistry.delta(before, after) == {"a.b": 4}

    def test_counter_registered_between_snapshots_counts_from_zero(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.counter("new.flow", "doc").inc(7)
        after = reg.snapshot()
        assert MetricsRegistry.delta(before, after) == {"new.flow": 7}

    def test_quiet_counters_read_zero(self):
        # Every counter known to the *after* snapshot appears, quiet
        # ones as an explicit 0 — "no activity" is an answer, not a
        # missing key.
        reg = MetricsRegistry()
        reg.counter("a.b", "doc").inc(2)
        busy = reg.counter("c.d", "doc")
        before = reg.snapshot()
        busy.inc()
        assert MetricsRegistry.delta(before, reg.snapshot()) == \
            {"a.b": 0, "c.d": 1}


class TestTimelineCounterTracks:
    """`timeline_counter_events`: the repro.timeline/v1 → Perfetto
    counter-track projection (scripts/export_trace.py --counters)."""

    CANNED = {
        "schema": "repro.timeline/v1", "schema_version": 1,
        "t0": 0, "interval": 100, "capacity": 8, "dropped": 0,
        "samples": [
            {"index": 1, "t": 100, "dt": 100,
             "counters": {"smp.busy_cycles": 90},
             "gauges": {"smp.cpus": 2},
             "histograms": {"job.latency":
                            {"count": 3, "sum": 60, "p50": 15, "p95": 30}}},
            {"index": 2, "t": 200, "dt": 100,
             "counters": {}, "gauges": {"smp.cpus": 1},
             "histograms": {"job.latency":
                            {"count": 0, "sum": 0, "p50": None,
                             "p95": None}}},
        ],
        "breaches": [
            {"t": 200, "index": 2, "rule": "capacity",
             "kind": "gauge_floor", "value": 1, "limit": 2},
        ],
    }

    def test_projection_shapes(self):
        from repro.obs import timeline_counter_events

        events = timeline_counter_events(self.CANNED)
        counters = [e for e in events if e["ph"] == "C"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in counters} == {
            "smp.busy_cycles", "smp.cpus", "job.latency",
        }
        # Every counter point is timestamped at its sample time; the
        # all-None percentile row at t=200 emits no track point.
        assert [e["ts"] for e in counters if e["name"] == "smp.cpus"] == \
            [100, 200]
        assert [e["ts"] for e in counters if e["name"] == "job.latency"] \
            == [100]
        [breach] = instants
        assert breach["name"] == "breach:capacity"
        assert breach["ts"] == 200 and breach["s"] == "p"
        assert breach["args"] == {
            "kind": "gauge_floor", "value": 1, "limit": 2,
        }

    def test_events_ride_the_chrome_trace_export(self):
        t = Tracer(clock=Clock(), enabled=True)
        t.point("gate", process="p1")
        doc = t.to_chrome_trace(timeline=self.CANNED)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "C", "i", "M"} <= phases
