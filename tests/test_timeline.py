"""The timeline plane: interval sampler, SLO health monitor, the
cross-shard timeline merge, and CPU restore (the chaos plane's
recovery event the E20 storm is built from)."""

import json

import pytest

from repro import MulticsSystem, kernel_config
from repro.faults.chaos import (
    CPU_LOSS_KIND,
    CPU_LOSS_SITE,
    CPU_RESTORE_KIND,
    CPU_RESTORE_SITE,
)
from repro.hw.clock import Clock
from repro.obs import (
    HealthMonitor,
    MetricsRegistry,
    TimelineSampler,
    validate_rules,
    validate_timeline,
    validate_timeline_config,
)
from repro.workloads import WorkloadDriver, generate_population
from repro.workloads.shards import merge_timelines
from repro.workloads.shards.spec import ShardResult
from repro.workloads.driver import WorkloadReport

from tests.test_chaos import scenario, timed
from tests.test_smp import make_jobs, smp_system


def sampler_rig(interval=100, capacity=8):
    """(clock, registry, sampler, counter) over a bare registry."""
    clock = Clock()
    registry = MetricsRegistry(clock=clock)
    counter = registry.counter("work.done", "test counter")
    registry.gauge("work.level", "test gauge").set(7)
    sampler = TimelineSampler(registry, clock, interval=interval,
                              capacity=capacity)
    return clock, registry, sampler, counter


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

class TestTimelineConfig:
    def test_empty_spec_is_valid(self):
        validate_timeline_config({})

    @pytest.mark.parametrize("spec,fragment", [
        ("nope", "must be a dict"),
        ({"cadence": 5}, "unknown keys"),
        ({"interval": 0}, "interval"),
        ({"interval": "fast"}, "interval"),
        ({"capacity": -1}, "capacity"),
        ({"rules": "all"}, "rules"),
        ({"rules": [{"kind": "rate_floor"}]}, "name"),
    ])
    def test_bad_specs_rejected(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            validate_timeline_config(spec)

    def test_system_config_validates_timeline(self):
        config = kernel_config(timeline={"interval": 0})
        with pytest.raises(ValueError, match="interval"):
            config.validate()

    def test_off_by_default(self):
        system = MulticsSystem(kernel_config()).boot()
        assert system.timeline is None
        assert system.health is None
        assert system.timeline_document() is None
        system.shutdown()


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------

class TestTimelineSampler:
    def test_no_sample_before_the_boundary(self):
        clock, _reg, sampler, counter = sampler_rig(interval=100)
        counter.inc(5)
        clock.advance(50)
        assert sampler.poll() is False
        assert sampler.polls == 1
        assert list(sampler.samples) == []

    def test_boundary_sample_carries_deltas_and_levels(self):
        clock, _reg, sampler, counter = sampler_rig(interval=100)
        counter.inc(5)
        clock.advance(120)
        assert sampler.poll() is True
        [sample] = sampler.samples
        assert sample["index"] == 1
        assert sample["t"] == 120 and sample["dt"] == 120
        assert sample["counters"] == {"work.done": 5}
        assert sample["gauges"]["work.level"] == 7

    def test_deltas_reset_between_samples(self):
        clock, _reg, sampler, counter = sampler_rig(interval=100)
        counter.inc(5)
        clock.advance(100)
        sampler.poll()
        counter.inc(2)
        clock.advance(100)
        sampler.poll()
        first, second = sampler.samples
        assert first["counters"] == {"work.done": 5}
        assert second["counters"] == {"work.done": 2}

    def test_zero_deltas_are_omitted(self):
        clock, _reg, sampler, _counter = sampler_rig(interval=100)
        clock.advance(100)
        sampler.poll()
        [sample] = sampler.samples
        assert sample["counters"] == {}

    def test_one_sample_per_index(self):
        clock, _reg, sampler, _counter = sampler_rig(interval=100)
        clock.advance(250)
        assert sampler.poll() is True
        assert sampler.poll() is False  # same instant: nothing new
        clock.advance(10)
        assert sampler.poll() is False  # still inside interval 2
        assert [s["index"] for s in sampler.samples] == [2]

    def test_force_flush_advances_the_index(self):
        clock, _reg, sampler, counter = sampler_rig(interval=100)
        clock.advance(100)
        sampler.poll()
        counter.inc(3)
        clock.advance(10)  # t=110: interval 1 already sampled
        assert sampler.poll(force=True) is True
        indices = [s["index"] for s in sampler.samples]
        assert indices == [1, 2]
        assert sampler.samples[-1]["counters"] == {"work.done": 3}
        errors = validate_timeline(sampler.to_doc())
        assert errors == []

    def test_ring_evicts_oldest_and_counts_drops(self):
        clock, _reg, sampler, _counter = sampler_rig(interval=10, capacity=3)
        for _ in range(5):
            clock.advance(10)
            sampler.poll()
        assert len(sampler.samples) == 3
        assert sampler.dropped == 2
        assert [s["index"] for s in sampler.samples] == [3, 4, 5]
        assert sampler.to_doc()["dropped"] == 2

    def test_listeners_see_every_sample(self):
        clock, _reg, sampler, _counter = sampler_rig(interval=10)
        seen = []
        sampler.listeners.append(seen.append)
        for _ in range(3):
            clock.advance(10)
            sampler.poll()
        assert [s["index"] for s in seen] == [1, 2, 3]

    def test_histogram_rows_carry_interval_deltas(self):
        clock = Clock()
        registry = MetricsRegistry(clock=clock)
        hist = registry.histogram("job.latency", "test")
        sampler = TimelineSampler(registry, clock, interval=100)
        hist.observe(10)
        hist.observe(20)
        clock.advance(100)
        sampler.poll()
        hist.observe(40)
        clock.advance(100)
        sampler.poll()
        first, second = sampler.samples
        assert first["histograms"]["job.latency"]["count"] == 2
        assert first["histograms"]["job.latency"]["sum"] == 30
        assert second["histograms"]["job.latency"]["count"] == 1
        assert second["histograms"]["job.latency"]["sum"] == 40
        # Percentiles are rolling (whole-reservoir), not per-interval.
        assert second["histograms"]["job.latency"]["p95"] == 40

    def test_doc_validates_and_flags_corruption(self):
        clock, _reg, sampler, _counter = sampler_rig(interval=10)
        clock.advance(10)
        sampler.poll()
        doc = sampler.to_doc()
        assert validate_timeline(doc) == []
        assert validate_timeline("nope")
        bad = json.loads(json.dumps(doc))
        bad["samples"].append(dict(bad["samples"][0]))  # repeated index
        assert any("not after" in e for e in validate_timeline(bad))
        bad2 = json.loads(json.dumps(doc))
        bad2["samples"][0]["counters"] = {"BAD NAME": 1}
        assert any("bad metric name" in e for e in validate_timeline(bad2))

    def test_registers_its_own_instruments(self):
        clock = Clock()
        registry = MetricsRegistry(clock=clock)
        sampler = TimelineSampler(registry, clock, interval=50,
                                  metrics=registry)
        clock.advance(50)
        sampler.poll()
        snap = registry.snapshot()
        assert snap["counters"]["timeline.polls"] == 1
        assert snap["counters"]["timeline.samples"] == 1
        assert snap["counters"]["timeline.dropped"] == 0
        assert snap["gauges"]["timeline.interval"] == 50

    def test_bad_knobs_rejected(self):
        clock = Clock()
        registry = MetricsRegistry(clock=clock)
        with pytest.raises(ValueError, match="interval"):
            TimelineSampler(registry, clock, interval=0)
        with pytest.raises(ValueError, match="capacity"):
            TimelineSampler(registry, clock, capacity=0)


# ---------------------------------------------------------------------------
# the health monitor
# ---------------------------------------------------------------------------

def sample(index=0, t=100, counters=None, gauges=None, histograms=None):
    return {
        "index": index, "t": t, "dt": 100,
        "counters": counters or {}, "gauges": gauges or {},
        "histograms": histograms or {},
    }


class TestHealthMonitor:
    def test_rule_validation(self):
        validate_rules([])
        validate_rules([{"name": "r", "kind": "rate_floor",
                         "metric": "a.b", "min": 1}])
        for rules, fragment in [
            ("x", "must be a list"),
            ([{"name": "r", "kind": "bogus", "metric": "a.b"}], "kind"),
            ([{"name": "", "kind": "rate_floor", "metric": "a.b",
               "min": 1}], "name"),
            ([{"name": "r", "kind": "rate_floor", "metric": "a.b",
               "max": 1}], "unknown keys"),
            ([{"name": "r", "kind": "rate_floor", "metric": "a.b",
               "min": "lots"}], "min"),
            ([{"name": "r", "kind": "percentile_ceiling", "metric": "a.b",
               "max": 1, "q": 2}], "q"),
            # The sampler records only p50 and p95: a rule on any other
            # quantile would never evaluate.
            ([{"name": "r", "kind": "percentile_ceiling", "metric": "a.b",
               "max": 1, "q": 0.99}], r"one of \[0\.5, 0\.95\]"),
            ([{"name": "r", "kind": "gauge_floor", "metric": "a.b",
               "min": 1}] * 2, "duplicate"),
        ]:
            with pytest.raises(ValueError, match=fragment):
                validate_rules(rules)

    def test_rate_floor_breaches_below_min(self):
        monitor = HealthMonitor([{"name": "tput", "kind": "rate_floor",
                                  "metric": "jobs.done", "min": 5}])
        monitor.observe(sample(counters={"jobs.done": 9}))
        monitor.observe(sample(index=1, t=200, counters={"jobs.done": 2}))
        [row] = monitor.to_rows()
        assert (row["rule"], row["t"], row["value"]) == ("tput", 200, 2)

    def test_rate_floor_when_guard_skips_idle_intervals(self):
        monitor = HealthMonitor([{
            "name": "tput", "kind": "rate_floor", "metric": "jobs.done",
            "min": 5, "when": "jobs.offered",
        }])
        monitor.observe(sample())  # idle: no offered work, no breach
        assert monitor.to_rows() == []
        monitor.observe(sample(index=1, t=200,
                               counters={"jobs.offered": 3}))
        assert [r["rule"] for r in monitor.to_rows()] == ["tput"]

    def test_rate_ceiling_and_absent_counter_reads_zero(self):
        monitor = HealthMonitor([{"name": "drops", "kind": "rate_ceiling",
                                  "metric": "audit.dropped", "max": 0}])
        monitor.observe(sample())  # absent delta == 0: within ceiling
        monitor.observe(sample(index=1, counters={"audit.dropped": 1}))
        assert [r["value"] for r in monitor.to_rows()] == [1]

    def test_gauge_rules_read_levels(self):
        monitor = HealthMonitor([
            {"name": "cap", "kind": "gauge_floor",
             "metric": "smp.cpus", "min": 2},
            {"name": "queue", "kind": "gauge_ceiling",
             "metric": "sched.ready", "max": 10},
        ])
        monitor.observe(sample(gauges={"smp.cpus": 2, "sched.ready": 3}))
        assert monitor.to_rows() == []
        monitor.observe(sample(index=1,
                               gauges={"smp.cpus": 1, "sched.ready": 30}))
        assert sorted(r["rule"] for r in monitor.to_rows()) == \
            ["cap", "queue"]

    def test_percentile_ceiling_reads_histogram_quantiles(self):
        monitor = HealthMonitor([{
            "name": "lat", "kind": "percentile_ceiling",
            "metric": "job.latency", "max": 100, "q": 0.95,
        }])
        monitor.observe(sample(histograms={
            "job.latency": {"count": 4, "sum": 100, "p50": 20, "p95": 90},
        }))
        assert monitor.to_rows() == []
        monitor.observe(sample(index=1, histograms={
            "job.latency": {"count": 4, "sum": 900, "p50": 50, "p95": 400},
        }))
        [row] = monitor.to_rows()
        assert row["value"] == 400 and row["limit"] == 100

    def test_every_recorded_quantile_is_evaluated(self):
        row = {"count": 4, "sum": 100, "p50": 20, "p95": 90}
        for q, value in ((0.5, 20), (0.95, 90)):
            monitor = HealthMonitor([{
                "name": "lat", "kind": "percentile_ceiling",
                "metric": "job.latency", "max": 0, "q": q,
            }])
            monitor.observe(sample(histograms={"job.latency": row}))
            assert monitor.evaluations == 1
            assert monitor.to_rows()[0]["value"] == value

    def test_absent_metric_skips_not_breaches(self):
        monitor = HealthMonitor([
            {"name": "cap", "kind": "gauge_floor",
             "metric": "smp.cpus", "min": 2},
            {"name": "lat", "kind": "percentile_ceiling",
             "metric": "job.latency", "max": 100},
        ])
        monitor.observe(sample())
        assert monitor.to_rows() == []

    def test_breach_log_is_bounded(self):
        monitor = HealthMonitor(
            [{"name": "cap", "kind": "gauge_floor",
              "metric": "smp.cpus", "min": 2}],
            log_capacity=2,
        )
        for i in range(4):
            monitor.observe(sample(index=i, t=100 * (i + 1),
                                   gauges={"smp.cpus": 0}))
        rows = monitor.to_rows()
        assert len(rows) == 2 and monitor.log_dropped == 2
        assert [r["index"] for r in rows] == [2, 3]

    def test_registers_health_instruments(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            [{"name": "cap", "kind": "gauge_floor",
              "metric": "smp.cpus", "min": 2}],
            metrics=registry,
        )
        monitor.observe(sample(gauges={"smp.cpus": 1}))
        snap = registry.snapshot()
        assert snap["counters"]["health.evaluations"] == 1
        assert snap["counters"]["health.breaches"] == 1
        assert snap["gauges"]["health.rules"] == 1
        assert snap["gauges"]["health.ok"] == 0


# ---------------------------------------------------------------------------
# the cross-shard merge
# ---------------------------------------------------------------------------

def shard_result(shard_id, timeline):
    return ShardResult(shard_id=shard_id, report=WorkloadReport(),
                       timeline=timeline)


def tiny_doc(t0=0, interval=100, samples=(), breaches=(), dropped=0):
    return {
        "schema": "repro.timeline/v1", "schema_version": 1,
        "t0": t0, "interval": interval, "capacity": 8,
        "dropped": dropped, "samples": list(samples),
        "breaches": list(breaches),
    }


class TestMergeTimelines:
    def test_none_when_no_shard_carried_one(self):
        assert merge_timelines([shard_result(0, None)]) is None
        assert merge_timelines([]) is None

    def test_single_shard_folds_to_itself(self):
        doc = tiny_doc(samples=[sample(index=0, counters={"a.b": 3})])
        merged = merge_timelines([shard_result(0, doc)])
        assert merged["n_shards"] == 1
        assert merged["samples"][0]["counters"] == {"a.b": 3}
        assert validate_timeline(merged) == []

    def test_misaligned_cadence_raises(self):
        with pytest.raises(ValueError, match="does not align"):
            merge_timelines([
                shard_result(0, tiny_doc(interval=100)),
                shard_result(1, tiny_doc(interval=200)),
            ])

    def test_index_buckets_sum_and_percentiles_take_max(self):
        left = tiny_doc(samples=[sample(
            index=0, t=100,
            counters={"a.b": 3},
            gauges={"g.x": 1},
            histograms={"h.x": {"count": 2, "sum": 10, "p95": 9}},
        )])
        right = tiny_doc(samples=[sample(
            index=0, t=150,
            counters={"a.b": 4, "c.d": 1},
            gauges={"g.x": 2},
            histograms={"h.x": {"count": 1, "sum": 5, "p95": 30}},
        )])
        merged = merge_timelines(
            [shard_result(1, right), shard_result(0, left)]
        )
        [row] = merged["samples"]
        assert row["t"] == 150
        assert row["counters"] == {"a.b": 7, "c.d": 1}
        assert row["gauges"] == {"g.x": 3}
        assert row["histograms"]["h.x"] == \
            {"count": 3, "sum": 15, "p95": 30}

    def test_breaches_tagged_and_ordered(self):
        breach = {"t": 100, "index": 0, "rule": "cap",
                  "kind": "gauge_floor", "value": 1, "limit": 2}
        merged = merge_timelines([
            shard_result(1, tiny_doc(breaches=[breach])),
            shard_result(0, tiny_doc(breaches=[breach])),
        ])
        assert [b["shard_id"] for b in merged["breaches"]] == [0, 1]
        assert validate_timeline(merged) == []


# ---------------------------------------------------------------------------
# CPU restore (the chaos plane's recovery event)
# ---------------------------------------------------------------------------

class TestCpuRestore:
    def test_restore_guards(self):
        system = smp_system(n_processors=2)
        cx = system.cpu_complex(n_cpus=2)
        with pytest.raises(ValueError, match="no CPU 7"):
            cx.restore_cpu(7)
        with pytest.raises(ValueError, match="already online"):
            cx.restore_cpu(1)
        system.shutdown()

    def test_lose_then_restore_round_trips(self):
        system = smp_system(n_processors=2)
        cx = system.cpu_complex(n_cpus=2)
        cx.lose_cpu(1)
        assert cx.online_count() == 1
        cx.restore_cpu(1)
        assert cx.online_count() == 2 and cx.online(1)
        assert cx.cpus_restored == 1
        snap = system.metrics.snapshot()
        assert snap["counters"]["smp.cpus_restored"] == 1
        system.shutdown()

    def test_scenario_loss_and_restore_complete_all_jobs(self):
        system = smp_system(n_processors=2)
        cx = system.cpu_complex(n_cpus=2)
        jobs, _sessions = make_jobs(system, n_jobs=6)
        engine = system.chaos_engine(scenario(
            timed(
                {"at": 600, "site": CPU_LOSS_SITE,
                 "kind": CPU_LOSS_KIND, "cpu": 1},
                {"at": 2000, "site": CPU_RESTORE_SITE,
                 "kind": CPU_RESTORE_KIND},
            ),
        ), complex_=cx)
        cx.run_jobs(jobs, on_round=engine.step)
        assert [site for _, site, _ in engine.applied] == \
            [CPU_LOSS_SITE, CPU_RESTORE_SITE]
        assert cx.online_count() == 2
        assert [j.result for j in jobs] == [96] * 6
        # Restore is a *recovery*, not an injected fault: the injected
        # book must still equal the commanded-fault count (R2's
        # invariant), and the recovery is booked as such.
        assert engine.injector.injected_count == 1
        assert engine.injector.recovered >= 1
        system.shutdown()

    def test_restore_with_everything_online_is_skipped(self):
        system = smp_system(n_processors=2)
        cx = system.cpu_complex(n_cpus=2)
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": CPU_RESTORE_SITE,
                   "kind": CPU_RESTORE_KIND}),
        ), complex_=cx)
        system.clock.advance(1)
        engine.step()
        assert engine.applied == []
        assert engine.skipped and engine.skipped[0][1] == CPU_RESTORE_SITE
        system.shutdown()

    def test_restore_without_complex_raises(self):
        system = smp_system(n_processors=2)
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": CPU_RESTORE_SITE,
                   "kind": CPU_RESTORE_KIND}),
        ))
        system.clock.advance(1)
        with pytest.raises(ValueError, match="no SMP complex"):
            engine.step()
        system.shutdown()


# ---------------------------------------------------------------------------
# end to end through the system facade
# ---------------------------------------------------------------------------

def driver_run(n_users=30, rules=None):
    config = kernel_config(timeline={
        "interval": 5000,
        **({"rules": rules} if rules is not None else {}),
    })
    system = MulticsSystem(config).boot()
    driver = WorkloadDriver(system, n_cpus=2, batch_size=8)
    driver.run(generate_population(n_users, seed=11))
    return system


class TestEndToEnd:
    def test_driver_run_produces_a_valid_document(self):
        system = driver_run()
        doc = system.timeline_document()
        assert validate_timeline(doc) == []
        assert doc["samples"], "a real run must produce samples"
        assert any(s["counters"] for s in doc["samples"])
        system.shutdown()

    def test_same_seed_same_bytes(self):
        docs = [
            json.dumps(driver_run().timeline_document(), sort_keys=True)
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_health_rules_ride_the_config(self):
        system = driver_run(rules=[
            {"name": "impossible", "kind": "rate_ceiling",
             "metric": "smp.busy_cycles", "max": 0},
        ])
        doc = system.timeline_document()
        assert doc["breaches"], "busy cycles must trip a zero ceiling"
        assert all(b["rule"] == "impossible" for b in doc["breaches"])
        assert system.metrics.snapshot()["gauges"]["health.ok"] == 0
        system.shutdown()
