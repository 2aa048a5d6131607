"""Tests for the workload engine (repro.workloads): seeded arrival
processes, population generation, the report's percentile math, and the
batch session driver end to end at small scale — including the
determinism contract bench E18 leans on (same config + population ->
same simulated clock and metrics, run to run).
"""

import json

import pytest

from repro import MulticsSystem, kernel_config, legacy_config
from repro.workloads import (
    DEFAULT_MIX,
    PROFILES,
    UserSpec,
    WorkloadDriver,
    WorkloadReport,
    bursty_arrivals,
    generate_population,
    poisson_arrivals,
)

N_SMOKE = 12


class TestArrivals:
    def test_poisson_is_a_pure_function_of_the_seed(self):
        a = poisson_arrivals(200, 400.0, seed=42)
        b = poisson_arrivals(200, 400.0, seed=42)
        assert a == b
        assert poisson_arrivals(200, 400.0, seed=43) != a

    def test_poisson_shape(self):
        times = poisson_arrivals(500, 100.0, seed=7, start=1000)
        assert len(times) == 500
        assert times == sorted(times)
        assert times[0] >= 1000
        assert all(isinstance(t, int) for t in times)
        # The mean gap lands in the right ballpark for 500 samples.
        mean = (times[-1] - 1000) / 500
        assert 60 < mean < 160

    def test_bursty_is_a_pure_function_of_the_seed(self):
        a = bursty_arrivals(200, 32, 20_000.0, seed=42)
        assert a == bursty_arrivals(200, 32, 20_000.0, seed=42)
        assert len(a) == 200
        assert a == sorted(a)

    def test_bursty_clusters_within_jitter(self):
        times = bursty_arrivals(64, 16, 50_000.0, seed=5, jitter=8)
        for at in range(0, 64, 16):
            burst = times[at:at + 16]
            assert burst[-1] - burst[0] <= 8

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(-1, 100.0, seed=1)
        with pytest.raises(ValueError):
            poisson_arrivals(5, 0.0, seed=1)
        with pytest.raises(ValueError):
            bursty_arrivals(5, 0, 100.0, seed=1)
        with pytest.raises(ValueError):
            bursty_arrivals(5, 4, -1.0, seed=1)

    def test_zero_users_is_empty(self):
        assert poisson_arrivals(0, 100.0, seed=1) == []
        assert bursty_arrivals(0, 8, 100.0, seed=1) == []

    def test_zero_rate_poisson_rejected(self):
        # A zero (or negative) rate would never produce an arrival;
        # both are configuration errors, not infinite loops.
        with pytest.raises(ValueError, match="mean_gap"):
            poisson_arrivals(5, 0.0, seed=1)
        with pytest.raises(ValueError, match="mean_gap"):
            poisson_arrivals(5, -100.0, seed=1)

    def test_single_user_population(self):
        assert len(poisson_arrivals(1, 400.0, seed=3)) == 1
        assert len(bursty_arrivals(1, 32, 20_000.0, seed=3)) == 1
        pop = generate_population(1, seed=11)
        assert len(pop) == 1
        assert pop[0].person == "U00000"

    def test_partial_final_burst_respects_n(self):
        # 20 users in bursts of 8: the last burst holds only 4 and
        # still clusters within the jitter window.
        times = bursty_arrivals(20, 8, 50_000.0, seed=4)
        assert len(times) == 20
        assert times == sorted(times)
        last = times[16:]
        assert last[-1] - last[0] <= 8

    def test_burst_size_larger_than_population(self):
        times = bursty_arrivals(5, 100, 1_000.0, seed=2)
        assert len(times) == 5
        assert times[-1] - times[0] <= 8

    def test_zero_jitter_bursts_are_simultaneous(self):
        times = bursty_arrivals(16, 8, 50_000.0, seed=6, jitter=0)
        assert len(set(times[:8])) == 1
        assert len(set(times[8:])) == 1

    def test_start_offset_shifts_arrivals(self):
        # Same seed, shifted origin: the shape is seed-stable and the
        # offset lands verbatim in every arrival time.
        base = poisson_arrivals(50, 200.0, seed=8)
        moved = poisson_arrivals(50, 200.0, seed=8, start=5000)
        assert moved == [t + 5000 for t in base]
        base = bursty_arrivals(24, 8, 10_000.0, seed=8)
        moved = bursty_arrivals(24, 8, 10_000.0, seed=8, start=5000)
        assert moved == [t + 5000 for t in base]


class TestPopulation:
    def test_same_seed_same_population(self):
        a = generate_population(100, seed=1975)
        b = generate_population(100, seed=1975)
        assert a == b
        assert generate_population(100, seed=1976) != a

    def test_population_shape(self):
        pop = generate_population(50, seed=3)
        assert len(pop) == 50
        assert all(isinstance(spec, UserSpec) for spec in pop)
        assert len({spec.person for spec in pop}) == 50
        assert all(spec.profile.name in PROFILES for spec in pop)

    def test_mix_weights_are_respected(self):
        pop = generate_population(400, seed=9, mix={"shell": 1.0})
        assert {spec.profile.name for spec in pop} == {"shell"}

    def test_unknown_mix_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profiles"):
            generate_population(10, seed=1, mix={"emacs": 1.0})

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            generate_population(10, seed=1, process="lunchtime")

    def test_bursty_process_selectable(self):
        pop = generate_population(40, seed=2, process="bursty",
                                  burst_size=8)
        assert len(pop) == 40

    def test_default_mix_covers_known_profiles(self):
        assert set(DEFAULT_MIX) <= set(PROFILES)
        assert all(w > 0 for w in DEFAULT_MIX.values())


class TestWorkloadReport:
    def test_nearest_rank_percentiles(self):
        report = WorkloadReport()
        report.latencies = list(range(1, 101))
        assert report.latency_percentile(0.0) == 1
        assert report.p50_latency == 51
        assert report.p95_latency == 95
        assert report.latency_percentile(1.0) == 100

    def test_empty_sample_is_zero(self):
        report = WorkloadReport()
        assert report.p50_latency == 0
        assert report.p95_latency == 0

    def test_rates_guard_zero_wall(self):
        report = WorkloadReport(admitted=5)
        assert report.users_per_sec == 0.0
        assert report.cycles_per_sec == 0.0
        report.wall_seconds = 2.0
        assert report.users_per_sec == 2.5

    def test_percentile_clamps_out_of_range_quantiles(self):
        report = WorkloadReport()
        report.latencies = [10, 20, 30]
        assert report.latency_percentile(-0.5) == 10
        assert report.latency_percentile(1.5) == 30
        assert WorkloadReport().latency_percentile(-1.0) == 0

    def test_to_dict_names_the_bench_fields(self):
        keys = {"users", "admitted", "login_failures", "jobs_completed",
                "jobs_failed", "elapsed_cycles", "wall_seconds",
                "users_per_sec", "cycles_per_sec", "p50_latency_cycles",
                "p95_latency_cycles"}
        assert set(WorkloadReport().to_dict()) == keys


def drive(n=N_SMOKE, seed=1975, **config):
    system = MulticsSystem(kernel_config(**config)).boot()
    driver = WorkloadDriver(system, n_cpus=2)
    report = driver.run(generate_population(n, seed=seed))
    return system, driver, report


class TestWorkloadDriver:
    def test_small_population_end_to_end(self):
        system, driver, report = drive()
        assert report.users == N_SMOKE
        assert report.admitted == N_SMOKE
        assert report.login_failures == 0
        assert report.jobs_completed == N_SMOKE
        assert report.jobs_failed == 0
        assert len(report.latencies) == N_SMOKE
        assert all(latency > 0 for latency in report.latencies)
        assert report.elapsed_cycles > 0
        # Everyone shares the author's parsed library image: no session
        # needed a private re-baked copy.
        assert driver.code_rebinds == 0

    def test_workload_metrics_are_live(self):
        system, driver, report = drive()
        snap = system.metrics.snapshot()
        counters, gauges = snap["counters"], snap["gauges"]
        assert counters["workload.arrivals"] == N_SMOKE
        assert counters["workload.logins"] == N_SMOKE
        assert counters["workload.login_failures"] == 0
        assert counters["workload.batches"] == 1
        assert counters["workload.jobs_completed"] == N_SMOKE
        assert counters["workload.jobs_failed"] == 0
        assert counters["workload.code_rebinds"] == 0
        # The population plus the library author's own session.
        assert gauges["workload.active_sessions"] == N_SMOKE + 1
        assert "workload.latency" in snap["histograms"]

    def test_run_is_deterministic(self):
        """The E18 identity contract at unit scale: same config and
        population, same final clock and metrics snapshot."""
        fingerprints = []
        for _ in range(2):
            system, _, report = drive()
            fingerprints.append(
                (system.clock.now, json.loads(system.metrics.to_json()),
                 report.to_dict()["p50_latency_cycles"])
            )
        assert fingerprints[0] == fingerprints[1]

    def test_legacy_supervisor_rejected(self):
        system = MulticsSystem(legacy_config()).boot()
        with pytest.raises(ValueError, match="E14 listener"):
            WorkloadDriver(system)

    def test_bad_batch_size_rejected(self):
        system = MulticsSystem(kernel_config()).boot()
        with pytest.raises(ValueError, match="batch_size"):
            WorkloadDriver(system, batch_size=0)
