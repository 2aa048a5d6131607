"""The chaos scenario engine: validation, controllers, CPU loss."""

import json

import pytest

from repro.faults.chaos import (
    CPU_LOSS_KIND,
    CPU_LOSS_SITE,
    ChaosEngine,
    ChaosScenario,
)
from repro.faults.harness import harness_config
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.system import MulticsSystem
from tests.test_smp import make_jobs, smp_system


def scenario(*controllers, name="test", seed=0):
    return ChaosScenario(name, list(controllers), seed=seed)


def timed(*events):
    return {"type": "timed", "events": list(events)}


def booted(**overrides):
    system = MulticsSystem(harness_config(**overrides)).boot()
    system.register_user("Alice", "Crypto", "pw")
    return system


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

class TestScenarioValidation:
    def test_round_trips_from_json(self):
        text = json.dumps({
            "name": "storm",
            "seed": 9,
            "controllers": [
                timed({"at": 10, "site": "link.uplink", "kind": "drop"}),
                {"type": "random", "every": 100,
                 "sites": ["link.uplink"], "kinds": ["flap"]},
                {"type": "targeted", "every": 200, "kind": "partition"},
            ],
        })
        s = ChaosScenario.from_json(text)
        assert s.name == "storm"
        assert s.seed == 9
        assert len(s.controllers) == 3

    @pytest.mark.parametrize("spec,fragment", [
        ({"name": "", "controllers": [timed({"at": 0, "site": "link.l",
                                             "kind": "drop"})]},
         "needs a name"),
        ({"name": "s", "controllers": []}, "needs controllers"),
        ({"name": "s", "controllers": [{"type": "volcanic"}]},
         "type must be one of"),
        ({"name": "s", "controllers": [timed()]}, "events list"),
        ({"name": "s", "controllers": [
            timed({"at": -1, "site": "link.l", "kind": "drop"})]},
         "non-negative"),
        ({"name": "s", "controllers": [
            timed({"at": 0, "site": "link.l", "kind": "melt"})]},
         "link kind"),
        ({"name": "s", "controllers": [
            timed({"at": 0, "site": "cpu.loss", "kind": "drop"})]},
         "only understands"),
        ({"name": "s", "controllers": [
            timed({"at": 0, "site": "device.tty1", "kind": "hang"})]},
         "unknown chaos site"),
        ({"name": "s", "controllers": [
            {"type": "random", "every": 0, "sites": ["link.l"],
             "kinds": ["drop"]}]},
         "positive 'every'"),
        ({"name": "s", "controllers": [
            {"type": "random", "every": 5, "kinds": ["drop"]}]},
         "sites list"),
        ({"name": "s", "controllers": [
            {"type": "targeted", "every": 5, "kind": "parity"}]},
         "targeted kind"),
        ({"name": "s", "controllers": [timed({"at": 0, "site": "link.l",
                                              "kind": "drop"})],
          "weather": "bad"},
         "unknown keys"),
    ])
    def test_malformed_scenarios_rejected(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            ChaosScenario.from_dict(spec)


# ---------------------------------------------------------------------------
# controllers against a live system
# ---------------------------------------------------------------------------

class TestControllers:
    def test_timed_events_fire_at_offsets(self):
        system = booted()
        engine = system.chaos_engine(scenario(
            timed({"at": 100, "site": "link.uplink", "kind": "flap"},
                  {"at": 300, "site": "link.uplink", "kind": "drop"}),
        ))
        assert engine.step() == 0  # nothing due at offset 0
        system.clock.advance(150)
        assert engine.step() == 1
        assert engine.applied[0][1:] == ("link.uplink", "flap")
        assert engine.step() == 0  # fired events never refire
        system.clock.advance(200)
        assert engine.step() == 1
        assert system.topology.links["uplink"].pending_drops == 1
        system.shutdown()

    def test_offsets_are_relative_to_engine_start(self):
        system = booted()
        system.clock.advance(5000)  # a late-built engine
        engine = system.chaos_engine(scenario(
            timed({"at": 100, "site": "link.uplink", "kind": "flap"}),
        ))
        assert engine.t0 == system.clock.now
        assert engine.step() == 0
        system.clock.advance(101)
        assert engine.step() == 1
        system.shutdown()

    def test_random_controller_is_seed_deterministic(self):
        def storm(seed):
            system = booted()
            engine = system.chaos_engine(scenario(
                {"type": "random", "every": 50,
                 "sites": ["link.uplink"],
                 "kinds": ["drop", "flap", "latency_spike"]},
                seed=seed,
            ))
            for _ in range(20):
                system.clock.advance(50)
                engine.step()
            events = [(t - engine.t0, site, kind)
                      for t, site, kind in engine.applied]
            system.shutdown()
            return events

        assert storm(4) == storm(4)
        assert storm(4) != storm(5)
        assert len(storm(4)) == 20

    def test_random_controller_stop_bound(self):
        system = booted()
        engine = system.chaos_engine(scenario(
            {"type": "random", "every": 10, "stop": 30,
             "sites": ["link.uplink"], "kinds": ["drop"]},
        ))
        system.clock.advance(500)
        engine.step()
        assert len(engine.applied) == 3  # offsets 10, 20, 30
        system.shutdown()

    def test_targeted_controller_hits_busiest_link(self):
        spec = {
            "hosts": ["east", "west"],
            "links": [
                {"name": "east_up", "a": "east", "b": "multics"},
                {"name": "west_up", "a": "west", "b": "multics"},
            ],
        }
        system = booted(topology=spec)
        for _ in range(5):
            system.topology.send("west", "chatter")
        engine = system.chaos_engine(scenario(
            {"type": "targeted", "every": 100, "kind": "partition"},
        ))
        system.clock.advance(100)
        engine.step()
        assert engine.applied[0][1] == "link.west_up"
        assert system.topology.links["west_up"].down(system.clock.now)
        system.shutdown()

    def test_commanded_faults_land_in_injector_and_audit(self):
        system = booted(fault_plan=FaultPlan([], seed=2))
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": "link.uplink", "kind": "drop"}),
        ))
        system.clock.advance(1)
        engine.step()
        services = system.services
        assert services.injector.injected == [
            (system.clock.now, "link.uplink", "drop")
        ]
        records = [r for r in system.audit.records()
                   if r.object == "link.uplink"]
        assert records and records[0].decision == "injected"
        system.shutdown()

    def test_unknown_link_site_raises_at_apply(self):
        system = booted()
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": "link.ghost", "kind": "drop"}),
        ))
        system.clock.advance(1)
        with pytest.raises(ValueError, match="unknown link"):
            engine.step()
        system.shutdown()


# ---------------------------------------------------------------------------
# CPU loss
# ---------------------------------------------------------------------------

class TestCpuLoss:
    def test_lose_cpu_requeues_job_and_completes_elsewhere(self):
        system = smp_system(n_processors=2)
        cx = system.cpu_complex(n_cpus=2)
        jobs, _sessions = make_jobs(system, n_jobs=6)
        engine = system.chaos_engine(scenario(
            timed({"at": 600, "site": CPU_LOSS_SITE,
                   "kind": CPU_LOSS_KIND, "cpu": 1}),
        ), complex_=cx)
        cx.run_jobs(jobs, on_round=engine.step)
        assert cx.online_count() == 1
        assert cx.cpus_lost == 1
        assert [j.result for j in jobs] == [96] * 6
        assert all(j.error is None for j in jobs)
        # Every job was (re)dispatched somewhere real; the displaced one
        # restarted on the surviving CPU.
        assert all(j.cpu_id in (0, 1) for j in jobs)
        if cx.jobs_requeued:
            assert any(j.cpu_id == 0 for j in jobs)
        system.shutdown()

    def test_displaced_job_is_attributed(self):
        # The cycles a job ran on a CPU before losing it land in its
        # process's bucket, like any other execution's.
        system = smp_system(n_processors=2)
        cx = system.cpu_complex(n_cpus=2)
        jobs, _sessions = make_jobs(system, n_jobs=2)

        def lose_busy_cpu(complex_):
            if complex_.online(1) and any(
                    j.cpu_id == 1 and not j.done for j in jobs):
                complex_.lose_cpu(1)

        cx.run_jobs(jobs, on_round=lose_busy_cpu)
        assert cx.jobs_requeued == 1
        assert [j.result for j in jobs] == [96, 96]
        meters = system.meters
        assert meters.coverage() == 1.0
        assert meters.attributed_cycles() == meters.total_cycles()
        system.shutdown()

    def test_last_cpu_is_never_taken(self):
        system = smp_system(n_processors=1)
        cx = system.cpu_complex(n_cpus=1)
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": CPU_LOSS_SITE, "kind": CPU_LOSS_KIND}),
        ), complex_=cx)
        system.clock.advance(1)
        engine.step()
        assert engine.applied == []
        assert engine.skipped and engine.skipped[0][1] == CPU_LOSS_SITE
        assert cx.online_count() == 1
        system.shutdown()

    def test_cpu_loss_without_complex_raises(self):
        system = booted()
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": CPU_LOSS_SITE, "kind": CPU_LOSS_KIND}),
        ))
        system.clock.advance(1)
        with pytest.raises(ValueError, match="no SMP complex"):
            engine.step()
        system.shutdown()

    def test_loss_books_degraded_and_requeue_recovery(self):
        system = smp_system(n_processors=2, fault_plan=FaultPlan([], seed=0))
        cx = system.cpu_complex(n_cpus=2)
        jobs, _sessions = make_jobs(system, n_jobs=4)
        engine = system.chaos_engine(scenario(
            timed({"at": 600, "site": CPU_LOSS_SITE,
                   "kind": CPU_LOSS_KIND, "cpu": 0}),
        ), complex_=cx)
        cx.run_jobs(jobs, on_round=engine.step)
        injector = system.services.injector
        assert (CPU_LOSS_SITE in injector.per_site) and injector.degraded >= 1
        if cx.jobs_requeued:
            assert injector.recovered >= 1
        assert [j.result for j in jobs] == [96] * 4
        system.shutdown()

    def test_lose_cpu_guards(self):
        system = smp_system(n_processors=2)
        cx = system.cpu_complex(n_cpus=2)
        with pytest.raises(ValueError, match="no CPU 7"):
            cx.lose_cpu(7)
        cx.lose_cpu(1)
        with pytest.raises(ValueError, match="already offline"):
            cx.lose_cpu(1)
        with pytest.raises(ValueError, match="last online"):
            cx.lose_cpu(0)
        assert cx.last_online() == 0
        system.shutdown()


# ---------------------------------------------------------------------------
# engine bookkeeping
# ---------------------------------------------------------------------------

class TestEngineMetrics:
    def test_chaos_metrics_register_and_count(self):
        system = booted()
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": "link.uplink", "kind": "flap"}),
        ))
        system.clock.advance(1)
        engine.step()
        snap = system.metrics.snapshot()
        assert snap["counters"]["chaos.events"] == 1
        assert snap["counters"]["chaos.steps"] == 1
        assert snap["counters"]["chaos.skipped"] == 0
        assert snap["gauges"]["chaos.controllers"] == 1
        system.shutdown()

    def test_engine_without_fault_plan_still_audits(self):
        system = booted()  # no fault_plan: services.injector is None
        assert system.services.injector is None
        engine = system.chaos_engine(scenario(
            timed({"at": 0, "site": "link.uplink", "kind": "drop"}),
        ))
        system.clock.advance(1)
        engine.step()
        assert engine.injector.injected_count == 1
        assert any(r.object == "link.uplink"
                   for r in system.audit.records())
        system.shutdown()
