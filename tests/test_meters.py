"""Tests for the metering plane (repro.obs.meters): unit behaviour of
the buckets and coverage math, and the end-to-end attribution wiring
through a live system."""

import pytest

from repro.config import SystemConfig
from repro.faults.harness import harness_config, standard_workload
from repro.obs import NULL_METERS, Meters
from repro.obs.meters import ChargedCycles
from repro.proc.ipc import Charge
from repro.proc.process import Process
from repro.system import MulticsSystem


class FakeProcess(ChargedCycles):
    """Just the accounting surface Meters follows."""

    def __init__(self, pid, name="p"):
        self.pid = pid
        self.name = name
        self.cpu_cycles = 0
        self.fault_wait_cycles = 0
        self.page_faults = 0


class TestMetersUnit:
    def test_disabled_meters_accumulate_nothing(self):
        m = Meters(enabled=False)
        p = FakeProcess(1)
        m.track(p)
        m.note_gate(p, "hcs_$x", 8)
        m.note_gate_denied(p, "hcs_$x")
        m.note_execution(p, 100, 10, 20, 1)
        assert m._buckets == {}
        assert m._gates == {}
        assert m.attributed_cycles() == 0

    def test_null_meters_is_disabled(self):
        assert NULL_METERS.enabled is False

    def test_live_fields_are_polled_not_copied(self):
        m = Meters()
        p = FakeProcess(1)
        m.track(p)
        p.cpu_cycles = 70
        p.fault_wait_cycles = 30
        p.page_faults = 2
        assert m.process_cpu_cycles(1) == 70
        assert m.process_fault_wait(1) == 30
        assert m.process_page_faults(1) == 2
        assert m.process_attributed(1) == 100

    def test_fold_freezes_destroyed_process_accounting(self):
        m = Meters()
        p = FakeProcess(1)
        m.track(p)
        p.cpu_cycles = 40
        p.page_faults = 1
        m.fold(p)
        # The live process is gone; the bucket keeps its totals.
        p.cpu_cycles = 9999
        assert m.process_cpu_cycles(1) == 40
        assert m.process_page_faults(1) == 1
        # Folding twice is harmless (already unpolled).
        m.fold(p)
        assert m.process_cpu_cycles(1) == 40

    def test_note_gate_charges_both_meters(self):
        m = Meters()
        p = FakeProcess(1)
        m.note_gate(p, "hcs_$initiate", 8, crossed=True)
        m.note_gate(p, "hcs_$initiate", 8)
        m.note_gate_denied(p, "hcs_$initiate")
        b = m._buckets[1]
        assert b.gate_entries == 2
        assert b.gate_cycles == 16
        assert b.ring_crossings == 1
        assert b.gate_denials == 1
        g = m._gates["hcs_$initiate"]
        assert g.calls == 2 and g.denials == 1 and g.cycles == 16
        assert g.mean_cycles == 8.0

    def test_note_execution_attributes_deltas(self):
        m = Meters()
        p = FakeProcess(3)
        m.note_execution(p, 120, 30, 60, 2)
        b = m._buckets[3]
        assert b.exec_cycles == 120
        assert b.am_hit_cycles == 30
        assert b.walk_cycles == 60
        assert b.ring_crossings == 2
        # ctx with accounting fields becomes polled too.
        assert 3 in m._live

    def test_note_execution_ignores_pidless_context(self):
        m = Meters()

        class Bare:
            pass

        m.note_execution(Bare(), 100, 0, 0, 0)
        assert m._buckets == {}

    def test_context_without_charged_cycles_is_refused(self):
        class Plain:
            pid, name = 7, "plain"
            cpu_cycles = fault_wait_cycles = page_faults = 0

        m = Meters()
        for call in (lambda: m.track(Plain()),
                     lambda: m.note_gate(Plain(), "hcs_$x", 8),
                     lambda: m.note_execution(Plain(), 100, 0, 0, 0)):
            with pytest.raises(TypeError, match="cannot follow"):
                call()
        assert m._buckets == {} and m._live == {}

    def test_context_tracked_by_other_meters_is_refused(self):
        a, b = Meters(), Meters()
        p = FakeProcess(1)
        a.track(p)
        with pytest.raises(ValueError, match="other meters"):
            b.track(p)
        # Once folded, another plane may follow it.
        a.fold(p)
        b.track(p)
        p.cpu_cycles += 5
        assert b.attributed_cycles() == 5
        assert a.attributed_cycles() == 0

    def test_charges_move_the_running_total(self):
        m = Meters()
        p, q = FakeProcess(1), FakeProcess(2)
        p.cpu_cycles = 11  # charged before tracking: joins at track
        m.track(p)
        m.track(q)
        p.cpu_cycles += 4
        q.fault_wait_cycles += 6
        assert m._live_cycles == m.attributed_cycles() == 21
        m.fold(p)
        p.cpu_cycles += 100  # no longer followed
        assert m._live_cycles == 6
        assert m.attributed_cycles() == 21

    def test_coverage_of_empty_meters_is_one(self):
        assert Meters().coverage() == 1.0

    def test_coverage_drops_when_charges_escape_attribution(self):
        m = Meters()
        total = {"n": 0}
        m.bind_system(busy_cycles=lambda: total["n"],
                      gate_cycles=lambda: 0, fault_wait=lambda: 0)
        p = FakeProcess(1)
        m.track(p)
        # A charge recorded system-wide and mirrored on the process.
        total["n"] += 100
        p.cpu_cycles += 100
        assert m.coverage() == 1.0
        # A charge recorded system-wide that no tracked process carries:
        # the paper-trail breaks and coverage says so.
        total["n"] += 100
        assert m.coverage() == 0.5

    def test_report_formatters_render(self):
        m = Meters()
        p = FakeProcess(1, "alice")
        m.track(p)
        m.note_gate(p, "hcs_$initiate", 8, crossed=True)
        m.note_execution(p, 50, 10, 20, 1)
        assert "TOTAL TIME METERS" in m.total_time_meters()
        tcm = m.traffic_control_meters()
        assert "TRAFFIC CONTROL METERS" in tcm and "alice" in tcm
        gm = m.gate_meters()
        assert "GATE METERS" in gm and "hcs_$initiate" in gm


class TestSystemAttribution:
    """The metering plane threaded through a whole live system."""

    def make_system(self, **overrides):
        config = harness_config(**overrides)
        system = MulticsSystem(config).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        system.register_user("Eve", "Spies", "eve-pw")
        return system

    def test_workload_attribution_is_complete(self):
        system = self.make_system()
        standard_workload(system, tag="m")
        m = system.meters
        assert m.enabled
        assert m.total_cycles() > 0
        assert m.coverage() == 1.0

    def test_scheduler_and_paging_cycles_attributed(self):
        system = self.make_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        svc = system.services
        segno = alice.create_segment("pages", n_pages=6)
        aseg = svc.ast.get(alice.process.dseg.get(segno).uid)
        pc = svc.page_control

        def worker(proc):
            for page in range(6):
                yield from pc.touch(proc, aseg, page)
                yield Charge(40)

        w = Process("worker", body=worker, ring=4)
        system.add_process(w)
        system.run()
        m = system.meters
        assert m.process_cpu_cycles(w.pid) == w.cpu_cycles > 0
        assert m.process_fault_wait(w.pid) == w.fault_wait_cycles > 0
        assert m.process_page_faults(w.pid) == w.page_faults > 0
        assert m.coverage() == 1.0

    def test_destroyed_process_accounting_survives_in_fold(self):
        system = self.make_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        pid = alice.process.pid
        before = system.meters.process_cpu_cycles(pid)
        assert before > 0  # login's gate calls already charged it
        alice.logout()
        m = system.meters
        assert pid not in m._live
        assert m._buckets[pid].folded_cpu_cycles >= before
        assert m.process_cpu_cycles(pid) >= before

    def test_meter_metrics_exported_in_snapshot(self):
        system = self.make_system()
        standard_workload(system, tag="s")
        snap = system.metrics.snapshot()
        c = snap["counters"]
        assert c["meter.total_cycles"] == system.meters.total_cycles() > 0
        assert c["meter.attributed_cycles"] == c["meter.total_cycles"]
        assert c["meter.gate_entries"] > 0
        assert snap["gauges"]["meter.coverage"] == 1.0
        assert snap["gauges"]["meter.processes"] > 0

    def test_metering_disabled_is_inert_and_costless(self):
        clocks = {}
        for metering in (True, False):
            system = self.make_system(metering=metering)
            standard_workload(system, tag="z")
            clocks[metering] = system.clock.now
            if not metering:
                assert system.meters._buckets == {}
        # Identical simulated time with the plane on or off.
        assert clocks[True] == clocks[False]

    def test_config_flag_validates(self):
        cfg = SystemConfig(metering=False)
        cfg.validate()
        assert MulticsSystem(cfg).boot().meters.enabled is False
