"""Fault injection, kernel recovery, and the containment property.

The paper's claim under test: a failing component "can cause only
denial of use, never unauthorized release or modification" of
information.  These tests inject deterministic hardware failures at
every site the fault plane knows and check (a) each recovery mechanism
in isolation, (b) that injection is reproducible given the seed, and
(c) that ACL/MAC decisions never change under fire.
"""

import pytest

from repro.config import SystemConfig
from repro.errors import (
    DeviceError,
    InvalidArgument,
    ParityError,
    TransientFault,
)
from repro.faults.harness import (
    harness_config,
    run_crash_recovery,
    security_decisions,
    standard_workload,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import RetryPolicy, retry_call
from repro.hw.clock import Simulator
from repro.hw.interrupts import InterruptController
from repro.hw.memory import MemoryHierarchy
from repro.io.buffers import CircularBuffer
from repro.io.devices import WATCHDOG_FACTOR, Terminal
from repro.io.network import NetworkAttachment
from repro.system import MulticsSystem


def small_config(**overrides) -> SystemConfig:
    return harness_config(**overrides)


def plan(*specs, seed=0) -> FaultPlan:
    return FaultPlan(list(specs), seed=seed)


# ---------------------------------------------------------------------------
# the plan itself
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_spec_needs_rate_or_schedule(self):
        with pytest.raises(ValueError):
            FaultSpec(site="device.tty1", kind="hang")

    def test_rate_must_be_probability(self):
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="y", rate=1.5)

    def test_schedule_fires_on_exact_ops(self):
        p = plan(FaultSpec("device.tty1", "hang", at_ops=(2, 4)))
        decisions = [p.decide("device.tty1") for _ in range(5)]
        assert decisions == [None, "hang", None, "hang", None]

    def test_spec_rejects_rate_and_schedule_together(self):
        with pytest.raises(ValueError, match="not both"):
            FaultSpec(site="device.tty1", kind="hang",
                      rate=0.5, at_ops=(1, 3))

    def test_wildcard_site_matches_prefix(self):
        p = plan(FaultSpec("memory.*", "parity", at_ops=(1,)))
        assert p.decide("memory.core.read") == "parity"
        assert p.decide("device.tty1") is None

    def test_wildcard_keeps_per_site_op_counters(self):
        # One rule, two sites: each site's schedule counts its own ops.
        p = plan(FaultSpec("memory.*", "parity", at_ops=(2,)))
        assert p.decide("memory.core.read") is None
        assert p.decide("memory.bulk.read") is None
        assert p.decide("memory.core.read") == "parity"
        assert p.decide("memory.bulk.read") == "parity"

    def test_first_matching_rule_wins_over_later_wildcard(self):
        p = plan(
            FaultSpec("memory.core.read", "parity", at_ops=(1,)),
            FaultSpec("memory.*", "transfer_error", at_ops=(1, 2)),
        )
        # Op 1: the exact rule is listed first and fires first.
        assert p.decide("memory.core.read") == "parity"
        # Op 2: the exact rule is quiet, the wildcard fires.
        assert p.decide("memory.core.read") == "transfer_error"

    def test_earlier_wildcard_shadows_exact_rule(self):
        p = plan(
            FaultSpec("memory.*", "transfer_error", at_ops=(1,)),
            FaultSpec("memory.core.read", "parity", at_ops=(1,)),
        )
        # Rule order is precedence — a broad wildcard listed first
        # shadows the exact rule on the shared op.
        assert p.decide("memory.core.read") == "transfer_error"

    def test_rate_stream_deterministic_per_seed(self):
        a = plan(FaultSpec("s", "k", rate=0.3), seed=7)
        b = plan(FaultSpec("s", "k", rate=0.3), seed=7)
        assert [a.decide("s") for _ in range(200)] == [
            b.decide("s") for _ in range(200)
        ]

    def test_different_seeds_differ(self):
        a = plan(FaultSpec("s", "k", rate=0.3), seed=1)
        b = plan(FaultSpec("s", "k", rate=0.3), seed=2)
        assert [a.decide("s") for _ in range(200)] != [
            b.decide("s") for _ in range(200)
        ]

    def test_fork_resets_history(self):
        p = plan(FaultSpec("s", "k", at_ops=(1,)))
        assert p.decide("s") == "k"
        assert p.fork().decide("s") == "k"  # fresh op counter

    def test_injector_audits_every_injection(self):
        from repro.security.audit import AuditLog

        audit = AuditLog()
        injector = FaultInjector(
            plan(FaultSpec("s", "k", at_ops=(1,))), audit=audit
        )
        assert injector.check("s") == "k"
        assert injector.check("s") is None
        records = [r for r in audit.records() if r.decision == "injected"]
        assert len(records) == 1
        assert records[0].principal == "hardware.fault_plan"


# ---------------------------------------------------------------------------
# memory: parity, retry, frame retirement
# ---------------------------------------------------------------------------

class TestMemoryFaults:
    def _hierarchy(self, p) -> MemoryHierarchy:
        config = small_config(fault_plan=p)
        injector = FaultInjector(p.fork())
        return MemoryHierarchy(config, injector=injector)

    def test_parity_raises_on_read(self):
        h = self._hierarchy(plan(FaultSpec("memory.core.read", "parity", at_ops=(1,))))
        frame = h.core.allocate()
        h.core.write(frame, 0, 42)
        with pytest.raises(ParityError):
            h.core.read(frame, 0)
        assert h.core.read(frame, 0) == 42  # next read is clean

    def test_retry_call_recovers_from_parity(self):
        h = self._hierarchy(plan(FaultSpec("memory.core.read", "parity", at_ops=(1,))))
        frame = h.core.allocate()
        h.core.write(frame, 0, 7)
        value, spent = retry_call(
            lambda: h.core.read(frame, 0), RetryPolicy(), h.injector, "t"
        )
        assert value == 7
        assert spent == RetryPolicy().backoff(1)

    def test_retry_exhaustion_is_denial_of_use(self):
        h = self._hierarchy(plan(FaultSpec("memory.core.read", "parity", rate=1.0)))
        frame = h.core.allocate()
        with pytest.raises(DeviceError):
            retry_call(
                lambda: h.core.read(frame, 0), RetryPolicy(max_retries=2),
                h.injector, "t",
            )
        assert h.injector.fatal == 1

    def test_failing_frame_retired_not_reused(self):
        p = plan(FaultSpec("memory.core.read", "parity", rate=1.0))
        config = small_config(fault_plan=p, frame_retire_threshold=2)
        h = MemoryHierarchy(config, injector=FaultInjector(p.fork()))
        frame = h.core.allocate()
        for _ in range(2):
            with pytest.raises(ParityError):
                h.core.read(frame, 0)
        h.core.free(frame)
        assert frame in h.core.retired
        assert all(h.core.allocate() != frame for _ in range(h.core.n_frames - 1))

    def test_transfer_error_is_transient(self):
        h = self._hierarchy(plan(FaultSpec("memory.transfer", "transfer_error", at_ops=(1,))))
        frame = h.disk.allocate()
        with pytest.raises(TransientFault):
            h.transfer(h.disk, frame, h.core)
        moved = h.transfer(h.disk, frame, h.core)  # retry succeeds
        assert h.core.read(moved, 0) == 0


# ---------------------------------------------------------------------------
# devices: retry, watchdog, degradation, detach cancellation
# ---------------------------------------------------------------------------

class TestDeviceRecovery:
    def _terminal(self, p=None, **kwargs) -> tuple[Simulator, InterruptController, Terminal]:
        sim = Simulator()
        ic = InterruptController(sim.clock)
        injector = FaultInjector(p.fork(), clock=sim.clock) if p else None
        tty = Terminal("tty1", sim, ic, line=1, injector=injector, **kwargs)
        return sim, ic, tty

    def test_clean_completion_raises_interrupt(self):
        sim, ic, tty = self._terminal()
        tty.attach(1)
        tty.write_line(1, "hello")
        sim.run()
        assert ic.raised == 1

    def test_transfer_error_retried_then_delivered(self):
        p = plan(FaultSpec("device.tty1", "transfer_error", at_ops=(1,)))
        sim, ic, tty = self._terminal(p)
        tty.attach(1)
        tty.write_line(1, "hello")
        sim.run()
        assert ic.raised == 1
        assert tty.failures == 1
        assert tty.injector.recovered == 1
        # Backoff happened in simulated time: slower than the clean path.
        assert sim.clock.now > tty.latency

    def test_exhausted_retries_degrade_device(self):
        p = plan(FaultSpec("device.tty1", "transfer_error", rate=1.0))
        sim, ic, tty = self._terminal(p, policy=RetryPolicy(max_retries=2))
        tty.attach(1)
        tty.write_line(1, "hello")
        sim.run()
        assert tty.out_of_service
        assert tty.injector.degraded == 1
        # The waiter got a denial payload, not silence.
        assert ic.raised == 1
        with pytest.raises(DeviceError):
            tty.attach(2)

    @pytest.mark.parametrize("kind", ["hang", "lost_interrupt"])
    def test_watchdog_redelivers(self, kind):
        p = plan(FaultSpec("device.tty1", kind, at_ops=(1,)))
        sim, ic, tty = self._terminal(p)
        tty.attach(1)
        tty.write_line(1, "hello")
        sim.run()
        assert ic.raised == 1
        assert tty.recoveries == 1
        assert sim.clock.now >= tty.latency * WATCHDOG_FACTOR

    def test_detach_cancels_pending_completions(self):
        sim, ic, tty = self._terminal()
        tty.attach(1)
        tty.write_line(1, "hello")
        tty.detach(1)  # before the completion interrupt fires
        sim.run()
        assert ic.raised == 0
        assert tty.cancelled_completions == 1
        assert tty._pending == []

    def test_detach_does_not_cancel_other_process(self):
        sim, ic, tty = self._terminal()
        tty.attach(1)
        tty.write_line(1, "hello")
        with pytest.raises(InvalidArgument):
            tty.detach(2)
        sim.run()
        assert ic.raised == 1

    def test_power_fail_clears_pending(self):
        sim, ic, tty = self._terminal()
        tty.attach(1)
        tty.write_line(1, "hello")
        tty.power_fail()
        sim.run()
        assert ic.raised == 0
        assert tty.attached_by is None


# ---------------------------------------------------------------------------
# network: drop, duplicate, suppression
# ---------------------------------------------------------------------------

class TestNetworkFaults:
    def _net(self, p) -> tuple[Simulator, NetworkAttachment]:
        sim = Simulator()
        ic = InterruptController(sim.clock)
        net = NetworkAttachment(
            sim, ic, line=6, buffer=CircularBuffer(16),
            injector=FaultInjector(p.fork(), clock=sim.clock),
        )
        return sim, net

    def test_dropped_message_never_buffered(self):
        sim, net = self._net(plan(FaultSpec("net.deliver", "drop", at_ops=(1,))))
        net.deliver("host", "lost")
        net.deliver("host", "kept")
        sim.run()
        assert net.dropped == 1
        assert net.receive().body == "kept"
        assert net.receive() is None

    def test_duplicate_suppressed_on_receive(self):
        sim, net = self._net(plan(FaultSpec("net.deliver", "duplicate", at_ops=(1,))))
        net.deliver("host", "once")
        sim.run()
        assert net.duplicated == 1
        assert net.receive().body == "once"
        assert net.receive() is None  # the copy was suppressed
        assert net.duplicates_suppressed == 1
        assert net.injector.recovered == 1


# ---------------------------------------------------------------------------
# page control: transfers retried with charged backoff
# ---------------------------------------------------------------------------

class TestPageTransferRetry:
    def test_page_fault_survives_transfer_error(self):
        p = plan(
            FaultSpec("memory.transfer", "transfer_error", at_ops=(1,)),
            seed=5,
        )
        system = MulticsSystem(small_config(fault_plan=p)).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        alice = system.login("Alice", "Crypto", "alice-pw")
        segno = alice.create_segment("scratch", n_pages=2)
        alice.write_words(segno, list(range(10)))
        assert alice.read_words(segno, 10) == list(range(10))
        injector = system.services.injector
        assert injector.injected_count >= 1
        assert injector.recovered >= 1
        assert system.services.page_control.transfer_retries >= 1

    def test_fatal_transfer_is_denial_of_use(self):
        p = plan(FaultSpec("memory.transfer", "transfer_error", rate=1.0))
        system = MulticsSystem(small_config(fault_plan=p)).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        with pytest.raises(DeviceError):
            alice = system.login("Alice", "Crypto", "alice-pw")
            segno = alice.create_segment("scratch", n_pages=8)
            for off in range(0, 8 * system.config.page_size, 1):
                alice.write_words(segno, [off], offset=off)
        assert system.services.injector.fatal >= 1


# ---------------------------------------------------------------------------
# determinism: same seed, same story
# ---------------------------------------------------------------------------

def noisy_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec("memory.core.read", "parity", rate=0.1),
            FaultSpec("memory.transfer", "transfer_error", rate=0.2),
            FaultSpec("device.*", "transfer_error", rate=0.2),
            FaultSpec("net.deliver", "duplicate", rate=0.3),
        ],
        seed=seed,
    )


def run_workload(fault_seed=None):
    cfg = small_config(
        fault_plan=noisy_plan(fault_seed) if fault_seed is not None else None
    )
    system = MulticsSystem(cfg).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    system.register_user("Eve", "Spies", "eve-pw")
    result = standard_workload(system)
    return system, result


class TestDeterminism:
    def test_same_seed_identical_audit_log(self):
        a, _ = run_workload(fault_seed=11)
        b, _ = run_workload(fault_seed=11)
        rec_a = [
            (r.time, r.principal, r.object, r.action, r.decision, r.detail)
            for r in a.services.audit.records()
        ]
        rec_b = [
            (r.time, r.principal, r.object, r.action, r.decision, r.detail)
            for r in b.services.audit.records()
        ]
        assert rec_a == rec_b
        assert a.services.injector.injected == b.services.injector.injected

    def test_injection_actually_happened(self):
        system, _ = run_workload(fault_seed=11)
        assert system.services.injector.injected_count >= 1


# ---------------------------------------------------------------------------
# containment: decisions identical with and without injection
# ---------------------------------------------------------------------------

class TestContainment:
    @pytest.mark.parametrize("fault_seed", range(6))
    def test_decisions_unchanged_by_injection(self, fault_seed):
        """The headline property: a fault plan may slow the system down
        or deny use, but every ACL/MAC decision is the same as in the
        fault-free run."""
        baseline_sys, baseline = run_workload(fault_seed=None)
        faulty_sys, faulty = run_workload(fault_seed=fault_seed)
        assert faulty.notes == [] or all(
            "UNEXPECTEDLY" not in n for n in faulty.notes
        )
        assert security_decisions(faulty_sys.services.audit) == \
            security_decisions(baseline_sys.services.audit)
        assert faulty.expected_denials == baseline.expected_denials == 2

    def test_no_unauthorized_access_under_heavy_fire(self):
        """Crank the rates: recovery may fail (denial of use) but the
        reference monitor's answers stay authoritative."""
        cfg = small_config(
            fault_plan=FaultPlan(
                [
                    FaultSpec("memory.core.read", "parity", rate=0.05),
                    FaultSpec("device.*", "transfer_error", rate=0.3),
                    FaultSpec("memory.transfer", "transfer_error", rate=0.1),
                ],
                seed=99,
            )
        )
        system = MulticsSystem(cfg).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        system.register_user("Eve", "Spies", "eve-pw")
        result = standard_workload(system)
        assert all("UNEXPECTEDLY" not in n for n in result.notes)
        granted = [
            d for d in security_decisions(system.services.audit)
            if d[0].startswith("Eve") and d[3] == "granted"
            and "Alice" in d[1]
        ]
        assert granted == []


# ---------------------------------------------------------------------------
# the full story: crash, salvage, reboot — under injection
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_crash_recovery_without_faults(self):
        r = run_crash_recovery(seed=0)
        assert r.damage
        assert r.salvage_report.damage_found >= len(r.damage)
        assert r.violations_after == []
        assert r.unauthorized == []
        assert r.clean_marker

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_recovery_under_injection(self, seed):
        cfg = harness_config(fault_plan=noisy_plan(seed))
        r = run_crash_recovery(config=cfg, seed=seed)
        assert r.violations_after == []
        assert r.unauthorized == []
        assert r.clean_marker
        assert r.post_boot.expected_denials >= 1
