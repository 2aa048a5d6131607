"""Specialized per-workload kernels (ROADMAP item 2, bench E21).

The profiler folds a training run's audit/meter traces into a
GateProfile; specialize() generates a kernel whose table populates
only the profiled gates; everything else is a deny-and-audit stub.
The penetration suite is the regression gate: full, specialized, and
empty-profile kernels must all hold it, and the empty profile must
deny *everything*.
"""

import pytest

from repro import MulticsSystem, kernel_config
from repro.config import USER_RING
from repro.errors import (
    AccessViolation,
    KernelDenial,
    ReproError,
    SpecializationDenial,
)
from repro.kernel.specialize import (
    EMPTY_PROFILE,
    GateProfile,
    KernelProfiler,
    SpecializedKernel,
    full_kernel_gates,
    specialize,
)
from repro.security.flaws import run_penetration_suite
from repro.security.mac import BOTTOM

#: A syntactically valid argument for every validator spec, so a call
#: reaches the handler (or its deny stub) instead of dying in
#: argument validation.
DUMMY_ARGS = {
    "int": 0,
    "uint": 0,
    "segno": 0,
    "str": "x",
    "name": "x",
    "path": ">x",
    "mode": "r",
    "pattern": "*.*.*",
    "label": BOTTOM,
    "words": [0],
    "any": 0,
}


def dummy_args(gate):
    return tuple(DUMMY_ARGS[spec] for spec in gate.signature)


def train(system, person="Alice", project="Crypto", password="alice-pw"):
    """A small training workload: the session ops the workload engine's
    profiles are built from."""
    session = system.login(person, project, password)
    segno = session.create_segment("training_data", n_pages=2)
    session.write_words(segno, [1, 2, 3])
    session.read_words(segno, 3)
    session.set_acl("training_data", f"*.{project}", "r")
    session.status("training_data")
    session.delete("training_data")
    session.logout()


# ---------------------------------------------------------------------------
# GateProfile
# ---------------------------------------------------------------------------

class TestGateProfile:
    def test_coerces_iterables_to_frozensets(self):
        p = GateProfile("p", gates=["a", "b", "a"], services=("fs",))
        assert p.gates == frozenset({"a", "b"})
        assert isinstance(p.services, frozenset)

    def test_contains(self):
        p = GateProfile("p", gates={"hcs_$initiate"})
        assert "hcs_$initiate" in p
        assert "net_$send" not in p

    def test_round_trip(self):
        p = GateProfile("p", gates={"a"}, fault_paths={"page_fault"},
                        services={"fs"}, trained_calls=7)
        assert GateProfile.from_dict(p.to_dict()) == p

    def test_empty_profile_has_no_gates(self):
        assert not EMPTY_PROFILE.gates
        assert EMPTY_PROFILE.trained_calls == 0


# ---------------------------------------------------------------------------
# KernelProfiler
# ---------------------------------------------------------------------------

class TestKernelProfiler:
    def test_profile_covers_the_training_workload(self, kernel_system):
        profiler = KernelProfiler(kernel_system)
        train(kernel_system)
        profile = profiler.profile("training")
        # The workload's session ops, the login path, and the naming
        # machinery all show up.
        for gate in ("hcs_$proc_create", "hcs_$create_segment",
                     "hcs_$acl_add", "hcs_$delete_entry",
                     "hcs_$initiate", "hcs_$proc_destroy"):
            assert gate in profile.gates
        assert profile.trained_calls > 0
        assert "fs" in profile.services
        assert "process" in profile.services
        # 2-page writes through a tiny core: the page-fault path ran.
        assert "page_fault" in profile.fault_paths

    def test_ring_denied_gates_are_not_entered(self, kernel_system):
        profiler = KernelProfiler(kernel_system)
        session = kernel_system.login("Alice", "Crypto", "alice-pw")
        root = session.call("hcs_$get_root")
        with pytest.raises(AccessViolation):
            session.call("hcs_$set_quota", root, 10**9)
        profile = profiler.profile("probe")
        assert "hcs_$set_quota" not in profile.gates
        assert "hcs_$get_root" in profile.gates

    def test_mark_resets_the_baseline(self, kernel_system):
        profiler = KernelProfiler(kernel_system)
        train(kernel_system)
        first = profiler.profile("first", remark=True)
        assert first.gates
        quiet = profiler.profile("quiet")
        assert quiet.gates == frozenset()
        assert quiet.trained_calls == 0

    def test_profile_refuses_a_window_the_ring_dropped(self):
        """The audit is bounded: a training window that outgrew it has
        lost its earliest gate calls, so the profile would be short."""
        system = MulticsSystem(kernel_config(audit_capacity=16)).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        session = system.login("Alice", "Crypto", "alice-pw")
        profiler = KernelProfiler(system)
        for _ in range(30):
            session.call("hcs_$get_root")
        with pytest.raises(ReproError, match="audit_capacity"):
            profiler.profile("overflowed")

    def test_profile_refuses_a_deny_level_audit(self):
        """At level ``deny`` the audit keeps no granted call, so there
        is nothing to profile from."""
        system = MulticsSystem(kernel_config(audit_level="deny")).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        profiler = KernelProfiler(system)
        train(system)
        with pytest.raises(ReproError, match="level"):
            profiler.profile("deny-level")


# ---------------------------------------------------------------------------
# SpecializedKernel
# ---------------------------------------------------------------------------

class TestSpecializedKernel:
    @pytest.fixture
    def trained(self, kernel_system):
        """(system, profile) after a training run."""
        profiler = KernelProfiler(kernel_system)
        train(kernel_system)
        return kernel_system, profiler.profile("trained")

    def test_census_partitions_the_full_inventory(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        total = len(full_kernel_gates())
        assert kernel.gate_count() == total  # perimeter census unchanged
        assert kernel.gates.live_gate_count() == len(profile.gates)
        assert kernel.gates.stub_count() == total - len(profile.gates)

    def test_own_workload_runs_without_stub_hits(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        previous = system.install_supervisor(kernel)
        try:
            train(system, person="Bob", password="bob-pw")
        finally:
            system.install_supervisor(previous)
        assert kernel.gates.deny_stub_hits == 0

    def test_unprofiled_gate_denied_and_audited(self, trained):
        system, profile = trained
        assert "net_$send" not in profile.gates
        kernel = specialize(system, profile)
        session = system.login("Eve", "Spies", "eve-pw")
        denials_before = system.audit.denials
        with pytest.raises(SpecializationDenial):
            kernel.call(session.process, "net_$send", "remote", "data")
        assert kernel.gates.deny_stub_hits == 1
        # One funnel: the denial is in the audit like any other.
        assert system.audit.denials == denials_before + 1
        denied = system.audit.denied()
        assert denied[-1].object == "net_$send"
        assert denied[-1].category == "gate"

    def test_stub_keeps_ring_brackets(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        session = system.login("Eve", "Spies", "eve-pw")
        # hcs_$set_quota is privileged *and* unprofiled: the ring check
        # still fires first, exactly as on the full kernel.
        root = session.call("hcs_$get_root")
        with pytest.raises(AccessViolation):
            kernel.call(session.process, "hcs_$set_quota", root, 10**9)
        assert kernel.gates.deny_stub_hits == 0

    def test_surface_report_measures_reduction(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        report = kernel.surface_report()
        assert report["gates_live"] + report["deny_stubs"] == report["gates_total"]
        assert 0 < report["gate_reduction"] < 1
        assert report["reachable_statements"] < report["full_statements"]
        assert 0 < report["statement_reduction"] < 1

    def test_empty_profile_denies_every_user_gate(self):
        system = MulticsSystem(kernel_config()).boot()
        kernel = specialize(system, EMPTY_PROFILE)
        from repro.proc.process import Process
        from repro.security.principal import Principal

        process = Process("probe", ring=USER_RING,
                          principal=Principal("Probe", "Test"))
        user_gates = privileged = 0
        for gate in full_kernel_gates():
            args = dummy_args(gate)
            if gate.user_available():
                user_gates += 1
                with pytest.raises(SpecializationDenial):
                    kernel.call(process, gate.name, *args)
            else:
                privileged += 1
                with pytest.raises(AccessViolation):
                    kernel.call(process, gate.name, *args)
        assert user_gates + privileged == len(full_kernel_gates())
        # Every user-reachable gate hit the stub; the ring check kept
        # the privileged ones from ever entering.
        assert kernel.gates.deny_stub_hits == user_gates
        assert kernel.gates.live_gate_count() == 0

    def test_install_supervisor_rejects_foreign_services(self, kernel_system):
        other = MulticsSystem(kernel_config())
        foreign = specialize(other, EMPTY_PROFILE)
        with pytest.raises(ValueError):
            kernel_system.install_supervisor(foreign)

    def test_specialize_metrics_registered(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        names = system.metrics.names()
        for name in ("specialize.kernels", "specialize.gates",
                     "specialize.deny_stubs", "specialize.deny_stub_hits",
                     "specialize.reachable_statements"):
            assert name in names
        snapshot = system.metrics.snapshot()
        assert snapshot["gauges"]["specialize.kernels"] == 1
        assert snapshot["gauges"]["specialize.gates"] == len(profile.gates)


# ---------------------------------------------------------------------------
# The penetration-regression gate (satellite for E11/E21)
# ---------------------------------------------------------------------------

class TestPenetrationRegression:
    def _deny_complete(self, system):
        """Every refused gate call the meters counted (a witness outside
        the audit) is a denied call record, and none was dropped."""
        denied_calls = sum(
            1 for r in system.audit.records()
            if r.action == "call" and r.decision == "denied"
        )
        metered = system.metrics.snapshot()["counters"]["meter.gate_denials"]
        return system.audit.dropped == 0 and denied_calls == metered

    def test_full_kernel_still_holds(self, kernel_system):
        report = run_penetration_suite(kernel_system)
        assert report.successes == 0
        assert report.attempted == len(report.results)

    def test_specialized_kernel_holds(self):
        system = MulticsSystem(kernel_config()).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        profiler = KernelProfiler(system)
        train(system)
        kernel = specialize(system, profiler.profile("trained"))
        report = run_penetration_suite(system, supervisor=kernel)
        assert report.system_kind == "specialized:trained"
        assert report.successes == 0
        assert self._deny_complete(system)
        # The injection was transient: the full kernel is back.
        assert system.supervisor is not kernel

    def test_empty_profile_denies_everything(self):
        system = MulticsSystem(kernel_config()).boot()
        kernel = specialize(system, EMPTY_PROFILE)
        stub_hits_before = kernel.gates.deny_stub_hits
        report = run_penetration_suite(system, supervisor=kernel)
        assert report.successes == 0
        # Not one attack got past login: every result is an up-front
        # denial, and each one is on the audit trail.
        for result in report.results:
            assert "denied before the attack could run" in result.detail
        assert kernel.gates.deny_stub_hits > stub_hits_before
        assert self._deny_complete(system)

    def test_legacy_suite_unchanged_by_parameterization(self, legacy_system):
        report = run_penetration_suite(legacy_system)
        assert report.successes >= 3  # the legacy flaws still reproduce
