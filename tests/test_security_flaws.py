"""The penetration suite against both supervisors (experiment E11)."""

import pytest

from repro import MulticsSystem, kernel_config, legacy_config
from repro.security.flaws import (
    STANDARD_ATTACKS,
    ClassifiedExfiltrationAttack,
    MalformedObjectAttack,
    PrivilegedGateAttack,
    ResidueAttack,
    SearchPathLeakAttack,
    WakeupForgeryAttack,
    run_penetration_suite,
)


@pytest.fixture(scope="module")
def legacy_report():
    system = MulticsSystem(legacy_config()).boot()
    return run_penetration_suite(system)


@pytest.fixture(scope="module")
def kernel_report():
    system = MulticsSystem(kernel_config()).boot()
    return run_penetration_suite(system)


class TestHeadline:
    def test_legacy_penetrable(self, legacy_report):
        """'In all general-purpose systems confronted, a wily user can
        construct a program that can obtain unauthorized access.'"""
        assert legacy_report.successes >= 3

    def test_kernel_resists_every_attack(self, kernel_report):
        assert kernel_report.successes == 0

    def test_suite_covers_multiple_flaw_classes(self):
        classes = {a.flaw_class for a in STANDARD_ATTACKS}
        assert len(classes) == len(STANDARD_ATTACKS)  # all distinct


class TestIndividualAttacks:
    def by_name(self, report, name):
        return next(r for r in report.results if r.attack == name)

    def test_malformed_object(self, legacy_report, kernel_report):
        assert self.by_name(legacy_report, "malformed_object_segment").succeeded
        assert not self.by_name(kernel_report, "malformed_object_segment").succeeded

    def test_residue(self, legacy_report, kernel_report):
        assert self.by_name(legacy_report, "storage_residue").succeeded
        assert not self.by_name(kernel_report, "storage_residue").succeeded

    def test_search_leak(self, legacy_report, kernel_report):
        assert self.by_name(legacy_report, "search_path_leak").succeeded
        assert not self.by_name(kernel_report, "search_path_leak").succeeded

    def test_exfiltration(self, legacy_report, kernel_report):
        assert self.by_name(legacy_report, "classified_exfiltration").succeeded
        assert not self.by_name(kernel_report, "classified_exfiltration").succeeded

    def test_controls_hold_on_both(self, legacy_report, kernel_report):
        """IPC guarding and ring brackets predate the kernel work and
        hold on both systems."""
        for report in (legacy_report, kernel_report):
            assert not self.by_name(report, "wakeup_forgery").succeeded
            assert not self.by_name(report, "privileged_gate_call").succeeded


class TestFlawMechanics:
    def test_residue_requires_clearing_off(self):
        """Clearing freed frames (the kernel's default) kills the
        residue channel even on the legacy supervisor: flaw review in
        action."""
        system = MulticsSystem(legacy_config(clear_freed_frames=True)).boot()
        system.register_user("Wily", "Pentest", "wily-pw")
        system.register_user("Victim", "Payroll", "victim-pw")
        result = ResidueAttack().run(system)
        assert not result.succeeded

    def test_malformed_object_counts_incident(self):
        system = MulticsSystem(legacy_config()).boot()
        system.register_user("Wily", "Pentest", "wily-pw")
        before = system.services.supervisor_incidents
        MalformedObjectAttack().run(system)
        assert system.services.supervisor_incidents == before + 1

    def test_audit_records_denials(self):
        system = MulticsSystem(kernel_config()).boot()
        system.register_user("Wily", "Pentest", "wily-pw")
        system.register_user("Victim", "Payroll", "victim-pw")
        denials_before = system.audit.denials
        WakeupForgeryAttack().run(system)
        assert system.audit.denials >= denials_before
