"""Tests for the two initialization strategies (experiment E10)."""

import pytest

from repro.config import InitKind, SystemConfig
from repro.faults.harness import (
    crash,
    harness_config,
    hierarchy_violations,
    standard_workload,
    vandalize,
)
from repro.faults.salvager import (
    MAGIC_CLEAN,
    MAGIC_RUNNING,
    HierarchySalvager,
    read_marker,
)
from repro.init.bootstrap import BootstrapInitializer, standard_steps
from repro.init.image import ImageBuilder, boot_from_image
from repro.kernel.services import KernelServices
from repro.system import MulticsSystem


class TestBootstrap:
    def test_all_steps_run_privileged(self, config):
        services = KernelServices(config)
        init = BootstrapInitializer()
        init.boot(services)
        assert init.privileged_steps_run == len(standard_steps())
        assert init.privileged_steps_run >= 8

    def test_builds_standard_hierarchy(self, config):
        services = KernelServices(config)
        BootstrapInitializer().boot(services)
        names = {b.name for b in services.tree.root.list_branches()}
        assert {"udd", "sss", "daemons", "system_library"} <= names

    def test_registers_daemons(self, config):
        services = KernelServices(config)
        BootstrapInitializer().boot(services)
        assert "Initializer" in services.users
        assert "Backup" in services.users

    def test_idempotent_reboot(self, config):
        services = KernelServices(config)
        BootstrapInitializer().boot(services)
        BootstrapInitializer().boot(services)  # directories persist
        names = [b.name for b in services.tree.root.list_branches()]
        assert names.count("udd") == 1


class TestImage:
    def test_image_captures_bootstrap_state(self, config):
        image = ImageBuilder().build(config)
        paths = {tuple(d.path) for d in image.directories}
        assert () in paths
        assert ("udd",) in paths
        assert any(u["person"] == "Initializer" for u in image.users)
        assert image.seal

    def test_boot_from_image_is_two_privileged_steps(self, config):
        image = ImageBuilder().build(config)
        services = KernelServices(config)
        assert boot_from_image(services, image) == 2

    def test_image_boot_equivalent_to_bootstrap(self, config):
        """Both strategies manifest the same system state."""
        a = KernelServices(config)
        BootstrapInitializer().boot(a)

        b = KernelServices(config)
        boot_from_image(b, ImageBuilder().build(config))

        def fingerprint(services):
            dirs = sorted(
                (d.name, len(d)) for d in services.tree.directories()
            )
            users = sorted(services.users)
            return dirs, users

        assert fingerprint(a) == fingerprint(b)

    def test_tampered_image_refused(self, config):
        """The seal is the one integrity check the loading kernel makes."""
        image = ImageBuilder().build(config)
        image.users.append(
            {
                "person": "Backdoor",
                "projects": ["SysDaemon"],
                "password_hash": "0" * 32,
                "clearance": "unclassified",
            }
        )
        services = KernelServices(config)
        with pytest.raises(RuntimeError, match="seal"):
            boot_from_image(services, image)
        assert "Backdoor" not in services.users

    def test_reseal_after_legitimate_change(self, config):
        image = ImageBuilder().build(config)
        image.users = [u for u in image.users if u["person"] != "IO"]
        image.sealed()
        services = KernelServices(config)
        boot_from_image(services, image)
        assert "IO" not in services.users


class TestSystemIntegration:
    def test_facade_uses_configured_strategy(self):
        from repro import MulticsSystem, kernel_config

        boot_sys = MulticsSystem(
            kernel_config(init=InitKind.BOOTSTRAP)
        ).boot()
        image_sys = MulticsSystem(kernel_config(init=InitKind.IMAGE)).boot()
        assert boot_sys.boot_privileged_steps >= 8
        assert image_sys.boot_privileged_steps == 2
        # Both produce a usable system.
        for system in (boot_sys, image_sys):
            system.register_user("Alice", "Crypto", "pw")
            session = system.login("Alice", "Crypto", "pw")
            assert session.home_path == ">udd>Crypto>Alice"


class TestSalvager:
    """Boot-time salvage driven by the salvager_data marker."""

    def _running_system(self):
        system = MulticsSystem(harness_config()).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        system.register_user("Eve", "Spies", "eve-pw")
        return system

    def test_boot_writes_running_marker(self):
        system = self._running_system()
        assert read_marker(system.services) == MAGIC_RUNNING

    def test_clean_shutdown_writes_clean_marker(self):
        system = self._running_system()
        system.shutdown()
        assert read_marker(system.services) == MAGIC_CLEAN

    def test_clean_shutdown_skips_salvage_on_reboot(self):
        system = self._running_system()
        standard_workload(system)
        system.shutdown()
        rebooted = MulticsSystem(services=system.services).boot()
        assert rebooted.salvage_report is None
        assert not any(
            r.principal == "kernel.salvager"
            for r in rebooted.services.audit.records()
        )

    def test_unclean_marker_triggers_salvage(self):
        system = self._running_system()
        standard_workload(system)
        crash(system)  # no shutdown(): marker still says RUNNING
        rebooted = MulticsSystem(services=system.services).boot()
        report = rebooted.salvage_report
        assert report is not None
        assert report.directories_checked > 0
        assert any(
            r.principal == "kernel.salvager" and r.action == "salvage_begin"
            for r in rebooted.services.audit.records()
        )

    def test_salvage_quarantines_dangling_branch(self):
        system = self._running_system()
        standard_workload(system)
        crash(system)
        damage = vandalize(system.services, seed=0, kinds=("dangling",))
        assert damage
        rebooted = MulticsSystem(services=system.services).boot()
        report = rebooted.salvage_report
        assert report.quarantined
        assert hierarchy_violations(rebooted.services) == []

    def test_salvage_reattaches_orphan_subtree(self):
        system = self._running_system()
        standard_workload(system)
        crash(system)
        damage = vandalize(system.services, seed=0, kinds=("orphan",))
        assert damage
        rebooted = MulticsSystem(services=system.services).boot()
        report = rebooted.salvage_report
        assert report.orphans_reattached
        assert hierarchy_violations(rebooted.services) == []
        # The lost subtree is findable under the quarantine directory.
        quarantine = rebooted.services.tree.root.maybe("salvager_quarantine")
        assert quarantine is not None

    def test_salvage_repairs_torn_directory_label(self):
        system = self._running_system()
        standard_workload(system)
        crash(system)
        damage = vandalize(system.services, seed=0, kinds=("label",))
        assert damage
        rebooted = MulticsSystem(services=system.services).boot()
        assert rebooted.salvage_report.labels_repaired >= 1
        assert hierarchy_violations(rebooted.services) == []

    def test_salvage_counts_as_privileged_boot_step(self):
        system = self._running_system()
        crash(system)
        baseline = MulticsSystem(harness_config()).boot().boot_privileged_steps
        rebooted = MulticsSystem(services=system.services).boot()
        assert rebooted.boot_privileged_steps == baseline + 1

    def test_require_clean_raises_on_dirty_tree(self):
        from repro.errors import SalvageNeeded

        system = self._running_system()
        crash(system)
        with pytest.raises(SalvageNeeded):
            HierarchySalvager(system.services).require_clean()
