"""Step-by-step in-kernel bootstrap (the old initialization).

Each :class:`InitStep` performs one real piece of system setup against
the kernel services — building the standard directory hierarchy,
registering system daemons and their identities, configuring devices,
seeding search infrastructure.  Under the bootstrap strategy, *every*
step executes inside the kernel at every boot; a certifier must audit
all of them (the privileged-step and statement counts that experiment
E10 reports come straight from this list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.fs.acl import Acl
from repro.fs.directory import Branch
from repro.security.mac import BOTTOM, SecurityLabel
from repro.security.principal import KERNEL_PRINCIPAL


@dataclass
class InitStep:
    """One initialization action."""

    name: str
    privileged: bool
    action: Callable[["object"], None]  # receives KernelServices
    doc: str = ""


# ---------------------------------------------------------------------------
# the actual setup work (shared by both strategies)
# ---------------------------------------------------------------------------

def _step_probe_memory(services) -> None:
    """Verify the configured memory hierarchy is sane and empty enough."""
    h = services.hierarchy
    if h.core.free_count < services.config.free_core_target:
        raise RuntimeError("insufficient free core at boot")
    if h.disk.free_count == 0:
        raise RuntimeError("no disk storage at boot")


def _make_dir(services, parent, name, label=BOTTOM, acl_pairs=None) -> None:
    if name in parent:
        return
    uid = services.ufs.create_segment(1, label=label, is_directory=True)
    acl = Acl.make(*(acl_pairs or (("*.*.*", "rw"),)))
    services.tree.register_directory(uid, parent, label, acl=acl, name=name)
    # The Directory and its branch share one ACL object (one ACL per
    # entry, as in Multics).
    parent.add(
        Branch(
            name=name, uid=uid, is_directory=True, acl=acl,
            label=label, author=str(KERNEL_PRINCIPAL),
        )
    )


def _step_root_hierarchy(services) -> None:
    """Create the standard top-level directories."""
    root = services.tree.root
    _make_dir(services, root, "udd")       # user directory directory
    _make_dir(services, root, "sss")       # standard service system
    _make_dir(services, root, "daemons",
              acl_pairs=(("*.SysDaemon.*", "rw"), ("*.*.*", "r")))
    _make_dir(services, root, "system_library",
              acl_pairs=(("*.SysDaemon.*", "rw"), ("*.*.*", "r")))


def _step_register_daemons(services) -> None:
    services.register_user("Initializer", ["SysDaemon"], "init-password")
    services.register_user("Backup", ["SysDaemon"], "backup-password")
    services.register_user("IO", ["SysDaemon"], "io-password")


def _step_configure_devices(services) -> None:
    """Sanity-check the peripheral inventory against the config."""
    for device in services.devices.values():
        if device.attached_by is not None:
            raise RuntimeError(f"device {device.name} attached at boot")


def _step_configure_network(services) -> None:
    if services.network.backlog:
        raise RuntimeError("network buffer not empty at boot")


def _step_storage_accounting(services) -> None:
    """Initialize quota on the user hierarchy."""
    root = services.tree.root
    udd = services.tree.directory(root.get("udd").uid)
    udd.quota_pages = services.config.disk_frames // 2


def _step_clock_check(services) -> None:
    if services.sim.clock.now != 0 and services.sim.pending:
        raise RuntimeError("events pending before initialization finished")


def _step_salvager_marker(services) -> None:
    """Record a clean-shutdown marker segment (the salvager's input)."""
    root = services.tree.root
    if "salvager_data" in root:
        return
    uid = services.ufs.create_segment(1, label=BOTTOM)
    root.add(
        Branch(
            name="salvager_data", uid=uid, is_directory=False,
            acl=Acl.make(("*.SysDaemon.*", "rw")), label=BOTTOM,
            author=str(KERNEL_PRINCIPAL),
        )
    )


def standard_steps() -> list[InitStep]:
    """The canonical initialization sequence."""
    return [
        InitStep("probe_memory", True, _step_probe_memory,
                 "verify the memory configuration"),
        InitStep("root_hierarchy", True, _step_root_hierarchy,
                 "create >udd, >sss, >daemons, >system_library"),
        InitStep("register_daemons", True, _step_register_daemons,
                 "register system daemon identities"),
        InitStep("configure_devices", True, _step_configure_devices,
                 "check the peripheral inventory"),
        InitStep("configure_network", True, _step_configure_network,
                 "check the network attachment"),
        InitStep("storage_accounting", True, _step_storage_accounting,
                 "set initial quotas"),
        InitStep("clock_check", True, _step_clock_check,
                 "verify the clock and event queue"),
        InitStep("salvager_marker", True, _step_salvager_marker,
                 "write the clean-shutdown marker"),
    ]


class BootstrapInitializer:
    """Runs every step, privileged, at every boot (the old way)."""

    strategy = "bootstrap"

    def __init__(self, steps: list[InitStep] | None = None) -> None:
        self.steps = steps if steps is not None else standard_steps()
        self.privileged_steps_run = 0
        self.completed: list[str] = []

    def boot(self, services) -> None:
        for step in self.steps:
            step.action(services)
            if step.privileged:
                self.privileged_steps_run += 1
            self.completed.append(step.name)
