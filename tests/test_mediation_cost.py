"""Guard: mediation costs what ints and tuples cost on the host.

Every gate call, reference-monitor check and hardware access check
combines access modes, hashes associative-memory keys and logs a
decision.  ``AccessMode``'s operations index a table of its members,
``Intent`` hashes by identity and ``AuditLog.log`` appends a field
tuple, so none of that runs ``enum`` code or builds an ``AuditRecord``.
A change that put ``enum.Flag``'s operators, ``Enum.__hash__`` or a
record per decision back on the path fails these counts.
"""

import enum
import sys
from collections import Counter

import pytest

from repro import MulticsSystem, SecurityLabel, kernel_config
from repro.errors import AccessDenied, KernelDenial
from repro.security.audit import AuditLog, AuditRecord
from repro.workloads import WorkloadDriver, generate_population

#: Modules on the mediation path; ``<block>`` stands for the CPU's
#: compiled superblocks.
MEDIATION = {
    "repro.hw.segmentation",
    "repro.hw.assoc",
    "repro.security.reference_monitor",
    "repro.security.audit",
    "repro.kernel.gates",
    "repro.kernel.fs_gates",
    "<block>",
}
USERS = 24


def _caller(frame) -> str | None:
    """The module of the first frame from ``frame`` down that is not
    ``enum``'s own, or ``<block>`` for a compiled superblock."""
    while frame is not None and frame.f_code.co_filename == enum.__file__:
        frame = frame.f_back
    if frame is None:
        return None
    if frame.f_code.co_filename.startswith("<block"):
        return "<block>"
    return frame.f_globals.get("__name__")


def _scenario() -> MulticsSystem:
    """A small population through the workload driver at audit level
    ``all``, then one ACL and one MAC denial by the reference monitor."""
    system = MulticsSystem(kernel_config(audit_level="all")).boot()
    WorkloadDriver(system, n_cpus=2).run(generate_population(USERS,
                                                             seed=1975))
    system.register_user("Alice", "Crypto", "alice-pw")
    system.register_user("Eve", "Spies", "eve-pw")
    system.register_user("Low", "Intel", "pw",
                         clearance=SecurityLabel.parse("unclassified"))
    alice = system.login("Alice", "Crypto", "alice-pw")
    alice.create_segment("secret")
    alice.set_acl("secret", "Alice.Crypto", "rw")
    with pytest.raises(AccessDenied):
        system.login("Eve", "Spies", "eve-pw").initiate(
            f"{alice.home_path}>secret")
    low = system.login("Low", "Intel", "pw")
    low.create_dir("vault", label=SecurityLabel.parse("secret"))
    with pytest.raises((AccessDenied, KernelDenial)):
        low.list_dir(f"{low.home_path}>vault")
    return system


@pytest.fixture(scope="module")
def profiled():
    """Run the scenario under ``sys.setprofile``: count ``enum`` frames
    by their first non-``enum`` caller, and the ``AuditRecord``s built
    inside ``AuditLog.log``."""
    enum_callers: Counter = Counter()
    built_in_log = 0
    record_init = AuditRecord.__init__.__code__
    log_code = AuditLog.log.__code__

    def profile(frame, event, arg):
        nonlocal built_in_log
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename == enum.__file__:
            enum_callers[_caller(frame)] += 1
        elif code is record_init and frame.f_back.f_code is log_code:
            built_in_log += 1

    sys.setprofile(profile)
    try:
        system = _scenario()
    finally:
        sys.setprofile(None)
    return system, enum_callers, built_in_log


def test_scenario_reaches_every_mediation_layer(profiled):
    system, _, _ = profiled
    audit = system.audit
    assert audit.level == "all" and audit.dropped == 0
    monitor_denials = {r.category for r in audit.denied()
                       if r.action != "call"}
    assert {"acl", "mac"} <= monitor_denials
    assert system.services.monitor.checks > USERS
    assert sum(1 for r in audit.records() if r.action == "call") > USERS


def test_mediation_runs_no_enum_code(profiled):
    _, enum_callers, _ = profiled
    on_path = {m: n for m, n in enum_callers.items() if m in MEDIATION}
    assert on_path == {}


def test_log_builds_no_record(profiled):
    system, _, built_in_log = profiled
    assert len(system.audit) > USERS
    assert built_in_log == 0
