"""Tests for the gate registry, validators, and the perimeter censuses."""

import dataclasses

import pytest

from repro.config import RingMode, SystemConfig
from repro.errors import AccessViolation, InvalidArgument
from repro.hw.rings import RingBrackets
from repro.kernel import metrics
from repro.kernel.gates import (
    PRIVILEGED_GATE,
    VALIDATORS,
    Gate,
    GateTable,
    GateViolationError,
)
from repro.kernel.kernel import build_kernel
from repro.kernel.legacy import build_legacy
from repro.kernel.services import KernelServices
from repro.proc.process import Process
from repro.security.principal import Principal


@pytest.fixture
def kernel(config):
    return build_kernel(config)


@pytest.fixture
def legacy(config):
    return build_legacy(config)


def user_process(name="u", ring=4):
    return Process(name, ring=ring, principal=Principal("Test", "Proj"))


class TestValidators:
    @pytest.mark.parametrize(
        "spec,good,bad",
        [
            ("int", 5, "five"),
            ("int", -5, 1.5),
            ("uint", 0, -1),
            ("segno", 8, True),
            ("str", "x", 9),
            ("name", "notes", "with>sep"),
            ("path", ">a>b", "relative"),
            ("mode", "rw", "rx"),
            ("pattern", "Alice.Crypto", "a.b.c.d"),
            ("words", [1, 2], [1, "a"]),
        ],
    )
    def test_specs(self, spec, good, bad):
        VALIDATORS[spec](good)
        with pytest.raises(InvalidArgument):
            VALIDATORS[spec](bad)

    def test_label_spec(self):
        from repro.security.mac import SecurityLabel

        VALIDATORS["label"](SecurityLabel(1))
        with pytest.raises(InvalidArgument):
            VALIDATORS["label"]("secret")

    def test_any_accepts_everything(self):
        VALIDATORS["any"](object())


class TestGateTable:
    def make_table(self, config):
        services = KernelServices(config)
        return services, GateTable(services, services.audit)

    def test_register_and_call(self, config):
        services, table = self.make_table(config)
        table.register(
            Gate("t_$add", "test", lambda s, p, a, b: a + b, ("int", "int"))
        )
        assert table.call(user_process(), "t_$add", 2, 3) == 5
        assert table.calls == 1

    def test_duplicate_name_rejected(self, config):
        services, table = self.make_table(config)
        gate = Gate("t_$x", "test", lambda s, p: None)
        table.register(gate)
        with pytest.raises(ValueError):
            table.register(gate)
        # Still exactly one registration; the table is unchanged.
        assert table.names().count("t_$x") == 1

    def test_unknown_gate(self, config):
        services, table = self.make_table(config)
        with pytest.raises(GateViolationError):
            table.call(user_process(), "no_such_gate")

    def test_unregistered_gate_lookup(self, config):
        services, table = self.make_table(config)
        with pytest.raises(GateViolationError):
            table.gate("hcs_$never_registered")
        assert "hcs_$never_registered" not in table

    def test_claim_metrics_rebinds_to_the_claiming_table(self, config):
        services, first = self.make_table(config)
        first.register(Gate("t_$x", "test", lambda s, p: None, ()))
        first.call(user_process(), "t_$x")
        second = GateTable(services, services.audit)  # claims on init
        assert services.metrics.snapshot()["counters"]["gate.calls"] == 0
        first.claim_metrics()
        assert services.metrics.snapshot()["counters"]["gate.calls"] == 1
        assert second.calls == 0

    def test_argument_count_enforced(self, config):
        services, table = self.make_table(config)
        table.register(Gate("t_$one", "test", lambda s, p, a: a, ("int",)))
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$one")
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$one", 1, 2)

    def test_argument_validated_before_handler(self, config):
        services, table = self.make_table(config)
        ran = []
        table.register(
            Gate("t_$w", "test", lambda s, p, a: ran.append(a), ("uint",))
        )
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$w", -3)
        assert ran == []  # handler never saw the bad argument
        assert table.rejections == 1

    def test_privileged_gate_ring_checked(self, config):
        from repro.kernel.gates import PRIVILEGED_GATE

        services, table = self.make_table(config)
        table.register(
            Gate("t_$admin", "test", lambda s, p: "ok", (),
                 brackets=PRIVILEGED_GATE)
        )
        with pytest.raises(AccessViolation):
            table.call(user_process(ring=4), "t_$admin")
        assert table.call(user_process(ring=1), "t_$admin") == "ok"

    def test_handler_crash_is_supervisor_incident(self, config):
        services, table = self.make_table(config)

        def bad_handler(s, p):
            raise IndexError("walked off the input")

        table.register(Gate("t_$crash", "test", bad_handler, ()))
        with pytest.raises(IndexError):
            table.call(user_process(), "t_$crash")
        assert services.supervisor_incidents == 1

    def test_cross_ring_cost_charged(self, config):
        from repro.config import RingMode

        config.ring_mode = RingMode.SOFTWARE_645
        services, table = self.make_table(config)
        table.register(Gate("t_$x", "test", lambda s, p: None, ()))
        process = user_process()
        table.call(process, "t_$x")
        assert process.cpu_cycles >= config.costs.cross_ring_penalty_645

    def test_calls_audited(self, config):
        services, table = self.make_table(config)
        table.register(Gate("t_$x", "test", lambda s, p: None, ()))
        table.call(user_process(), "t_$x")
        assert services.audit.records()[-1].decision == "granted"

    def test_ring_restored_after_call(self, config):
        services, table = self.make_table(config)
        table.register(Gate("t_$x", "test", lambda s, p: p.ring, ()))
        process = user_process(ring=4)
        # The handler runs in ring 0; the caller returns to ring 4.
        assert table.call(process, "t_$x") == 0
        assert process.ring == 4


class TestDenyStubGates:
    """Edge cases of the specialized table's deny stubs: the stub
    keeps the original gate's brackets and signature, so everything
    the choke point enforces fires before (or instead of) the stub."""

    def make_table(self, config, profile_gates=()):
        from repro.kernel.specialize import GateProfile, SpecializedGateTable

        services = KernelServices(config)
        table = SpecializedGateTable(
            services, services.audit, GateProfile("edge", profile_gates)
        )
        return services, table

    def test_duplicate_stub_registration_rejected(self, config):
        services, table = self.make_table(config)
        gate = Gate("t_$x", "test", lambda s, p: None)
        table.register_stub(gate)
        with pytest.raises(ValueError):
            table.register_stub(gate)
        with pytest.raises(ValueError):
            table.register(gate)

    def test_stub_keeps_privileged_brackets(self, config):
        from repro.errors import SpecializationDenial
        from repro.kernel.gates import PRIVILEGED_GATE

        services, table = self.make_table(config)
        table.register_stub(
            Gate("t_$admin", "test", lambda s, p: "ok", (),
                 brackets=PRIVILEGED_GATE)
        )
        # From the user ring the bracket check fires first: an
        # AccessViolation, not a SpecializationDenial, and no stub hit.
        with pytest.raises(AccessViolation) as excinfo:
            table.call(user_process(ring=4), "t_$admin")
        assert not isinstance(excinfo.value, SpecializationDenial)
        assert table.deny_stub_hits == 0
        # From a trusted ring the bracket admits the call — into the
        # stub, which refuses.
        with pytest.raises(SpecializationDenial):
            table.call(user_process(ring=1), "t_$admin")
        assert table.deny_stub_hits == 1

    def test_stub_validates_arguments_before_denying(self, config):
        from repro.errors import InvalidArgument, SpecializationDenial

        services, table = self.make_table(config)
        table.register_stub(
            Gate("t_$one", "test", lambda s, p, a: a, ("uint",))
        )
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$one", -3)
        assert table.deny_stub_hits == 0  # validation fired first
        with pytest.raises(SpecializationDenial):
            table.call(user_process(), "t_$one", 3)
        assert table.deny_stub_hits == 1


class TestPerimeterCensus:
    """Experiments E1 and E2: the before/after gate counts."""

    def test_legacy_larger_than_kernel(self, kernel, legacy):
        assert legacy.gate_count() > kernel.gate_count()
        assert legacy.user_available_count() > kernel.user_available_count()

    def test_e1_linker_is_about_ten_percent(self, legacy):
        comparison = metrics.linker_removal(legacy)
        assert comparison.removed == 10
        assert 0.08 <= comparison.fraction_removed <= 0.14

    def test_e2_linker_plus_naming_about_one_third(self, legacy):
        comparison = metrics.linker_and_naming_removal(legacy)
        assert 0.30 <= comparison.fraction_removed <= 0.42

    def test_kernel_has_no_removable_gates(self, kernel):
        census = metrics.gate_census(kernel)
        assert set(census.by_removal) == {"kept"}

    def test_legacy_removal_tags(self, legacy):
        census = metrics.gate_census(legacy)
        assert census.by_removal["linker"] == 10
        assert census.by_removal["naming"] == 23
        assert census.by_removal["device_io"] == 11

    def test_kernel_keeps_exactly_the_kept_gates(self, kernel, legacy):
        legacy_kept = {
            g.name for g in legacy.gates.user_available_gates()
            if g.removed_by is None
        }
        kernel_names = {g.name for g in kernel.gates.user_available_gates()}
        assert kernel_names == legacy_kept


class TestCodeSizeMetrics:
    """Experiment E3 and the protected-code reports."""

    def test_count_statements_excludes_docstrings(self):
        source = '''
def f(x):
    """Docstring."""
    y = x + 1
    return y
'''
        assert metrics.count_statements(source) == 3  # def, assign, return

    def test_e3_address_space_code_shrinks(self, kernel, legacy):
        ratio = metrics.address_space_reduction(legacy, kernel)
        assert ratio > 3.0  # paper claims 10x; see EXPERIMENTS.md

    def test_protected_code_report(self, kernel, legacy):
        kernel_size = metrics.protected_code_report(kernel).total
        legacy_size = metrics.protected_code_report(legacy).total
        assert legacy_size > kernel_size
        assert kernel_size > 0

    def test_legacy_protected_modules_superset(self, kernel, legacy):
        kernel_mods = {m.__name__ for m in kernel.protected_modules()}
        legacy_mods = {m.__name__ for m in legacy.protected_modules()}
        assert kernel_mods < legacy_mods


# ---------------------------------------------------------------------------
# every gate, every caller ring: the refusals the choke point makes
# ---------------------------------------------------------------------------

#: Every gate of both supervisors: name -> (exported by the kernel too,
#: brackets, arity, what the first argument that refuses 1.5 says of it:
#: "int", "str", or None when no argument refuses it).  The legacy
#: supervisor exports all 92.
GATES = {
    "as_$change_password": (False, "(0,0,7)", 3, "str"),
    "as_$list_sessions": (False, "(0,0,7)", 0, None),
    "as_$login": (False, "(0,0,7)", 4, "str"),
    "as_$logout": (False, "(0,0,7)", 1, "int"),
    "as_$set_motd": (False, "(0,0,1)", 1, "str"),
    "as_$whoami": (False, "(0,0,7)", 1, "int"),
    "hcs_$acl_add": (True, "(0,0,7)", 4, "int"),
    "hcs_$acl_delete": (True, "(0,0,7)", 3, "int"),
    "hcs_$acl_list": (True, "(0,0,7)", 2, "int"),
    "hcs_$add_name": (True, "(0,0,7)", 3, "int"),
    "hcs_$add_refname": (False, "(0,0,7)", 2, "int"),
    "hcs_$chname": (False, "(0,0,7)", 3, "str"),
    "hcs_$create_dir_path": (False, "(0,0,7)", 1, "str"),
    "hcs_$create_directory": (True, "(0,0,7)", 3, "int"),
    "hcs_$create_segment": (True, "(0,0,7)", 4, "int"),
    "hcs_$create_segment_path": (False, "(0,0,7)", 2, "str"),
    "hcs_$delete_entry": (True, "(0,0,7)", 2, "int"),
    "hcs_$delete_name": (True, "(0,0,7)", 2, "int"),
    "hcs_$delete_path": (False, "(0,0,7)", 1, "str"),
    "hcs_$delete_refname": (False, "(0,0,7)", 1, "str"),
    "hcs_$expand_pathname": (False, "(0,0,7)", 1, "str"),
    "hcs_$find_entry": (False, "(0,0,7)", 1, "str"),
    "hcs_$get_author": (True, "(0,0,7)", 2, "int"),
    "hcs_$get_bit_count": (True, "(0,0,7)", 2, "int"),
    "hcs_$get_label": (True, "(0,0,7)", 2, "int"),
    "hcs_$get_pathname": (False, "(0,0,7)", 1, "int"),
    "hcs_$get_quota": (True, "(0,0,7)", 1, "int"),
    "hcs_$get_ring_brackets": (True, "(0,0,7)", 2, "int"),
    "hcs_$get_root": (True, "(0,0,7)", 0, None),
    "hcs_$get_search_rules": (False, "(0,0,7)", 0, None),
    "hcs_$get_uid": (True, "(0,0,7)", 1, "int"),
    "hcs_$get_wdir": (False, "(0,0,7)", 0, None),
    "hcs_$initiate": (True, "(0,0,7)", 2, "int"),
    "hcs_$initiate_path": (False, "(0,0,7)", 1, "str"),
    "hcs_$initiate_refname": (False, "(0,0,7)", 2, "str"),
    "hcs_$ipc_create_channel": (True, "(0,0,7)", 1, "int"),
    "hcs_$ipc_delete_channel": (True, "(0,0,7)", 1, "str"),
    "hcs_$ipc_pending": (True, "(0,0,7)", 1, "str"),
    "hcs_$ipc_wakeup": (True, "(0,0,7)", 1, "str"),
    "hcs_$list_directory": (True, "(0,0,7)", 1, "int"),
    "hcs_$list_kst": (True, "(0,0,7)", 0, None),
    "hcs_$list_path": (False, "(0,0,7)", 1, "str"),
    "hcs_$list_refnames": (False, "(0,0,7)", 0, None),
    "hcs_$proc_create": (True, "(0,0,7)", 4, "str"),
    "hcs_$proc_destroy": (True, "(0,0,7)", 1, "int"),
    "hcs_$proc_info": (True, "(0,0,7)", 1, "int"),
    "hcs_$proc_list": (True, "(0,0,1)", 0, None),
    "hcs_$refname_to_segno": (False, "(0,0,7)", 1, "str"),
    "hcs_$rename": (True, "(0,0,7)", 3, "int"),
    "hcs_$reset_search_rules": (False, "(0,0,7)", 0, None),
    "hcs_$search": (False, "(0,0,7)", 1, "str"),
    "hcs_$segno_to_refnames": (False, "(0,0,7)", 1, "int"),
    "hcs_$set_bit_count": (True, "(0,0,7)", 3, "int"),
    "hcs_$set_clearance": (True, "(0,0,1)", 2, "str"),
    "hcs_$set_quota": (True, "(0,0,1)", 2, "int"),
    "hcs_$set_ring_brackets": (True, "(0,0,7)", 5, "int"),
    "hcs_$set_safety_switch": (True, "(0,0,7)", 3, "int"),
    "hcs_$set_search_rules": (False, "(0,0,7)", 1, None),
    "hcs_$set_wdir": (False, "(0,0,7)", 1, "str"),
    "hcs_$status": (True, "(0,0,7)", 2, "int"),
    "hcs_$terminate": (True, "(0,0,7)", 1, "int"),
    "hcs_$terminate_all": (True, "(0,0,7)", 0, None),
    "hcs_$terminate_path": (False, "(0,0,7)", 1, "str"),
    "hcs_$terminate_refname": (False, "(0,0,7)", 1, "str"),
    "hcs_$truncate_segment": (True, "(0,0,7)", 2, "int"),
    "hcs_$user_register": (True, "(0,0,1)", 4, "str"),
    "ios_$card_punch": (False, "(0,0,7)", 2, "str"),
    "ios_$card_read": (False, "(0,0,7)", 1, "str"),
    "ios_$print_line": (False, "(0,0,7)", 2, "str"),
    "ios_$tape_attach": (False, "(0,0,7)", 1, "str"),
    "ios_$tape_detach": (False, "(0,0,7)", 1, "str"),
    "ios_$tape_read": (False, "(0,0,7)", 1, "str"),
    "ios_$tape_write": (False, "(0,0,7)", 2, "str"),
    "ios_$tty_attach": (False, "(0,0,7)", 1, "str"),
    "ios_$tty_detach": (False, "(0,0,7)", 1, "str"),
    "ios_$tty_read": (False, "(0,0,7)", 1, "str"),
    "ios_$tty_write": (False, "(0,0,7)", 2, "str"),
    "lk_$combine_linkage": (False, "(0,0,7)", 1, "int"),
    "lk_$force": (False, "(0,0,7)", 3, "int"),
    "lk_$get_def": (False, "(0,0,7)", 2, "int"),
    "lk_$get_linkage": (False, "(0,0,7)", 0, None),
    "lk_$link_count": (False, "(0,0,7)", 0, None),
    "lk_$list_defs": (False, "(0,0,7)", 1, "int"),
    "lk_$make_linkage": (False, "(0,0,7)", 1, "int"),
    "lk_$reset_linkage": (False, "(0,0,7)", 0, None),
    "lk_$snap": (False, "(0,0,7)", 1, "int"),
    "lk_$unsnap_all": (False, "(0,0,7)", 0, None),
    "net_$attach": (True, "(0,0,7)", 0, None),
    "net_$detach": (True, "(0,0,7)", 0, None),
    "net_$receive": (True, "(0,0,7)", 0, None),
    "net_$send": (True, "(0,0,7)", 2, "str"),
    "net_$status": (True, "(0,0,7)", 0, None),
}

#: What a validator says of 1.5.
REFUSAL = {"int": "expected an integer, got 1.5",
           "str": "expected a string, got 1.5"}


def _outcome(supervisor, process, name, args) -> tuple:
    """(exception type, message, audit record without seq and time,
    cycles charged, ring crossings metered) of one refused call."""
    services = supervisor.services
    bucket = services.meters._buckets.get(process.pid)
    crossings = bucket.ring_crossings if bucket else 0
    cycles = process.cpu_cycles
    with pytest.raises((AccessViolation, InvalidArgument)) as refused:
        supervisor.gates.call(process, name, *args)
    record = services.audit.records()[-1]
    return (type(refused.value).__name__, str(refused.value),
            (record.principal, record.object, record.action, record.ring,
             record.category, record.decision, record.detail),
            process.cpu_cycles - cycles,
            services.meters._buckets[process.pid].ring_crossings - crossings)


class TestEveryGateEveryRing:
    """A wrong-arity call and a bad-argument call to every gate of both
    supervisors from every ring 0-7, under 645 costs (a call that
    crosses rings costs 408 cycles, one that does not 8).  Every gate
    runs in ring 0; a privileged gate refuses rings 2-7 before either
    check."""

    @pytest.mark.parametrize("ring", range(8))
    @pytest.mark.parametrize("build", [build_kernel, build_legacy],
                             ids=["kernel", "legacy"])
    def test_refusals(self, config, build, ring):
        config.ring_mode = RingMode.SOFTWARE_645
        supervisor = build(config)
        exported = {n for n, (in_kernel, *_) in GATES.items()
                    if in_kernel or build is build_legacy}
        assert set(supervisor.gates.names()) == exported
        process = user_process(ring=ring)
        calls = rejections = 0
        for name in sorted(exported):
            _, brackets, arity, refuses = GATES[name]
            if ring > 1 and brackets == "(0,0,1)":
                want = ("AccessViolation",
                        f"ring {ring} is outside the call bracket "
                        f"{brackets}",
                        ("Test.Proj.a", name, "call", ring, "ring",
                         "denied", f"ring {ring} outside bracket"),
                        0, 0)
                assert _outcome(supervisor, process, name,
                                [None] * (arity + 1)) == want
                calls, rejections = calls + 1, rejections + 1
                continue
            cost, crossed = (8, 0) if ring == 0 else (408, 1)
            assert _outcome(supervisor, process, name,
                            [None] * (arity + 1)) == (
                "InvalidArgument",
                f"{name}: expected {arity} arguments, got {arity + 1}",
                ("Test.Proj.a", name, "call", ring, "args", "denied",
                 f"expected {arity} args, got {arity + 1}"),
                cost, crossed)
            calls, rejections = calls + 1, rejections + 1
            if refuses is not None:
                assert _outcome(supervisor, process, name,
                                [1.5] * arity) == (
                    "InvalidArgument", REFUSAL[refuses],
                    ("Test.Proj.a", name, "call", ring, "args", "denied",
                     REFUSAL[refuses]),
                    cost, crossed)
                calls, rejections = calls + 1, rejections + 1
        assert process.ring == ring
        assert supervisor.gates.calls == calls
        assert supervisor.gates.rejections == rejections
        assert supervisor.services.meters._total.gate_denials == rejections


class TestResolvedOnce:
    def test_target_ring_from_every_caller_ring(self, config):
        """Brackets (2,3,5): rings 0-1 call outward into ring 2, 2-3
        execute in their own ring, 4-5 enter the call bracket's ring 3,
        and 6-7 are refused."""
        services = KernelServices(config)
        table = GateTable(services, services.audit)
        table.register(Gate("t_$where", "test", lambda s, p: p.ring,
                            brackets=RingBrackets(2, 3, 5)))
        got = []
        for ring in range(8):
            try:
                got.append(table.call(user_process(ring=ring), "t_$where"))
            except AccessViolation as exc:
                got.append(str(exc))
        assert got == [2, 2, 2, 3, 3, 3,
                       "ring 6 is outside the call bracket (2,3,5)",
                       "ring 7 is outside the call bracket (2,3,5)"]

    def test_replace_resolves_again(self):
        gate = Gate("t_$x", "test", lambda s, p, a: a, ("uint",))
        narrowed = dataclasses.replace(gate, brackets=PRIVILEGED_GATE,
                                       signature=("str",))
        assert gate.targets == dict.fromkeys(range(8), 0)
        assert narrowed.targets == {0: 0, 1: 0}
        assert narrowed.validators == (VALIDATORS["str"],)
        assert narrowed == dataclasses.replace(narrowed)

    def test_unknown_validator_refused_at_register(self, config):
        services = KernelServices(config)
        table = GateTable(services, services.audit)
        with pytest.raises(ValueError, match="unknown validator spec 'nat'"):
            table.register(Gate("t_$n", "test", lambda s, p, a: a, ("nat",)))
        assert "t_$n" not in table
