"""Tests for the bounded security audit (repro.security.audit):
ring-buffer mechanics, levels, JSON export, and the completeness
guarantee — every deny raised anywhere appears in the audit."""

import json
from dataclasses import asdict

import pytest

from repro.errors import AccessDenied, AccessViolation, InvalidArgument
from repro.fs.acl import Acl
from repro.hw.segmentation import AccessMode
from repro.security.audit import AuditLog, AuditRecord
from repro.security.mac import SecurityLabel
from repro.security.reference_monitor import ReferenceMonitor
from repro.system import MulticsSystem

from tests.test_security_reference_monitor import branch, subject


class TestTrailMechanics:
    def test_rejects_bad_level_and_capacity(self):
        with pytest.raises(ValueError):
            AuditLog(level="verbose")
        with pytest.raises(ValueError):
            AuditLog(capacity=0)

    def test_capacity_bound_drops_oldest_and_counts(self):
        audit = AuditLog(capacity=3)
        for i in range(5):
            audit.log(i, "p", f"o{i}", "r", "granted")
        assert len(audit) == 3
        assert audit.seen == 5
        assert audit.dropped == 2
        # The survivors are the newest, with monotonic seq intact.
        assert [r.object for r in audit.records()] == ["o2", "o3", "o4"]
        assert [r.seq for r in audit.records()] == [3, 4, 5]
        assert audit.seq == 5

    def test_level_deny_keeps_only_refusals(self):
        audit = AuditLog(level="deny")
        audit.log(1, "p", "o", "r", "granted")
        audit.log(2, "p", "o", "w", "denied", "no")
        audit.log(3, "p", "o", "call", "error", "boom")
        assert len(audit) == 2
        assert audit.denials == 2
        assert all(r.decision != "granted" for r in audit.records())

    def test_level_off_records_nothing(self):
        audit = AuditLog(level="off")
        audit.log(1, "p", "o", "r", "denied")
        assert len(audit) == 0
        assert audit.seen == 1

    def test_queries(self):
        audit = AuditLog()
        audit.log(1, "Alice.Crypto", "a", "r", "granted", category="acl")
        audit.log(2, "Eve.Spies", "a", "w", "denied", category="mac")
        (denied,) = audit.denied()
        assert (denied.principal, denied.category) == ("Eve.Spies", "mac")
        assert [r.decision for r in audit.records()] == ["granted", "denied"]

    def test_json_export_round_trips(self):
        audit = AuditLog(capacity=8)
        audit.log(5, "Alice.Crypto", "data", "rw", "denied",
                  "acl grants only 'r'", ring=4, category="acl")
        doc = json.loads(audit.to_json())
        assert doc["schema"] == "repro.audit/v1"
        assert doc["denials"] == 1
        (rec,) = doc["records"]
        assert rec == {
            "seq": 1, "time": 5, "principal": "Alice.Crypto",
            "object": "data", "action": "rw", "ring": 4,
            "category": "acl", "decision": "denied",
            "detail": "acl grants only 'r'",
        }

    def test_reads_rebuild_the_logged_fields_across_a_wrap(self):
        """The ring keeps field tuples; ``records()``, ``denied()`` and
        the export rebuild exactly the records the calls logged, and
        the export is byte for byte the one built from those records."""
        audit = AuditLog(capacity=5)
        logged = []
        for i in range(13):
            fields = dict(
                time=10 * i, principal=f"P{i % 4}.Proj", obj=f"seg{i}",
                action=("r", "call", "rw")[i % 3],
                decision=("granted", "denied", "error", "granted")[i % 4],
                detail=f"why {i}" if i % 2 else "",
                ring=(None, 4, 1)[i % 3],
                category=("acl", "gate", "mac", "args")[i % 4],
            )
            audit.log(**fields)
            logged.append(AuditRecord(
                seq=i + 1, time=fields["time"],
                principal=fields["principal"], object=fields["obj"],
                action=fields["action"], ring=fields["ring"],
                category=fields["category"],
                decision=fields["decision"], detail=fields["detail"],
            ))
        kept = logged[-5:]
        assert audit.dropped == 8
        assert audit.records() == kept
        assert all(type(r) is AuditRecord for r in audit.records())
        assert audit.denied() == [r for r in kept
                                  if r.decision != "granted"]
        for indent in (2, None):
            assert audit.to_json(indent=indent) == json.dumps(
                {
                    "schema": "repro.audit/v1",
                    "level": "all",
                    "capacity": 5,
                    "seen": 13,
                    "dropped": 8,
                    "denials": sum(r.decision != "granted"
                                   for r in logged),
                    "records": [asdict(r) for r in kept],
                },
                indent=indent,
            )


class TestMonitorFunnel:
    """The reference monitor logs each refusal into the audit, naming
    the mechanism that decided."""

    def test_monitor_denials_land_in_trail_with_category(self):
        audit = AuditLog()
        rm = ReferenceMonitor(audit=audit)
        with pytest.raises(AccessDenied):
            rm.check(subject(), branch(acl=Acl.make(("*.*.*", "r"))),
                     AccessMode.W, ring=4)
        with pytest.raises(AccessDenied):
            rm.check(subject(level=0), branch(label=SecurityLabel(2)),
                     AccessMode.R)
        with pytest.raises(AccessDenied):
            rm.check(subject(level=2), branch(label=SecurityLabel(0)),
                     AccessMode.W)
        assert audit.denials == 3
        denied = audit.denied()
        assert [r.category for r in denied] == ["acl", "mac", "mac"]
        assert denied[0].ring == 4


class TestSystemCompleteness:
    """Replayed deny scenarios against a booted system, checked against
    a witness outside the audit: the metering plane counts each refused
    gate call at the gate table's refusal sites."""

    def make_system(self, **overrides):
        from repro import kernel_config

        system = MulticsSystem(kernel_config(**overrides)).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        system.register_user("Eve", "Spies", "eve-pw")
        return system

    def provoke_denials(self, system):
        alice = system.login("Alice", "Crypto", "alice-pw")
        eve = system.login("Eve", "Spies", "eve-pw")
        segno = alice.create_segment("secret")
        alice.write_words(segno, [7])
        alice.set_acl("secret", "Alice.Crypto", "rw")
        # ACL denial: Eve initiates Alice's segment.
        with pytest.raises(AccessDenied):
            eve.initiate(f"{alice.home_path}>secret")
        # Argument denial: malformed gate argument.
        with pytest.raises(InvalidArgument):
            alice.call("hcs_$initiate", -1, "secret")
        # Ring denial: a user-ring call to a privileged gate.
        with pytest.raises(AccessViolation):
            alice.call("hcs_$proc_list")
        return alice, eve

    def test_every_deny_has_a_trail_record(self):
        system = self.make_system()
        self.provoke_denials(system)
        denied_calls = [r for r in system.audit.records()
                        if r.action == "call" and r.decision == "denied"]
        metered = system.metrics.snapshot()["counters"]["meter.gate_denials"]
        assert system.audit.dropped == 0
        assert len(denied_calls) == metered == 3
        assert [r.category for r in denied_calls] == ["gate", "args", "ring"]

    def test_deny_level_trail_holds_no_grants(self):
        system = self.make_system(audit_level="deny")
        # A grants-only run: login and legitimate work.
        alice = system.login("Alice", "Crypto", "alice-pw")
        segno = alice.create_segment("mine")
        alice.write_words(segno, [1])
        assert alice.read_words(segno, 1) == [1]
        audit = system.audit
        assert len(audit) == 0
        assert audit.denials == 0
        # The decisions were offered; the level kept none of them.
        assert audit.seen > 0

    def test_trail_wraparound_on_a_live_system(self):
        """A system whose workload overflows the audit's ring buffer:
        memory stays at capacity, sequence numbers stay strictly
        monotonic past the wrap, the export stays well-formed, and the
        books still balance."""
        system = self.make_system(audit_capacity=16)
        self.provoke_denials(system)
        alice = system.login("Alice", "Crypto", "alice-pw")
        for i in range(30):  # plenty of granted decisions past capacity
            alice.create_segment(f"wrap{i}")
        audit = system.audit
        assert audit.seen > audit.capacity
        assert audit.dropped > 0
        assert len(audit) == audit.capacity
        seqs = [r.seq for r in audit.records()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert seqs[-1] == audit.seen  # nothing skipped the funnel
        # The export survives the wrap: schema intact, records complete.
        doc = json.loads(audit.to_json())
        assert doc["schema"] == "repro.audit/v1"
        assert doc["seen"] == audit.seen
        assert doc["dropped"] == audit.dropped
        assert len(doc["records"]) == audit.capacity
        assert [r["seq"] for r in doc["records"]] == seqs
        required = {"seq", "time", "principal", "object", "action",
                    "ring", "category", "decision", "detail"}
        assert all(required <= set(r) for r in doc["records"])

    def test_revocation_sweeps_are_recorded(self):
        system = self.make_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        alice.create_segment("shared")
        alice.set_acl("shared", "Eve.Spies", "r")
        revocations = [r for r in system.audit.records()
                       if r.category == "revocation"]
        assert revocations
        assert all(r.action == "revoke" for r in revocations)
