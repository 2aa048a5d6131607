"""Tests for the reference monitor (ACL ∧ MAC, audited)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AccessDenied
from repro.fs.acl import Acl
from repro.fs.directory import Branch
from repro.hw.segmentation import AccessMode
from repro.security.mac import LEVEL_NAMES, SecurityLabel
from repro.security.principal import Principal
from repro.security.reference_monitor import ReferenceMonitor


def branch(acl=None, label=SecurityLabel(0)):
    return Branch(
        name="data",
        uid=1,
        is_directory=False,
        acl=acl or Acl.make(("*.*.*", "rw")),
        label=label,
    )


def subject(level=0, cats=(), person="Alice", project="Crypto"):
    return Principal(
        person, project, clearance=SecurityLabel(level, frozenset(cats))
    )


class TestDiscretionary:
    def test_granted_within_acl(self):
        rm = ReferenceMonitor()
        rm.check(subject(), branch(), AccessMode.RW)
        assert rm.denials == 0

    def test_denied_beyond_acl(self):
        rm = ReferenceMonitor()
        b = branch(acl=Acl.make(("*.*.*", "r")))
        with pytest.raises(AccessDenied, match="acl grants only"):
            rm.check(subject(), b, AccessMode.W)

    def test_unlisted_principal_denied(self):
        rm = ReferenceMonitor()
        b = branch(acl=Acl.make(("Bob.Dev", "rw")))
        with pytest.raises(AccessDenied):
            rm.check(subject(), b, AccessMode.R)


class TestMandatory:
    def test_read_up_denied(self):
        rm = ReferenceMonitor()
        b = branch(label=SecurityLabel(2))
        with pytest.raises(AccessDenied, match="simple security"):
            rm.check(subject(level=0), b, AccessMode.R)

    def test_write_down_denied(self):
        rm = ReferenceMonitor()
        b = branch(label=SecurityLabel(0))
        with pytest.raises(AccessDenied, match=r"\*-property"):
            rm.check(subject(level=2), b, AccessMode.W)

    def test_read_down_write_up_allowed(self):
        rm = ReferenceMonitor()
        low = branch(label=SecurityLabel(0))
        high = branch(label=SecurityLabel(3))
        rm.check(subject(level=2), low, AccessMode.R)
        rm.check(subject(level=2), high, AccessMode.W)

    def test_category_isolation(self):
        rm = ReferenceMonitor()
        b = branch(label=SecurityLabel(1, frozenset({"crypto"})))
        with pytest.raises(AccessDenied):
            rm.check(subject(level=3, cats=("nato",)), b, AccessMode.R)

    def test_acl_cannot_override_mac(self):
        """Even an explicit rw ACL entry cannot defeat the lattice."""
        rm = ReferenceMonitor()
        b = branch(
            acl=Acl.make(("Alice.Crypto", "rw")), label=SecurityLabel(3)
        )
        with pytest.raises(AccessDenied):
            rm.check(subject(level=0), b, AccessMode.R)


class TestSdwMode:
    def test_mode_is_acl_filtered_by_mac(self):
        rm = ReferenceMonitor()
        b = branch(
            acl=Acl.make(("*.*.*", "rw")), label=SecurityLabel(2)
        )
        # Same level: full rw.
        assert rm.sdw_mode(subject(level=2), b) == AccessMode.RW
        # Higher clearance: read-only (no write down).
        assert rm.sdw_mode(subject(level=3), b) == AccessMode.R
        # Lower clearance: write-only (no read up).
        assert rm.sdw_mode(subject(level=0), b) == AccessMode.W

    @given(
        st.integers(0, len(LEVEL_NAMES) - 1),
        st.integers(0, len(LEVEL_NAMES) - 1),
    )
    def test_sdw_mode_never_exceeds_mac(self, s_level, o_level):
        rm = ReferenceMonitor()
        b = branch(label=SecurityLabel(o_level))
        mode = rm.sdw_mode(subject(level=s_level), b)
        if mode & AccessMode.R:
            assert s_level >= o_level
        if mode & AccessMode.W:
            assert o_level >= s_level


class TestAudit:
    def test_decisions_logged(self):
        rm = ReferenceMonitor()
        rm.check(subject(), branch(), AccessMode.R, time=5)
        try:
            rm.check(subject(), branch(label=SecurityLabel(3)), AccessMode.R)
        except AccessDenied:
            pass
        records = rm.audit.records()
        assert len(rm.audit) == 2
        assert [r.decision for r in records] == ["granted", "denied"]
        assert len(rm.audit.denied()) == 1
        assert records[0].time == 5
        assert records[0].principal == "Alice.Crypto.a"

    def test_may_predicate(self):
        rm = ReferenceMonitor()
        assert rm.may(subject(), branch(), AccessMode.R)
        assert not rm.may(subject(), branch(label=SecurityLabel(3)), AccessMode.R)

    def test_audit_tail_and_by_object(self):
        rm = ReferenceMonitor()
        for _ in range(15):
            rm.check(subject(), branch(), AccessMode.R)
        records = rm.audit.records()
        assert [r.seq for r in records[-10:]] == list(range(6, 16))
        assert sum(r.object == "data" for r in records) == 15
