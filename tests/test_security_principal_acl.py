"""Tests for principals, ACL patterns, and ACL evaluation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.acl import Acl, AclEntry
from repro.hw.segmentation import AccessMode
from repro.security.principal import KERNEL_PRINCIPAL, Principal, PrincipalPattern


class TestPrincipal:
    def test_str(self):
        p = Principal("Alice", "Crypto")
        assert str(p) == "Alice.Crypto.a"

    def test_parse_with_and_without_tag(self):
        assert str(Principal.parse("Bob.Dev.x")) == "Bob.Dev.x"
        assert str(Principal.parse("Bob.Dev")) == "Bob.Dev.a"

    @pytest.mark.parametrize("bad", ["", "A.B.C.D", "just_one_part"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Principal.parse(bad)

    @pytest.mark.parametrize("person", ["", "a.b", "a*"])
    def test_component_validation(self, person):
        with pytest.raises(ValueError):
            Principal(person, "Proj")

    def test_kernel_principal(self):
        assert str(KERNEL_PRINCIPAL) == "Initializer.SysDaemon.z"

    def test_clearance_not_part_of_identity(self):
        from repro.security.mac import SecurityLabel

        a = Principal("A", "P")
        b = Principal("A", "P", clearance=SecurityLabel(3))
        assert a == b


class TestPrincipalPattern:
    def test_parse_fills_wildcards(self):
        assert str(PrincipalPattern.parse("Alice")) == "Alice.*.*"
        assert str(PrincipalPattern.parse("Alice.Crypto")) == "Alice.Crypto.*"
        assert str(PrincipalPattern.parse("*.Crypto.a")) == "*.Crypto.a"

    def test_matching(self):
        alice = Principal("Alice", "Crypto")
        assert PrincipalPattern.parse("Alice.Crypto.a").matches(alice)
        assert PrincipalPattern.parse("*.Crypto").matches(alice)
        assert PrincipalPattern.parse("*.*.*").matches(alice)
        assert not PrincipalPattern.parse("Bob").matches(alice)

    def test_specificity_ordering(self):
        exact = PrincipalPattern.parse("Alice.Crypto.a")
        person = PrincipalPattern.parse("Alice")
        project = PrincipalPattern.parse("*.Crypto")
        anyone = PrincipalPattern.parse("*.*.*")
        assert (
            exact.specificity
            > person.specificity
            > project.specificity
            > anyone.specificity
        )

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            PrincipalPattern.parse("a.b.c.d")


class TestAcl:
    def test_make_and_lookup(self):
        acl = Acl.make(("Alice.Crypto", "rw"), ("*.*.*", "r"))
        alice = Principal("Alice", "Crypto")
        bob = Principal("Bob", "Dev")
        assert acl.effective_mode(alice) == AccessMode.RW
        assert acl.effective_mode(bob) == AccessMode.R

    def test_no_match_means_no_access(self):
        acl = Acl.make(("Alice.Crypto", "rw"))
        assert acl.effective_mode(Principal("Eve", "Spy")) == AccessMode.NONE

    def test_specific_denial_overrides_general_grant(self):
        """A 'n' entry for a specific user beats '*.*.* rw'."""
        acl = Acl.make(("*.*.*", "rw"), ("Eve.Spy", "n"))
        assert acl.effective_mode(Principal("Eve", "Spy")) == AccessMode.NONE
        assert acl.effective_mode(Principal("Alice", "Crypto")) == AccessMode.RW

    def test_add_replaces_same_pattern(self):
        acl = Acl.make(("Alice.Crypto", "r"))
        acl.add("Alice.Crypto.*", "rw")
        alice = Principal("Alice", "Crypto")
        assert acl.effective_mode(alice) == AccessMode.RW
        # Same normalized pattern: only one entry remains.
        assert len(acl) == 1

    def test_remove(self):
        acl = Acl.make(("Alice.Crypto", "rw"))
        assert acl.remove("Alice.Crypto")
        assert not acl.remove("Alice.Crypto")
        assert acl.effective_mode(Principal("Alice", "Crypto")) == AccessMode.NONE

    def test_copy_is_independent(self):
        acl = Acl.make(("Alice.Crypto", "rw"))
        dup = acl.copy()
        dup.add("*.*.*", "r")
        assert len(acl) == 1
        assert len(dup) == 2

    def test_str(self):
        assert "Alice" in str(Acl.make(("Alice.Crypto", "rw")))
        assert str(Acl()) == "(empty acl)"

    def test_entry_str(self):
        entry = AclEntry.make("Alice.Crypto", "re")
        assert "re" in str(entry)


# ---------------------------------------------------------------------------
# effective_mode against the loop it replaced
# ---------------------------------------------------------------------------

def _old_specificity(pattern: PrincipalPattern) -> int:
    score = 0
    if pattern.person != "*":
        score += 4
    if pattern.project != "*":
        score += 2
    if pattern.tag != "*":
        score += 1
    return score


def _old_effective_mode(entries: list, principal: Principal) -> AccessMode:
    """``Acl.effective_mode`` as it was first written: ``matches`` per
    entry, the specificity recomputed per comparison."""
    best = None
    for entry in entries:
        if not entry.pattern.matches(principal):
            continue
        if best is None or (_old_specificity(entry.pattern)
                            > _old_specificity(best.pattern)):
            best = entry
    return best.mode if best else AccessMode.NONE


# Two names per component, so entries match, miss and tie often.
_PERSONS, _PROJECTS, _TAGS = ["Ann", "Bo"], ["P", "Q"], ["a", "b"]
_principals = st.builds(Principal, st.sampled_from(_PERSONS),
                        st.sampled_from(_PROJECTS), st.sampled_from(_TAGS))
_patterns = st.builds(PrincipalPattern,
                      st.sampled_from(["*"] + _PERSONS),
                      st.sampled_from(["*"] + _PROJECTS),
                      st.sampled_from(["*"] + _TAGS))
_entries = st.lists(
    st.builds(AclEntry, _patterns,
              st.integers(min_value=0, max_value=7).map(AccessMode)),
    max_size=8,
)


@settings(max_examples=300, derandomize=True)
@given(_entries, _principals)
# Equal specificity: the first of two matching entries wins.
@example([AclEntry.make("Ann.*", "r"), AclEntry.make("Ann.*.*", "rw")],
         Principal("Ann", "P"))
@example([AclEntry.make("*.P.a", "n"), AclEntry.make("Ann", "re"),
          AclEntry.make("Ann.P.*", "w")], Principal("Ann", "P"))
def test_effective_mode_matches_the_old_loop(entries, principal):
    for entry in entries:
        assert entry.pattern.specificity == _old_specificity(entry.pattern)
    assert (Acl(entries).effective_mode(principal)
            is _old_effective_mode(entries, principal))
