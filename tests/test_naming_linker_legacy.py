"""Tests for the legacy in-kernel naming and linker gate families, and
for the user-ring replacements behaving equivalently."""

import pytest

from repro.errors import (
    InvalidArgument,
    KernelDenial,
    LinkageError,
    NoSuchEntry,
    ObjectFormatError,
    SearchFailed,
)
from repro.hw.cpu import Instruction as I
from repro.hw.cpu import Op
from repro.kernel.kst_legacy import LegacyKnownSegmentTable
from repro.user.object_format import (
    ObjectSegment,
    decode_object,
    decode_object_trusting,
    encode_object,
    parse_symbol,
)


@pytest.fixture
def legacy_session(legacy_system):
    return legacy_system.login("Alice", "Crypto", "alice-pw")


@pytest.fixture
def kernel_session(kernel_system):
    return kernel_system.login("Alice", "Crypto", "alice-pw")


class TestLegacyNamingGates:
    def test_initiate_by_path(self, legacy_session):
        s = legacy_session
        s.create_segment("x")
        segno = s.call("hcs_$initiate_path", f"{s.home_path}>x")
        assert s.call("hcs_$get_pathname", segno) == f"{s.home_path}>x"

    def test_working_dir_expansion(self, legacy_session):
        s = legacy_session
        assert s.call("hcs_$get_wdir") == s.home_path
        assert (
            s.call("hcs_$expand_pathname", "notes")
            == f"{s.home_path}>notes"
        )

    def test_refname_lifecycle(self, legacy_session):
        s = legacy_session
        s.create_segment("lib")
        segno = s.call("hcs_$initiate_refname", "lib", "mylib")
        assert s.call("hcs_$refname_to_segno", "mylib") == segno
        s.call("hcs_$add_refname", segno, "alias")
        assert s.call("hcs_$segno_to_refnames", segno) == ["alias", "mylib"]
        s.call("hcs_$delete_refname", "alias")
        s.call("hcs_$terminate_refname", "mylib")
        with pytest.raises(NoSuchEntry):
            s.call("hcs_$refname_to_segno", "mylib")

    def test_initiate_count_semantics(self, legacy_session):
        """The unsplit KST counts initiations; termination by path only
        unmaps when the count drops to zero."""
        s = legacy_session
        s.create_segment("c")
        first = s.call("hcs_$initiate_path", "c")
        second = s.call("hcs_$initiate_path", "c")
        assert first == second
        s.call("hcs_$terminate_path", "c")  # count 2 -> 1
        assert s.call("hcs_$get_pathname", first)  # still known
        s.call("hcs_$terminate_path", "c")  # count 1 -> 0
        with pytest.raises((NoSuchEntry, KernelDenial)):
            s.call("hcs_$get_pathname", first)

    def test_search_rules(self, legacy_session):
        s = legacy_session
        s.create_dir("libdir")
        s.create_segment("libdir>helper")
        s.call("hcs_$set_search_rules", [f"{s.home_path}>libdir"])
        assert s.call("hcs_$get_search_rules") == [f"{s.home_path}>libdir"]
        found = s.call("hcs_$search", "helper")
        assert found == f"{s.home_path}>libdir>helper"
        s.call("hcs_$reset_search_rules")
        with pytest.raises(SearchFailed):
            s.call("hcs_$search", "helper")

    def test_whole_path_conveniences(self, legacy_session):
        s = legacy_session
        s.call("hcs_$create_dir_path", f"{s.home_path}>sub")
        s.call("hcs_$create_segment_path", f"{s.home_path}>sub>f", 1)
        listing = s.call("hcs_$list_path", f"{s.home_path}>sub")
        assert [e["name"] for e in listing] == ["f"]
        s.call("hcs_$chname", f"{s.home_path}>sub", "f", "g")
        info = s.call("hcs_$find_entry", f"{s.home_path}>sub>g")
        assert info["type"] == "segment"
        s.call("hcs_$delete_path", f"{s.home_path}>sub>g")
        with pytest.raises(NoSuchEntry):
            s.call("hcs_$find_entry", f"{s.home_path}>sub>g")

    def test_kernel_has_no_naming_gates(self, kernel_session):
        from repro.kernel.gates import GateViolationError

        with pytest.raises(GateViolationError):
            kernel_session.call("hcs_$initiate_path", ">udd")

    def test_only_the_naming_gates_build_a_legacy_kst(
            self, kernel_session, legacy_session):
        """The unsplit KST is built on first use, so a process of the
        kernel supervisor, which has no naming gates, carries none."""
        states = []
        for s in (kernel_session, legacy_session):
            s.create_segment("x")
            segno = s.initiate(f"{s.home_path}>x")
            states.append((s.system.services.pstate(s.process), segno))
        (kernel_state, _), (legacy_state, segno) = states
        assert "legacy_kst" not in vars(kernel_state)
        assert "legacy_kst" in vars(legacy_state)
        assert legacy_state.legacy_kst.is_known(
            legacy_state.kst.uid_of(segno))


class TestLegacyKst:
    def test_initiate_counts(self):
        kst = LegacyKnownSegmentTable()
        segno, already = kst.initiate(uid=5, pathname=">a>b")
        assert not already
        segno2, already2 = kst.initiate(uid=5)
        assert segno2 == segno and already2
        assert kst.entry(segno).initiate_count == 2
        assert kst.terminate(segno) is None
        assert kst.terminate(segno) == 5

    def test_refname_chain(self):
        kst = LegacyKnownSegmentTable()
        segno, _ = kst.initiate(uid=5, refname="lib")
        kst.bind_refname(segno, "lib2")
        assert kst.refnames_of(segno) == ["lib", "lib2"]
        with pytest.raises(InvalidArgument):
            kst.bind_refname(segno, "lib")
        assert kst.unbind_refname("lib") == segno
        assert kst.refnames_of(segno) == ["lib2"]

    def test_pathname_index(self):
        kst = LegacyKnownSegmentTable()
        segno, _ = kst.initiate(uid=5, pathname=">x>y")
        assert kst.by_pathname(">x>y").segno == segno
        assert kst.pathname_of(segno) == ">x>y"

    def test_forced_terminate_clears_names(self):
        kst = LegacyKnownSegmentTable()
        segno, _ = kst.initiate(uid=5, refname="r")
        kst.initiate(uid=5)
        assert kst.terminate(segno, force=True) == 5
        with pytest.raises(NoSuchEntry):
            kst.refname_entry("r")

    def test_explicit_segno(self):
        kst = LegacyKnownSegmentTable()
        segno, _ = kst.initiate(uid=5, segno=42)
        assert segno == 42
        with pytest.raises(InvalidArgument):
            kst.initiate(uid=6, segno=42)

    def test_terminate_all(self):
        kst = LegacyKnownSegmentTable()
        kst.initiate(uid=1)
        kst.initiate(uid=2, refname="r")
        assert kst.terminate_all() == 2
        assert len(kst) == 0


class TestObjectFormat:
    def sample(self):
        return ObjectSegment(
            "m",
            code=[I(Op.PUSHI, 1), I(Op.RET)],
            definitions={"main": 0},
            links=["lib$fn"],
        )

    def test_roundtrip(self):
        obj = self.sample()
        decoded = decode_object(encode_object(obj), "m")
        assert decoded.code == obj.code
        assert decoded.definitions == obj.definitions
        assert decoded.links == obj.links

    def test_parse_symbol(self):
        assert parse_symbol("lib$fn") == ("lib", "fn")
        assert parse_symbol("solo") == ("solo", "solo")
        with pytest.raises(ObjectFormatError):
            parse_symbol("")
        with pytest.raises(ObjectFormatError):
            parse_symbol("$broken")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w: [0] + w[1:],                      # bad magic
            lambda w: w[:1] + [99] + w[2:],             # bad version
            lambda w: w[:2] + [10_000_000] + w[3:],     # absurd count
            lambda w: w[:-1],                           # truncated
            lambda w: w[:2] + [len(w)] + w[3:],         # code overruns
        ],
    )
    def test_defensive_decoder_rejects(self, mutate):
        words = mutate(encode_object(self.sample()))
        with pytest.raises(ObjectFormatError):
            decode_object(words, "m")

    def test_trusting_decoder_malfunctions(self):
        """The period-faithful parser walks off the end of malicious
        input — the supervisor vulnerability of experiment E11."""
        words = encode_object(self.sample())
        words[2] = 10_000  # claim far more code than exists
        with pytest.raises(Exception):
            decode_object_trusting(words, "m")

    def test_validate_rejects_bad_definitions(self):
        obj = self.sample()
        obj.definitions["out"] = 99
        with pytest.raises(ObjectFormatError):
            obj.validate()


class TestLinkerEquivalence:
    """Both linkers resolve the same program; only the failure locus
    differs."""

    LIB = ObjectSegment(
        "lib",
        code=[I(Op.LOADF, 0), I(Op.PUSHI, 100), I(Op.ADD), I(Op.RET)],
        definitions={"add100": 0},
    )
    MAIN = ObjectSegment(
        "main",
        code=[I(Op.PUSHI, 5), I(Op.CALLL, 0, 1), I(Op.RET)],
        definitions={"main": 0},
        links=["lib$add100"],
    )

    def run_on(self, session):
        lib_segno = session.install_object("lib", self.LIB)
        main_segno = session.install_object("main", self.MAIN)
        if session.linker is None:
            session.call("lk_$make_linkage", lib_segno)
        return session.run_program(main_segno)

    def test_legacy(self, legacy_session):
        assert self.run_on(legacy_session) == 105

    def test_kernel(self, kernel_session):
        assert self.run_on(kernel_session) == 105

    def test_legacy_linkage_gates(self, legacy_session):
        s = legacy_session
        main_segno = s.install_object("main", self.MAIN)
        first, count = s.call("lk_$make_linkage", main_segno)
        assert count == 1
        assert s.call("lk_$link_count") == 1
        dump = s.call("lk_$get_linkage")
        assert dump[0]["symbol"] == "lib$add100"
        assert not dump[0]["snapped"]
        # Forcing, unsnapping.
        s.call("lk_$force", first, main_segno, 0)
        assert s.call("lk_$get_linkage")[0]["snapped"]
        assert s.call("lk_$unsnap_all") == 1
        assert s.call("lk_$reset_linkage") == 1

    def test_user_linker_snap_failure_contained(self, kernel_session):
        s = kernel_session
        main_segno = s.install_object("main", self.MAIN)
        s.load_program(main_segno)
        # lib does not exist: the snap fails in the user ring.
        with pytest.raises((LinkageError, SearchFailed)):
            s.linker.snap(0)
        assert s.system.services.supervisor_incidents == 0

    def test_definition_lookup_gates(self, legacy_session):
        s = legacy_session
        lib_segno = s.install_object("lib", self.LIB)
        s.call("lk_$make_linkage", lib_segno)
        assert s.call("lk_$get_def", lib_segno, "add100") == 0
        assert s.call("lk_$list_defs", lib_segno) == [("add100", 0)]
        with pytest.raises(NoSuchEntry):
            s.call("lk_$get_def", lib_segno, "missing")
