"""Tests for segmentation: SDWs, PTWs, translation, access checks."""

import copy
import enum
import itertools
import pickle

import pytest

from repro.errors import (
    AccessViolation,
    BoundsViolation,
    MissingPageFault,
    SegmentFault,
)
from repro.hw.rings import RingBrackets, kernel_gate_brackets, user_brackets
from repro.hw.segmentation import (
    _MODES,
    SDW,
    PTW,
    AccessMode,
    DescriptorSegment,
    Intent,
    check_access,
    translate,
)

PAGE = 16


def make_sdw(segno=1, access=AccessMode.RW, brackets=None, pages=2, in_core=True):
    ptws = [PTW() for _ in range(pages)]
    if in_core:
        for i, ptw in enumerate(ptws):
            ptw.place(frame=i)
    return SDW(
        segno=segno,
        access=access,
        brackets=brackets or user_brackets(4),
        page_table=ptws,
        bound=pages * PAGE,
    )


#: Every mode, built by the stdlib: the three bits' eight values.
ALL_MODES = [AccessMode(v) for v in range(8)]


def _stdlib_to_string(mode):
    """``to_string``'s if-chain before it indexed a table, with every
    operation spelled as ``enum.Flag``'s own."""
    out = ""
    for bit, ch in ((AccessMode.R, "r"), (AccessMode.E, "e"),
                    (AccessMode.W, "w")):
        if enum.Flag.__bool__(enum.Flag.__and__(mode, bit)):
            out += ch
    return out or "n"


def _stdlib_from_string(text):
    """``from_string``'s loop, combining through ``enum.Flag.__or__``."""
    mode = AccessMode.NONE
    for ch in text.lower():
        if ch == "r":
            mode = enum.Flag.__or__(mode, AccessMode.R)
        elif ch == "e":
            mode = enum.Flag.__or__(mode, AccessMode.E)
        elif ch == "w":
            mode = enum.Flag.__or__(mode, AccessMode.W)
        elif ch in ("n", " "):
            continue
        else:
            raise ValueError(f"unknown access mode character {ch!r}")
    return mode


class TestAccessMode:
    @pytest.mark.parametrize(
        "text,mode",
        [
            ("r", AccessMode.R),
            ("rw", AccessMode.RW),
            ("re", AccessMode.RE),
            ("rew", AccessMode.REW),
            ("n", AccessMode.NONE),
            ("", AccessMode.NONE),
        ],
    )
    def test_from_string(self, text, mode):
        assert AccessMode.from_string(text) == mode

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            AccessMode.from_string("rx")

    def test_roundtrip(self):
        for text in ("r", "re", "rw", "rew", "n"):
            assert AccessMode.from_string(text).to_string() == text

    # The table-driven operations return exactly what ``enum.Flag``'s
    # methods, called unbound, return.

    @pytest.mark.parametrize("name", ["__and__", "__or__", "__xor__",
                                      "__rand__", "__ror__", "__rxor__"])
    def test_binary_operations_all_pairs(self, name):
        stdlib = getattr(enum.Flag, name)
        for a, b in itertools.product(ALL_MODES, repeat=2):
            assert getattr(a, name)(b) is stdlib(a, b), (a, b)

    def test_invert_and_bool(self):
        for mode in ALL_MODES:
            assert ~mode is enum.Flag.__invert__(mode)
            assert bool(mode) is enum.Flag.__bool__(mode)
        assert ~AccessMode.R is AccessMode(6)
        assert not AccessMode.NONE and AccessMode.R

    @pytest.mark.parametrize("name", ["__and__", "__or__", "__xor__",
                                      "__rand__", "__ror__", "__rxor__"])
    def test_other_operands_are_not_implemented(self, name):
        stdlib = getattr(enum.Flag, name)
        for other in (0, 1, 7, None, "r", Intent.READ):
            for mode in ALL_MODES:
                assert getattr(mode, name)(other) is NotImplemented
                assert stdlib(mode, other) is NotImplemented
        with pytest.raises(TypeError):
            AccessMode.R & 1
        with pytest.raises(TypeError):
            1 | AccessMode.R
        with pytest.raises(TypeError):
            AccessMode.W ^ Intent.WRITE

    def test_combinations_are_the_named_members(self):
        assert AccessMode.R | AccessMode.W is AccessMode.RW
        assert AccessMode.R | AccessMode.E is AccessMode.RE
        assert AccessMode.REW & ~AccessMode.E is AccessMode.RW
        assert AccessMode.RW ^ AccessMode.W is AccessMode.R

    def test_to_string_matches_the_if_chain(self):
        for mode in ALL_MODES:
            assert mode.to_string() == _stdlib_to_string(mode)
        assert [m.to_string() for m in ALL_MODES] == [
            "n", "r", "e", "re", "w", "rw", "ew", "rew"]

    def test_from_string_matches_the_stdlib_loop(self):
        alphabet = "rewnRW x"
        for n in range(4):
            for chars in itertools.product(alphabet, repeat=n):
                text = "".join(chars)
                try:
                    expected = _stdlib_from_string(text)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        AccessMode.from_string(text)
                    assert str(got.value) == str(exc)
                else:
                    assert AccessMode.from_string(text) is expected, text

    def test_table_holds_the_stdlib_members(self):
        assert len(_MODES) == 8
        for value, mode in enumerate(_MODES):
            assert mode is AccessMode(value)
            assert mode._value_ == value

    def test_repr_pickle_and_copy(self):
        named = ("NONE", "R", "E", "RE", "W", "RW", "REW")
        assert [repr(AccessMode[n]) for n in named] == [
            "<AccessMode.NONE: 0>", "<AccessMode.R: 1>",
            "<AccessMode.E: 2>", "<AccessMode.RE: 3>",
            "<AccessMode.W: 4>", "<AccessMode.RW: 5>",
            "<AccessMode.REW: 7>"]
        assert repr(AccessMode.E | AccessMode.W) == repr(
            enum.Flag.__or__(AccessMode.E, AccessMode.W))
        for mode in ALL_MODES:
            for proto in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(mode, proto)) is mode
            assert copy.copy(mode) is mode
            assert copy.deepcopy(mode) is mode


class TestIntent:
    def test_hash_is_stable_within_the_process(self):
        for intent in Intent:
            again = Intent(intent.value)
            assert again is intent
            assert hash(intent) == hash(again) == hash(Intent[intent.name])
            key = (3, 0, 4, intent)
            assert {key: 1}[(3, 0, 4, again)] == 1
        assert len({hash(i) for i in Intent}) == 3

    def test_str_and_repr_unchanged(self):
        assert [str(i) for i in Intent] == [
            "Intent.READ", "Intent.WRITE", "Intent.FETCH"]
        assert [repr(i) for i in Intent] == [
            "<Intent.READ: 'read'>", "<Intent.WRITE: 'write'>",
            "<Intent.FETCH: 'fetch'>"]
        assert f"{Intent.WRITE}" == "Intent.WRITE"

    def test_pickle_round_trip(self):
        for intent in Intent:
            for proto in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(intent, proto)) is intent


class TestDescriptorSegment:
    def test_add_get(self):
        dseg = DescriptorSegment()
        sdw = make_sdw(segno=5)
        dseg.add(sdw)
        assert dseg.get(5) is sdw
        assert 5 in dseg
        assert len(dseg) == 1

    def test_duplicate_segno_rejected(self):
        dseg = DescriptorSegment()
        dseg.add(make_sdw(segno=5))
        with pytest.raises(ValueError):
            dseg.add(make_sdw(segno=5))

    def test_missing_segno_faults(self):
        dseg = DescriptorSegment()
        with pytest.raises(SegmentFault):
            dseg.get(9)
        with pytest.raises(SegmentFault):
            dseg.remove(9)

    def test_remove(self):
        dseg = DescriptorSegment()
        dseg.add(make_sdw(segno=5))
        dseg.remove(5)
        assert 5 not in dseg

    def test_maybe(self):
        dseg = DescriptorSegment()
        assert dseg.maybe(1) is None

    def test_segnos_sorted(self):
        dseg = DescriptorSegment()
        for n in (9, 2, 5):
            dseg.add(make_sdw(segno=n))
        assert dseg.segnos() == [2, 5, 9]


class TestCheckAccess:
    def test_read_allowed(self):
        check_access(make_sdw(), ring=4, intent=Intent.READ)

    def test_read_denied_by_mode(self):
        sdw = make_sdw(access=AccessMode.W)
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.READ)

    def test_read_denied_by_bracket(self):
        sdw = make_sdw(brackets=RingBrackets(0, 3, 3))
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.READ)

    def test_write_denied_outside_write_bracket(self):
        """Ring 4 can read but not write a segment with r1=1: the
        fundamental kernel-data protection."""
        sdw = make_sdw(access=AccessMode.RW, brackets=RingBrackets(1, 4, 4))
        check_access(sdw, 4, Intent.READ)
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.WRITE)
        check_access(sdw, 1, Intent.WRITE)

    def test_fetch_requires_execute(self):
        sdw = make_sdw(access=AccessMode.RW)
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.FETCH)

    def test_fetch_in_execute_bracket(self):
        sdw = make_sdw(access=AccessMode.RE, brackets=user_brackets(4))
        check_access(sdw, 4, Intent.FETCH)

    def test_fetch_outside_brackets_denied(self):
        sdw = make_sdw(access=AccessMode.RE, brackets=RingBrackets(0, 0, 0))
        with pytest.raises(AccessViolation):
            check_access(sdw, 4, Intent.FETCH)


class TestTranslate:
    def make_dseg(self, **kwargs):
        dseg = DescriptorSegment()
        dseg.add(make_sdw(**kwargs))
        return dseg

    def test_translation_returns_frame_and_offset(self):
        dseg = self.make_dseg()
        frame, off = translate(dseg, 1, PAGE + 3, 4, Intent.READ, PAGE)
        assert (frame, off) == (1, 3)

    def test_missing_sdw_is_segment_fault(self):
        with pytest.raises(SegmentFault):
            translate(DescriptorSegment(), 1, 0, 4, Intent.READ, PAGE)

    def test_bounds_enforced(self):
        dseg = self.make_dseg(pages=2)
        with pytest.raises(BoundsViolation):
            translate(dseg, 1, 2 * PAGE, 4, Intent.READ, PAGE)
        with pytest.raises(BoundsViolation):
            translate(dseg, 1, -1, 4, Intent.READ, PAGE)

    def test_missing_page_fault(self):
        dseg = self.make_dseg(in_core=False)
        with pytest.raises(MissingPageFault) as info:
            translate(dseg, 1, PAGE, 4, Intent.READ, PAGE)
        assert info.value.segno == 1
        assert info.value.pageno == 1

    def test_access_checked_before_paging(self):
        """An access violation is detected even when the page is out of
        core — permission checking must not depend on residence."""
        dseg = self.make_dseg(access=AccessMode.R, in_core=False)
        with pytest.raises(AccessViolation):
            translate(dseg, 1, 0, 4, Intent.WRITE, PAGE)

    def test_used_and_modified_bits(self):
        dseg = self.make_dseg()
        ptw = dseg.get(1).page_table[0]
        assert not ptw.used and not ptw.modified
        translate(dseg, 1, 0, 4, Intent.READ, PAGE)
        assert ptw.used and not ptw.modified
        translate(dseg, 1, 0, 4, Intent.WRITE, PAGE)
        assert ptw.modified

    def test_ptw_place_and_evict(self):
        ptw = PTW()
        ptw.place(7)
        assert ptw.in_core and ptw.frame == 7
        ptw.evict()
        assert not ptw.in_core and ptw.frame is None
