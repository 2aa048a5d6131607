"""End-to-end tests of the public API, run against both supervisors."""

import pytest

from repro.errors import (
    AccessDenied,
    AuthenticationError,
    KernelDenial,
    NameDuplication,
    NoSuchEntry,
)
from repro.hw.cpu import Instruction as I
from repro.hw.cpu import Op
from repro.security.mac import SecurityLabel
from repro.user.object_format import ObjectSegment


class TestLoginLogout:
    def test_login_creates_session_with_home(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        assert str(session.principal) == "Alice.Crypto.a"
        assert session.home_path == ">udd>Crypto>Alice"

    def test_wrong_password_rejected(self, any_system):
        with pytest.raises((AuthenticationError, KernelDenial)):
            any_system.login("Alice", "Crypto", "wrong")

    def test_unknown_user_rejected(self, any_system):
        with pytest.raises((AuthenticationError, KernelDenial)):
            any_system.login("Mallory", "Crypto", "x")

    def test_wrong_project_rejected(self, any_system):
        with pytest.raises((AuthenticationError, KernelDenial)):
            any_system.login("Alice", "Spies", "alice-pw")

    def test_logout(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        session.logout()
        assert session.process.pid not in any_system.services.created_processes

    def test_two_sessions_share_the_hierarchy(self, any_system):
        alice = any_system.login("Alice", "Crypto", "alice-pw")
        bob = any_system.login("Bob", "Crypto", "bob-pw")
        alice.create_segment("shared_note")
        alice.set_acl("shared_note", "Bob.Crypto", "r")
        listing = bob.list_dir(">udd>Crypto>Alice")
        assert any(e["name"] == "shared_note" for e in listing)


class TestSegmentsAndData:
    def test_create_write_read(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        segno = session.create_segment("data", n_pages=2)
        words = list(range(20))
        session.write_words(segno, words)
        assert session.read_words(segno, 20) == words

    def test_data_survives_terminate_and_reinitiate(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        segno = session.create_segment("persist")
        session.write_words(segno, [7, 8, 9])
        session.call("hcs_$terminate", segno)
        segno2 = session.initiate(f"{session.home_path}>persist")
        assert session.read_words(segno2, 3) == [7, 8, 9]

    def test_delete_removes_entry(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        session.create_segment("doomed")
        session.delete("doomed")
        with pytest.raises((NoSuchEntry, KernelDenial)):
            session.initiate(f"{session.home_path}>doomed")

    def test_duplicate_name_rejected(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        session.create_segment("x")
        with pytest.raises(NameDuplication):
            session.create_segment("x")

    def test_status(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        session.create_segment("s", n_pages=3)
        status = session.status("s")
        assert status["type"] == "segment"
        assert status["n_pages"] == 3
        assert status["author"] == "Alice.Crypto.a"

    def test_directories_nest(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        session.create_dir("project")
        session.create_dir("project>src")
        session.create_segment("project>src>main", n_pages=1)
        names = [e["name"] for e in session.list_dir("project>src")]
        assert names == ["main"]


class TestDiscretionaryAccess:
    def test_acl_denies_unlisted_reader(self, any_system):
        alice = any_system.login("Alice", "Crypto", "alice-pw")
        eve = any_system.login("Eve", "Spies", "eve-pw")
        segno = alice.create_segment("private_note")
        alice.write_words(segno, [42])
        # Default ACL: owner only; Eve cannot initiate for reading.
        with pytest.raises((AccessDenied, KernelDenial)):
            eve.initiate(">udd>Crypto>Alice>private_note")

    def test_acl_grant_enables_sharing(self, any_system):
        alice = any_system.login("Alice", "Crypto", "alice-pw")
        bob = any_system.login("Bob", "Crypto", "bob-pw")
        segno = alice.create_segment("shared")
        alice.write_words(segno, [42])
        alice.set_acl("shared", "Bob.Crypto", "r")
        bob_segno = bob.initiate(">udd>Crypto>Alice>shared")
        assert bob.read_words(bob_segno, 1) == [42]

    def test_read_only_grant_blocks_writes_in_hardware(self, any_system):
        from repro.errors import AccessViolation

        alice = any_system.login("Alice", "Crypto", "alice-pw")
        bob = any_system.login("Bob", "Crypto", "bob-pw")
        alice.create_segment("readonly")
        alice.set_acl("readonly", "Bob.Crypto", "r")
        bob_segno = bob.initiate(">udd>Crypto>Alice>readonly")
        with pytest.raises(AccessViolation):
            bob.write_words(bob_segno, [1])

    def test_acl_list_roundtrip(self, any_system):
        alice = any_system.login("Alice", "Crypto", "alice-pw")
        alice.create_segment("s")
        alice.set_acl("s", "Bob.Crypto", "rw")
        dir_segno, name = alice.resolve_parent("s")
        entries = alice.call("hcs_$acl_list", dir_segno, name)
        assert ("Bob.Crypto.*", "rw") in entries


class TestProgramExecution:
    LIB = ObjectSegment(
        "mathlib",
        code=[I(Op.LOADF, 0), I(Op.LOADF, 0), I(Op.MUL), I(Op.RET)],
        definitions={"square": 0},
    )
    MAIN = ObjectSegment(
        "main",
        code=[I(Op.PUSHI, 6), I(Op.CALLL, 0, 1), I(Op.RET)],
        definitions={"main": 0},
        links=["mathlib$square"],
    )

    def test_run_simple_program(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        obj = ObjectSegment(
            "answer",
            code=[I(Op.PUSHI, 40), I(Op.PUSHI, 2), I(Op.ADD), I(Op.RET)],
            definitions={"main": 0},
        )
        segno = session.install_object("answer", obj)
        assert session.run_program(segno) == 42

    def test_dynamic_linking_across_segments(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        lib_segno = session.install_object("mathlib", self.LIB)
        main_segno = session.install_object("main", self.MAIN)
        session.load_program(lib_segno)
        if session.linker is not None:
            session.refnames.bind("mathlib", lib_segno)
        else:
            session.call("hcs_$add_refname", lib_segno, "mathlib")
        assert session.run_program(main_segno) == 36

    def test_linking_resolves_through_search(self, any_system):
        """The fault-driven path: no pre-bound refname; the linker
        searches the working directory."""
        session = any_system.login("Alice", "Crypto", "alice-pw")
        lib_segno = session.install_object("mathlib", self.LIB)
        main_segno = session.install_object("main", self.MAIN)
        if session.linker is None:
            session.call("lk_$make_linkage", lib_segno)
        assert session.run_program(main_segno) == 36

    def test_arguments_passed(self, any_system):
        session = any_system.login("Alice", "Crypto", "alice-pw")
        obj = ObjectSegment(
            "addone",
            code=[I(Op.LOADF, 0), I(Op.PUSHI, 1), I(Op.ADD), I(Op.RET)],
            definitions={"main": 0},
        )
        segno = session.install_object("addone", obj)
        assert session.run_program(segno, "main", [9]) == 10


class TestShell:
    def test_basic_script(self, any_system):
        from repro.user.shell import Shell

        session = any_system.login("Alice", "Crypto", "alice-pw")
        shell = Shell(session)
        code = shell.run_script(
            """
            mkdir work
            cd work
            create notes 2
            ls
            who
            """
        )
        assert code == 0
        assert "s notes" in shell.output
        assert "Alice.Crypto.a" in shell.output

    def test_unknown_command(self, any_system):
        from repro.user.shell import Shell

        session = any_system.login("Alice", "Crypto", "alice-pw")
        shell = Shell(session)
        assert shell.execute("frobnicate") == 1

    def test_error_reported_not_raised(self, any_system):
        from repro.user.shell import Shell

        session = any_system.login("Alice", "Crypto", "alice-pw")
        shell = Shell(session)
        assert shell.execute("delete no_such_thing") == 1
        assert any("delete:" in line for line in shell.output)


class TestBothSupervisorsAgree:
    """The same workload produces the same user-visible results on the
    legacy supervisor and the kernel — full functionality survives the
    minimization (the paper's central demonstration)."""

    def workload(self, system):
        session = system.login("Alice", "Crypto", "alice-pw")
        session.create_dir("proj")
        session.set_acl("proj", "Bob.Crypto", "r")
        session.set_working_dir(f"{session.home_path}>proj")
        segno = session.create_segment("data", n_pages=2)
        session.write_words(segno, [3, 1, 4, 1, 5])
        session.set_acl("data", "Bob.Crypto", "r")
        listing = sorted(e["name"] for e in session.list_dir())
        bob = system.login("Bob", "Crypto", "bob-pw")
        bob_segno = bob.initiate(">udd>Crypto>Alice>proj>data")
        data = bob.read_words(bob_segno, 5)
        return listing, data

    def test_identical_results(self, kernel_system, legacy_system):
        assert self.workload(kernel_system) == self.workload(legacy_system)


class TestConfigBuilders:
    @pytest.mark.parametrize("builder", ["kernel_config", "legacy_config"])
    def test_unknown_key_rejected(self, builder):
        """A misspelt or removed knob must fail loudly, not boot a
        system with the default it meant to override."""
        import repro

        with pytest.raises(TypeError, match="core_frame"):
            getattr(repro, builder)(core_frame=8)
