"""Tests for the SMP layer: kernel locks (repro.kernel.locks) and the
deterministic lockstep CPU complex (repro.hw.smp).

The workload is the E16/E17 SUMMER program — one login session (hence
one process and one descriptor segment) per job, so the complex
exercises per-CPU associative-memory cams between jobs and parallel
page-fault traffic against shared page control.
"""

import pytest

from repro import MulticsSystem
from repro.errors import BoundsViolation, IllegalInstruction
from repro.faults.harness import harness_config
from repro.hw.cpu import Instruction as I, Op
from repro.kernel.locks import KernelLock, LockTable
from repro.obs import MetricsRegistry
from repro.user.object_format import ObjectSegment

SUMMER = ObjectSegment(
    "summer",
    code=[
        I(Op.PUSHI, 0), I(Op.STOREF, 0),
        I(Op.PUSHI, 0), I(Op.STOREF, 1),
        I(Op.LOADF, 1), I(Op.PUSHI, 32), I(Op.LT), I(Op.JZ, 18),
        I(Op.LOADF, 0), I(Op.LOADF, 1), I(Op.LOADI, 0),   # segno patched
        I(Op.ADD), I(Op.STOREF, 0),
        I(Op.LOADF, 1), I(Op.PUSHI, 1), I(Op.ADD), I(Op.STOREF, 1),
        I(Op.JMP, 4),
        I(Op.LOADF, 0), I(Op.RET),
    ],
    definitions={"main": 0},
)


def summer_for(data_segno: int) -> ObjectSegment:
    return ObjectSegment(
        SUMMER.name,
        code=[
            I(Op.LOADI, data_segno) if inst.op is Op.LOADI else inst
            for inst in SUMMER.code
        ],
        definitions=dict(SUMMER.definitions),
    )


def smp_system(**overrides):
    """A booted kernel system sized so the SUMMER jobs run fault-free
    (override the frame counts to make them fault-heavy instead)."""
    kw = dict(core_frames=256, bulk_frames=512, disk_frames=2048)
    kw.update(overrides)
    system = MulticsSystem(harness_config(**kw)).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    return system


def make_jobs(system, n_jobs=8):
    """One SUMMER job per fresh login session (fresh process each)."""
    jobs, sessions = [], []
    for i in range(n_jobs):
        session = system.login("Alice", "Crypto", "alice-pw")
        data = session.create_segment(f"data{i}", n_pages=2)
        session.write_words(data, [3] * 32)
        segno = session.install_object(f"sum{i}", summer_for(data))
        jobs.append(session.program_job(segno, label=f"job{i}"))
        sessions.append((session, segno))
    return jobs, sessions


class TestKernelLock:
    def test_uncontended_acquire_is_free(self):
        lock = KernelLock("tc")
        assert lock.acquire(now=10, owner="a") == 0
        assert lock.acquisitions == 1
        assert lock.contentions == 0

    def test_anonymous_acquire_never_waits_but_counts(self):
        lock = KernelLock("ptl")
        lock.acquire(now=0, owner="a")
        lock.hold(100)
        assert lock.acquire(now=5) == 0          # DES path: owner=None
        assert lock.acquisitions == 2
        assert lock.contentions == 0

    def test_same_owner_reacquires_free(self):
        lock = KernelLock("ptl")
        owner = object()
        lock.acquire(now=0, owner=owner)
        lock.hold(50)
        assert lock.acquire(now=10, owner=owner) == 0
        assert lock.contentions == 0

    def test_cross_owner_waits_out_the_hold(self):
        lock = KernelLock("ptl")
        lock.acquire(now=0, owner="cpu0")
        lock.hold(40)
        wait = lock.acquire(now=15, owner="cpu1")
        assert wait == 25
        assert lock.contentions == 1
        assert lock.contention_cycles == 25

    def test_wait_extends_the_critical_window(self):
        lock = KernelLock("ptl")
        lock.acquire(now=0, owner="a")
        lock.hold(40)
        lock.acquire(now=0, owner="b")           # waits 40, runs from 40
        lock.hold(10)                            # ... holding until 50
        assert lock.acquire(now=0, owner="c") == 50

    def test_hold_after_the_window_expires_is_uncontended(self):
        lock = KernelLock("ptl")
        lock.acquire(now=0, owner="a")
        lock.hold(10)
        assert lock.acquire(now=100, owner="b") == 0
        assert lock.held_until == 100

    def test_negative_hold_rejected(self):
        lock = KernelLock("tc")
        with pytest.raises(ValueError):
            lock.hold(-1)


class TestLockTable:
    def test_fixed_lock_set_and_metrics(self):
        metrics = MetricsRegistry()
        table = LockTable(metrics=metrics)
        assert LockTable.NAMES == ("tc", "ptl", "ast")
        for name in LockTable.NAMES:
            assert table[name].name == name
            for leaf in ("acquisitions", "contentions", "contention_cycles"):
                assert f"lock.{name}.{leaf}" in metrics
        table.ptl.acquire(0, "a")
        table.ptl.hold(30)
        table.ptl.acquire(0, "b")
        assert table.total_contention_cycles() == 30

    def test_unknown_lock_name_raises(self):
        table = LockTable()
        with pytest.raises(KeyError):
            table["dseg"]

    def test_system_wires_the_table(self):
        system = smp_system()
        locks = system.services.locks
        assert system.services.scheduler.tc_lock is locks.tc
        assert system.services.page_control.ptl is locks.ptl
        assert system.services.ast.lock is locks.ast
        # Booting dispatches under the tc lock and activates segments
        # under the AST lock, so the discipline is already visible.
        assert locks.tc.acquisitions > 0
        assert locks.ast.acquisitions > 0


class TestComplex:
    def test_jobs_complete_with_correct_results(self):
        system = smp_system()
        jobs, _ = make_jobs(system)
        cx = system.cpu_complex(n_cpus=2)
        cx.run_jobs(jobs)
        assert [j.result for j in jobs] == [96] * 8
        assert all(j.error is None for j in jobs)
        assert all(j.cpu_id in (0, 1) for j in jobs)
        assert cx.jobs_completed == 8
        assert not cx.busy

    def test_single_cpu_matches_the_serial_path(self):
        """One-CPU lockstep is cycle-identical to the pre-SMP path:
        the clock advances by exactly the cycles fresh per-job CPUs
        would have charged."""
        serial = smp_system()
        total = 0
        for session, segno in make_jobs(serial)[1]:
            session.load_program(segno)
            code = session.process.code_segments[segno]
            cpu = session.make_cpu()
            assert cpu.execute(session.process, segno,
                               code.entry_points["main"]) == 96
            total += cpu.cycles
        system = smp_system()
        jobs, _ = make_jobs(system)
        cx = system.cpu_complex(n_cpus=1)
        before = system.clock.now
        cx.run_jobs(jobs)
        assert system.clock.now - before == total
        assert cx.stall_cycles == 0

    def test_two_cpus_run_parallel_work_faster(self):
        elapsed = {}
        for n_cpus in (1, 2):
            system = smp_system()
            jobs, _ = make_jobs(system)
            cx = system.cpu_complex(n_cpus=n_cpus)
            before = system.clock.now
            cx.run_jobs(jobs)
            elapsed[n_cpus] = system.clock.now - before
        assert elapsed[1] / elapsed[2] >= 1.8

    def test_fault_containment(self):
        """A job that dies on a hardware fault is contained: its CPU is
        reused and every other job still completes."""
        system = smp_system()
        jobs, _ = make_jobs(system, n_jobs=4)
        bomber = system.login("Alice", "Crypto", "alice-pw")
        data = bomber.create_segment("victim", n_pages=2)
        bad = ObjectSegment(
            "bomb",
            code=[I(Op.PUSHI, 9999), I(Op.LOADI, data), I(Op.RET)],
            definitions={"main": 0},
        )
        bad_job = bomber.program_job(bomber.install_object("bomb", bad))
        cx = system.cpu_complex(n_cpus=2)
        cx.run_jobs([bad_job] + jobs)
        assert isinstance(bad_job.error, BoundsViolation)
        assert bad_job.result is None
        assert [j.result for j in jobs] == [96] * 4
        assert cx.jobs_failed == 1
        assert cx.jobs_completed == 4
        assert not cx.busy

    @pytest.mark.parametrize("code", [
        [I(Op.DUP), I(Op.RET)],
        [I(Op.PUSHI, 1), I(Op.SWAP), I(Op.RET)],
    ])
    def test_stack_underflow_is_contained(self, code):
        """DUP/SWAP on a short operand stack is an illegal instruction:
        the job dies, the jobs queued behind it still complete."""
        system = smp_system()
        jobs, _ = make_jobs(system, n_jobs=3)
        session = system.login("Alice", "Crypto", "alice-pw")
        bad = ObjectSegment("short", code=code, definitions={"main": 0})
        segno = session.install_object("short", bad)
        bad_job = session.program_job(segno)
        cx = system.cpu_complex(n_cpus=2)
        cx.run_jobs([bad_job] + jobs)
        assert isinstance(bad_job.error, IllegalInstruction)
        assert bad_job.result is None
        assert [j.result for j in jobs] == [96] * 3
        assert cx.jobs_failed == 1
        assert not cx.busy
        with pytest.raises(IllegalInstruction, match="underflow"):
            session.run_program(segno)

    def test_private_am_cams_between_processes(self):
        """Connecting a CPU to a different descriptor segment cams its
        private AM (the AM is processor hardware, not process state)."""
        system = smp_system()
        jobs, _ = make_jobs(system, n_jobs=3)
        cx = system.cpu_complex(n_cpus=1)
        cx.run_jobs(jobs)
        am = cx.cpus[0].private_am
        assert am is not None
        assert am.cams == 2        # job 2 and job 3 each switch dsegs
        assert am.hits > 0

    def test_fault_heavy_contention_degrades_gracefully(self):
        """With core sized to thrash, CPUs serialize on the page-table
        lock: contention shows up in lock.ptl.* and in stall cycles,
        and adding a CPU still never makes the workload slower."""
        tiny = dict(core_frames=8, bulk_frames=32, disk_frames=256)
        elapsed, stalls = {}, {}
        for n_cpus in (1, 2):
            system = smp_system(**tiny)
            jobs, _ = make_jobs(system)
            cx = system.cpu_complex(n_cpus=n_cpus)
            before = system.clock.now
            cx.run_jobs(jobs)
            elapsed[n_cpus] = system.clock.now - before
            stalls[n_cpus] = cx.stall_cycles
            assert [j.result for j in jobs] == [96] * 8
            locks = system.services.locks
            if n_cpus == 1:
                # A single CPU can never contend with itself.
                assert locks.ptl.contentions == 0
            else:
                assert locks.ptl.contentions > 0
                assert locks.ptl.contention_cycles > 0
        assert stalls[2] > stalls[1]
        assert elapsed[2] <= elapsed[1]

    def test_dispatch_cost_contends_on_the_tc_lock(self):
        system = smp_system()
        system.config.costs.smp_dispatch = 7
        jobs, _ = make_jobs(system, n_jobs=4)
        cx = system.cpu_complex(n_cpus=2)
        cx.run_jobs(jobs)
        locks = system.services.locks
        # CPU 1 dispatches inside CPU 0's dispatch hold every round.
        assert locks.tc.contentions > 0
        assert cx.stall_cycles > 0
        assert [j.result for j in jobs] == [96] * 4

    def test_per_cpu_meter_attribution(self):
        system = smp_system()
        jobs, _ = make_jobs(system)
        cx = system.cpu_complex(n_cpus=2)
        cx.run_jobs(jobs)
        meters = system.meters
        per_cpu = [meters.cpu_meter(i) for i in range(2)]
        assert sum(m.busy_cycles for m in per_cpu) == cx.busy_cycles
        assert sum(m.jobs for m in per_cpu) == 8
        snapshot = system.metrics.snapshot()["counters"]
        assert snapshot["meter.smp_busy_cycles"] == cx.busy_cycles
        assert snapshot["smp.jobs_completed"] == 8
        assert snapshot["smp.elapsed_cycles"] == cx.elapsed_cycles

    def test_validation(self):
        system = smp_system()
        with pytest.raises(ValueError):
            system.cpu_complex(n_cpus=0)
        cx = system.cpu_complex(n_cpus=1)
        with pytest.raises(ValueError):
            cx.run(quantum=0)

    def test_n_cpus_config_defaults(self):
        """The complex has ``n_processors`` CPUs unless the caller
        asks for another count."""
        from repro.config import SystemConfig

        system = smp_system(n_processors=2)
        assert system.cpu_complex().n_cpus == 2
        assert len(system.services.scheduler.processors) == 2
        assert system.cpu_complex(n_cpus=1).n_cpus == 1
        with pytest.raises(ValueError):
            SystemConfig(n_processors=0).validate()
