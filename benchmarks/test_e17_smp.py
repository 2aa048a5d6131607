"""E17 — symmetric multiprocessing: the 6180 ran Multics on multiple
identical processors sharing one memory, with the kernel's shared
tables guarded by a handful of global locks (the traffic-control lock
lowest).  The simulator's SMP complex reproduces that structure in
deterministic lockstep.

Measured: simulated-cycle throughput of an embarrassingly parallel
8-job workload at 1 vs 2 CPUs (claim: >= 1.8x); clock identity of the
1-CPU complex with the pre-SMP synchronous execution path; graceful
degradation under a fault-heavy (thrashing) workload where CPUs
serialize on the page-table lock; and byte-identical metrics snapshots
across two same-seed runs (determinism is what makes the other three
numbers citable).
"""

import json
import time

from repro import MulticsSystem
from repro.faults.harness import harness_config
from repro.hw.cpu import Instruction as I, Op
from repro.user.object_format import ObjectSegment

SPEEDUP_FLOOR = 1.8
N_JOBS = 8

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

#: Core sized so the 8-job workload runs fault-free (the parallel leg)
#: or thrashes on every sweep (the contention leg).
PARALLEL_FRAMES = dict(core_frames=256, bulk_frames=512, disk_frames=2048)
THRASH_FRAMES = dict(core_frames=8, bulk_frames=32, disk_frames=256)


def _boot(frames: dict) -> MulticsSystem:
    system = MulticsSystem(harness_config(**frames)).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    return system


def _prepare(system: MulticsSystem, n_jobs: int = N_JOBS):
    """One SUMMER job per fresh login session (fresh process, fresh
    descriptor segment — so per-CPU AMs cam between jobs)."""
    jobs, sessions = [], []
    for i in range(n_jobs):
        session = system.login("Alice", "Crypto", "alice-pw")
        data = session.create_segment(f"data{i}", n_pages=2)
        session.write_words(data, [3] * 32)
        program = ObjectSegment(
            SUMMER.name,
            code=[
                I(Op.LOADI, data) if inst.op is Op.LOADI else inst
                for inst in SUMMER.code
            ],
            definitions=dict(SUMMER.definitions),
        )
        segno = session.install_object(f"sum{i}", program)
        jobs.append(session.program_job(segno, label=f"job{i}"))
        sessions.append((session, segno))
    return jobs, sessions


def smp_run(n_cpus: int, frames: dict | None = None) -> dict:
    """Boot, run the workload on an n-CPU complex, return the numbers."""
    system = _boot(frames or PARALLEL_FRAMES)
    jobs, _ = _prepare(system)
    complex_ = system.cpu_complex(n_cpus=n_cpus)
    before = system.clock.now
    complex_.run_jobs(jobs)
    locks = system.services.locks
    return {
        "system": system,
        "snapshot_json": system.metrics.to_json(),
        "complex": complex_,
        "jobs": jobs,
        "elapsed": system.clock.now - before,
        "busy": complex_.busy_cycles,
        "stall": complex_.stall_cycles,
        "rounds": complex_.rounds,
        "ptl_contentions": locks.ptl.contentions,
        "ptl_contention_cycles": locks.ptl.contention_cycles,
        "results": [job.result for job in jobs],
    }


def serial_cycles() -> int:
    """The pre-SMP execution path: each job on a fresh synchronous CPU
    (exactly what ``Session.run_program`` does), cycles summed."""
    system = _boot(PARALLEL_FRAMES)
    _, sessions = _prepare(system)
    total = 0
    for session, segno in sessions:
        session.load_program(segno)
        code = session.process.code_segments[segno]
        cpu = session.make_cpu()
        assert cpu.execute(session.process, segno,
                           code.entry_points["main"]) == 96
        total += cpu.cycles
    return total


def test_e17_smp(benchmark, report, export):
    t0 = time.perf_counter()
    two = benchmark(lambda: smp_run(2))
    one = smp_run(1)

    # (a) throughput: two CPUs on embarrassingly parallel work.
    assert one["results"] == [96] * N_JOBS
    assert two["results"] == [96] * N_JOBS
    speedup = one["elapsed"] / two["elapsed"]
    assert speedup >= SPEEDUP_FLOOR

    # (b) a 1-CPU complex is cycle-identical to the pre-SMP path.
    serial = serial_cycles()
    assert one["elapsed"] == serial
    assert one["stall"] == 0

    # (c) graceful degradation: the thrashing workload serializes on
    # the page-table lock — contention is visible, every job still
    # completes, and the second CPU never makes things slower.
    heavy_one = smp_run(1, frames=THRASH_FRAMES)
    heavy_two = smp_run(2, frames=THRASH_FRAMES)
    assert heavy_one["results"] == [96] * N_JOBS
    assert heavy_two["results"] == [96] * N_JOBS
    assert heavy_one["ptl_contentions"] == 0
    assert heavy_two["ptl_contentions"] > 0
    assert heavy_two["elapsed"] <= heavy_one["elapsed"]

    # (d) determinism: a second same-seed 2-CPU boot is byte-identical.
    replay = smp_run(2)
    assert replay["snapshot_json"] == two["snapshot_json"]
    assert replay["elapsed"] == two["elapsed"]
    wall = time.perf_counter() - t0

    snapshot = json.loads(two["snapshot_json"])
    export("E17", snapshot, extra={
        "jobs": N_JOBS,
        "elapsed_1cpu": one["elapsed"],
        "elapsed_2cpu": two["elapsed"],
        "speedup_2cpu": round(speedup, 3),
        "serial_cycles": serial,
        "one_cpu_identity": one["elapsed"] == serial,
        "thrash_elapsed_1cpu": heavy_one["elapsed"],
        "thrash_elapsed_2cpu": heavy_two["elapsed"],
        "thrash_ptl_contentions": heavy_two["ptl_contentions"],
        "thrash_ptl_contention_cycles": heavy_two["ptl_contention_cycles"],
        "thrash_stall_cycles_2cpu": heavy_two["stall"],
        "deterministic_replay": True,
        "wall_seconds": round(wall, 4),
    })
    report("E17", [
        "E17: SMP (deterministic lockstep; kernel tables behind global",
        "     locks, per-CPU associative memories)",
        f"  parallel speedup at 2 CPUs: {speedup:.2f}x "
        f"({one['elapsed']} -> {two['elapsed']} cycles; floor "
        f"{SPEEDUP_FLOOR}x)",
        f"  1-CPU complex vs pre-SMP path: {one['elapsed']} == {serial} "
        "cycles (identical)",
        f"  thrashing workload: ptl contentions "
        f"{heavy_two['ptl_contentions']} "
        f"({heavy_two['ptl_contention_cycles']} cycles waited), "
        f"elapsed {heavy_one['elapsed']} -> {heavy_two['elapsed']}",
        "  same-seed replay: byte-identical metrics snapshot",
    ])


def bench_numbers() -> tuple[dict, dict]:
    """(derived numbers, metrics snapshot) for scripts/run_benches.py."""
    t0 = time.perf_counter()
    one = smp_run(1)
    two = smp_run(2)
    serial = serial_cycles()
    heavy_two = smp_run(2, frames=THRASH_FRAMES)
    replay = smp_run(2)
    derived = {
        "wall_seconds": round(time.perf_counter() - t0, 4),
        "jobs": N_JOBS,
        "elapsed_1cpu": one["elapsed"],
        "elapsed_2cpu": two["elapsed"],
        "speedup_2cpu": round(one["elapsed"] / two["elapsed"], 3),
        "serial_cycles": serial,
        "one_cpu_identity": one["elapsed"] == serial,
        "thrash_ptl_contentions": heavy_two["ptl_contentions"],
        "thrash_stall_cycles_2cpu": heavy_two["stall"],
        "deterministic_replay":
            replay["snapshot_json"] == two["snapshot_json"],
    }
    return derived, json.loads(two["snapshot_json"])
