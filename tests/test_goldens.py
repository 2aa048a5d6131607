"""Golden fixtures for the CPU interpreter and the discrete-event core.

Each scenario below runs a fixed, seeded workload and reduces it to a
fingerprint: the final simulated clock, the job results, the full
``repro.obs/v1`` metrics snapshot, and a record count plus sha256 for
the grant/deny trace and for the audit-trail export.  The fixtures in
``tests/goldens/`` were recorded while the simulator still carried a
second, classic interpreter loop and a heap-only event path; both
produced byte-identical fingerprints then, and the single path left
must keep reproducing them.

The scenarios cover the experiments whose numbers run through the
interpreter: E4 (call cycles on a standalone CPU, 645 and 6180), E15
(a login session's memory loop with the associative memory on and
off, under paging pressure, and four faulting programs), E17 (the SMP
complex at 1 and 2 CPUs), R2 (a chaos storm) and E18 (200 users of the
workload engine).  ``page_fault_paths`` covers the discrete-event fault
paths of both page-control designs, which the others never reach: E5's
storm under each design and A1's three replacement policies on its two
access patterns, traced, plus a fault generator dropped mid-service.

Re-record only for a change meant to alter simulated results, and say
why in the change log::

    PYTHONPATH=src python -m tests.test_goldens
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import MulticsSystem, kernel_config
from repro.config import PageControlKind, RingMode, SystemConfig
from repro.errors import ReproError
from repro.hw.clock import Simulator
from repro.hw.cpu import Instruction as I, Link, Op
from repro.hw.memory import MemoryHierarchy
from repro.hw.rings import kernel_gate_brackets
from repro.obs import MetricsRegistry, Tracer
from repro.proc.process import Process, ProcessState
from repro.proc.scheduler import TrafficController
from repro.user.object_format import ObjectSegment
from repro.vm.page_control import make_page_control
from repro.vm.replacement import make_policy
from repro.vm.segment_control import ActiveSegmentTable
from repro.workloads import WorkloadDriver, generate_population

from tests.test_determinism import storm_system
from tests.test_hw_cpu import Ctx, make_cpu
from tests.test_smp import make_jobs, smp_system

GOLDENS = Path(__file__).resolve().parent / "goldens"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def system_fingerprint(system, results) -> dict:
    """What a reproduction would publish about one booted system's run."""
    trace = [(r.action, r.object, r.decision)
             for r in system.audit.records()]
    export = system.audit.to_json()
    return {
        "final_clock": system.clock.now,
        "results": results,
        "metrics": system.metrics.snapshot(),
        "trace": {"records": len(trace), "sha256": _sha(json.dumps(trace))},
        "audit_export": {"records": len(system.audit),
                         "sha256": _sha(export)},
    }


def cpu_fingerprint(cpu, am) -> dict:
    return {
        "cycles": cpu.cycles,
        "instructions": cpu.instructions_executed,
        "calls_in_ring": cpu.calls_in_ring,
        "calls_cross_ring": cpu.calls_cross_ring,
        "am_hit_cycles": cpu.am_hit_cycles,
        "walk_cycles": cpu.walk_cycles,
        "am": None if am is None else [
            am.hits, am.misses, am.invalidations, am.cams,
            am.capacity_evictions,
        ],
    }


def _run_guarded(thunk) -> tuple[int | None, str]:
    """(result, "") or (None, "<FaultName>: <message>")."""
    try:
        return thunk(), ""
    except ReproError as exc:
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# E4: call cycles on a standalone CPU
# ---------------------------------------------------------------------------

#: Five rounds of an in-ring CALL, a ring-0 gate CALL and a CALLL
#: through a snapped link; returns the round count.
CALL_CYCLES = [
    I(Op.PUSHI, 0), I(Op.STOREF, 0),
    I(Op.LOADF, 0), I(Op.PUSHI, 5), I(Op.LT), I(Op.JZ, 17),
    I(Op.CALL, 2, 0, 0), I(Op.POP),
    I(Op.CALL, 3, 0, 0), I(Op.POP),
    I(Op.CALLL, 0, 0), I(Op.POP),
    I(Op.LOADF, 0), I(Op.PUSHI, 1), I(Op.ADD), I(Op.STOREF, 0),
    I(Op.JMP, 2),
    I(Op.LOADF, 0), I(Op.RET),
]

E4_PROGRAMS = {
    "in_ring": [I(Op.CALL, 2, 0, 0), I(Op.RET)],
    "cross_ring": [I(Op.CALL, 3, 0, 0), I(Op.RET)],
    "call_cycles": CALL_CYCLES,
}


def e4_call_cycles() -> dict:
    legs = {}
    for mode in (RingMode.SOFTWARE_645, RingMode.HARDWARE_6180):
        for name, program in E4_PROGRAMS.items():
            ctx = Ctx()
            callee = [I(Op.PUSHI, 1), I(Op.RET)]
            ctx.add_code(1, program)
            ctx.add_code(2, callee)
            ctx.add_code(3, callee, brackets=kernel_gate_brackets(),
                         gates=frozenset({0}))
            ctx.links.append(Link("callee$entry", snapped=True,
                                  segno=2, offset=0))
            metrics = MetricsRegistry()
            cpu = make_cpu(ring_mode=mode, metrics=metrics)
            result, error = _run_guarded(lambda: cpu.execute(ctx, 1, 0))
            legs[f"{mode.value}_{name}"] = {
                "result": result,
                "error": error,
                "metrics": metrics.snapshot(),
                **cpu_fingerprint(cpu, ctx.dseg.am),
            }
    assert legs["6180_cross_ring"]["cycles"] == legs["6180_in_ring"]["cycles"]
    assert legs["645_cross_ring"]["cycles"] > 5 * legs["645_in_ring"]["cycles"]
    return legs


# ---------------------------------------------------------------------------
# E15: one login session's memory loop on a session CPU
# ---------------------------------------------------------------------------

SPIN_AND_TOUCH = ObjectSegment(
    "spin",
    code=[
        # for i in 0..N: acc += M[data][i % 24]; plus some pure compute
        I(Op.PUSHI, 0), I(Op.STOREF, 0),            # acc
        I(Op.PUSHI, 0), I(Op.STOREF, 1),            # i
        I(Op.LOADF, 1), I(Op.LOADF, 2), I(Op.LT), I(Op.JZ, 24),
        I(Op.LOADF, 0),
        I(Op.LOADF, 1), I(Op.PUSHI, 24), I(Op.MOD),
        I(Op.LOADI, 0),                              # segno patched
        I(Op.ADD),
        I(Op.PUSHI, 3), I(Op.MUL), I(Op.PUSHI, 2), I(Op.DIV),
        I(Op.STOREF, 0),
        I(Op.LOADF, 1), I(Op.PUSHI, 1), I(Op.ADD), I(Op.STOREF, 1),
        I(Op.JMP, 4),
        I(Op.LOADF, 0), I(Op.RET),
    ],
    definitions={"main": 0},
)


def patched(obj: ObjectSegment, data_segno: int) -> ObjectSegment:
    return ObjectSegment(
        obj.name,
        code=[
            I(Op.LOADI, data_segno) if inst.op is Op.LOADI else inst
            for inst in obj.code
        ],
        definitions=dict(obj.definitions),
    )


def cpu_run(program=None, sizing: dict | None = None,
            iters: int = 200) -> dict:
    """One login session running a memory-touching loop."""
    overrides = dict(core_frames=256, bulk_frames=512, disk_frames=2048)
    overrides.update(sizing or {})
    system = MulticsSystem(kernel_config(**overrides)).boot()
    system.register_user("Alice", "Crypto", "pw")
    session = system.login("Alice", "Crypto", "pw")
    data = session.create_segment("data", n_pages=2)
    session.write_words(data, [7] * 32)
    segno = session.install_object("prog", patched(program or SPIN_AND_TOUCH,
                                                   data))
    session.load_program(segno)
    cpu = session.make_cpu()
    result, error = _run_guarded(
        lambda: cpu.execute(session.process, segno, args=[0, 0, iters])
    )
    return {
        "error": error,
        **system_fingerprint(system, [result]),
        **cpu_fingerprint(cpu, session.process.dseg.am),
    }


def e15_loop(**kwargs) -> dict:
    fp = cpu_run(**kwargs)
    assert fp["error"] == "" and fp["results"] != [None]
    return fp


def _main(*code) -> ObjectSegment:
    return ObjectSegment("bad", code=list(code), definitions={"main": 0})


#: Faulting programs and the fault each must raise.
E15_FAULTS = {
    "binop_underflow": (_main(I(Op.ADD), I(Op.RET)), "IllegalInstruction"),
    "negative_offset": (_main(I(Op.PUSHI, -3), I(Op.LOADI, 0), I(Op.RET)),
                        "BoundsViolation"),
    "out_of_bound": (_main(I(Op.PUSHI, 4096), I(Op.LOADI, 0), I(Op.RET)),
                     "BoundsViolation"),
    "jump_off_end": (_main(I(Op.JMP, 99)), "IllegalInstruction"),
}


def e15_fault(name: str) -> dict:
    program, fault = E15_FAULTS[name]
    fp = cpu_run(program=program)
    assert fp["error"].startswith(f"{fault}:")
    return fp


def e15_paging_pressure() -> dict:
    """Tiny core: evictions break AM witnesses mid-run, forcing the
    inline hit path to fall back to the full walk."""
    fp = e15_loop(sizing=dict(core_frames=4, bulk_frames=32,
                              disk_frames=256, page_size=16), iters=120)
    assert fp["am"][2] > 0  # invalidations actually happened
    return fp


# ---------------------------------------------------------------------------
# E17 / R2: the SMP complex, calm and under a chaos storm
# ---------------------------------------------------------------------------

def complex_run(n_processors: int) -> dict:
    system = smp_system(n_processors=n_processors)
    jobs, _ = make_jobs(system)
    system.cpu_complex().run_jobs(jobs)
    assert [j.result for j in jobs] == [96] * 8
    return system_fingerprint(system, [j.result for j in jobs])


def r2_storm() -> dict:
    system, jobs, engine = storm_system(11)
    return {
        "injections": len(engine.applied),
        **system_fingerprint(system, [j.result for j in jobs]),
    }


# ---------------------------------------------------------------------------
# E18: the workload engine at 200 users
# ---------------------------------------------------------------------------

#: E18's hierarchy (benchmarks/test_e18_workload.py).
E18_FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
                  disk_frames=65536)


def e18_200_users() -> dict:
    system = MulticsSystem(kernel_config(**E18_FRAMES)).boot()
    report = WorkloadDriver(system, n_cpus=2).run(
        generate_population(200, seed=1975)
    )
    derived = report.to_dict()
    for wall in ("wall_seconds", "users_per_sec", "cycles_per_sec"):
        del derived[wall]
    assert derived["jobs_completed"] == 200
    return {
        "report": derived,
        **system_fingerprint(system, report.latencies),
    }


# ---------------------------------------------------------------------------
# E5 / A1: the discrete-event fault paths of both page-control designs
# ---------------------------------------------------------------------------

#: E5's storm hierarchy (benchmarks/test_e5_page_control.py).
E5_CONFIG = dict(page_size=16, core_frames=8, bulk_frames=12,
                 disk_frames=512, n_processors=2, n_virtual_processors=8,
                 quantum=5000)
#: A1's hierarchy (benchmarks/test_a1_replacement_ablation.py).
A1_CONFIG = dict(page_size=16, core_frames=8, bulk_frames=32,
                 disk_frames=512, n_processors=1, n_virtual_processors=6,
                 quantum=10_000)


def _traced_page_control(kind: str, sizing: dict, policy: str = "clock"):
    config = SystemConfig(**sizing)
    sim = Simulator()
    metrics = MetricsRegistry(clock=sim.clock)
    tc = TrafficController(sim, config, metrics=metrics)
    hierarchy = MemoryHierarchy(config, metrics=metrics)
    ast = ActiveSegmentTable(hierarchy)
    tracer = Tracer(sim.clock, enabled=True)
    pc = make_page_control(PageControlKind[kind], sim, tc, hierarchy, ast,
                           config, policy=make_policy(policy),
                           metrics=metrics, tracer=tracer)
    return tc, ast, pc, metrics, tracer


def _fault_path_fingerprint(pc, metrics, tracer) -> dict:
    """Every fault record and ``page_fault`` span, one JSON line each,
    and the ``pc.*`` instruments."""
    snap = metrics.snapshot()
    return {
        "clock": snap["clock"],
        "fault_records": [
            json.dumps([r.process, r.started, r.finished,
                        r.steps_in_faulter])
            for r in pc.fault_records
        ],
        "pc": {kind: {name: value for name, value in snap[kind].items()
                      if name.startswith("pc.")}
               for kind in ("counters", "gauges", "histograms")},
        "page_fault_spans": [
            json.dumps(span.to_dict(), sort_keys=True)
            for span in tracer.by_name("page_fault")
        ],
    }


def e5_storm(kind: str) -> dict:
    """Four processes sweep 12-page segments twice through 8 frames."""
    tc, ast, pc, metrics, tracer = _traced_page_control(kind, E5_CONFIG)
    segments = [ast.activate(uid=i, n_pages=12) for i in range(4)]

    def body(seg):
        def gen(proc):
            for _sweep in range(2):
                for page in range(seg.n_pages):
                    yield from pc.touch(proc, seg, page)

        return gen

    workers = [Process(f"w{i}", body=body(s)) for i, s in enumerate(segments)]
    for worker in workers:
        tc.add_process(worker)
    tc.run(max_events=2_000_000)
    assert all(w.state is ProcessState.STOPPED for w in workers)
    return _fault_path_fingerprint(pc, metrics, tracer)


def a1_pattern(policy: str, pattern: str) -> dict:
    """One process on A1's cyclic sweep or hot/cold set."""
    tc, ast, pc, metrics, tracer = _traced_page_control(
        "SEQUENTIAL", A1_CONFIG, policy)
    seg = ast.activate(uid=1, n_pages=12)
    if pattern == "sweep":
        schedule = list(range(seg.n_pages)) * 4
    else:
        schedule = []
        for round_no in range(16):
            schedule.extend([0, 1, 2, 3] * 3)
            schedule.append(4 + round_no % 8)

    def body(proc):
        for page in schedule:
            yield from pc.touch(proc, seg, page)

    worker = Process("w", body=body)
    tc.add_process(worker)
    tc.run(max_events=1_000_000)
    assert worker.state is ProcessState.STOPPED
    return _fault_path_fingerprint(pc, metrics, tracer)


def dropped_fault(kind: str) -> dict:
    """A fault generator dropped at its first I/O wait: its span closes
    aborted, with the steps reached so far."""
    tc, ast, pc, metrics, tracer = _traced_page_control(kind, A1_CONFIG)
    seg = ast.activate(uid=1, n_pages=1)
    gen = pc.fault(Process("victim", ring=4), seg, 0)
    next(gen)
    gen.send(0)
    gen.close()
    (span,) = tracer.by_name("page_fault")
    assert span.attrs["aborted"] is True
    return _fault_path_fingerprint(pc, metrics, tracer)


def page_fault_paths() -> dict:
    runs = {f"e5_{kind.lower()}": e5_storm(kind)
            for kind in ("SEQUENTIAL", "PARALLEL")}
    for policy in ("fifo", "clock", "lru"):
        for pattern in ("sweep", "hot_cold"):
            runs[f"a1_{policy}_{pattern}"] = a1_pattern(policy, pattern)
    for kind in ("SEQUENTIAL", "PARALLEL"):
        runs[f"dropped_{kind.lower()}"] = dropped_fault(kind)
    return runs


SCENARIOS = {
    "e4_call_cycles": e4_call_cycles,
    "e15_am_on": e15_loop,
    "e15_am_off": lambda: e15_loop(sizing=dict(am_enabled=False)),
    "e15_paging_pressure": e15_paging_pressure,
    **{f"e15_fault_{name}": (lambda name=name: e15_fault(name))
       for name in E15_FAULTS},
    "e17_complex_1cpu": lambda: complex_run(1),
    "e17_complex_2cpu": lambda: complex_run(2),
    "r2_storm": r2_storm,
    "e18_200_users": e18_200_users,
    "page_fault_paths": page_fault_paths,
}


def canonical(fingerprint: dict) -> str:
    return json.dumps(fingerprint, indent=1, sort_keys=True) + "\n"


def record() -> None:
    """Write every scenario's fixture."""
    GOLDENS.mkdir(exist_ok=True)
    for name, scenario in SCENARIOS.items():
        (GOLDENS / f"{name}.json").write_text(canonical(scenario()))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    golden = json.loads((GOLDENS / f"{name}.json").read_text())
    assert json.loads(canonical(SCENARIOS[name]())) == golden


if __name__ == "__main__":
    record()
