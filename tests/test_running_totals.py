"""Running totals behind the ``am.*`` and ``meter.*`` sources.

Those metrics used to add up one associative memory or one metering
bucket per process each time they were read, so every registry read —
and every timeline sample — cost time in proportion to the population.
They are now running totals bumped where the counts change.  Three
guards keep that exact and keep it cheap:

* **Oracle** (seeded Hypothesis): random sequences of AM operations,
  meter calls and cycle charges made through each real charging site
  (a gate call, a scheduler ``Charge``, a discrete-event page fault, an
  interrupt handled in the running process); after every step each
  ``am.*`` and ``meter.*`` source equals the brute-force population sum
  it replaced, which lives on only here.
* **Golden**: a 600-user run in the ``login_storm`` benchmark's
  configuration, with a third of its sessions logged out, produces the
  snapshot and timeline documents recorded before the totals existed,
  byte for byte.
* **Scaling guard**: with the per-process tables, the live processes
  included, made unwalkable, a snapshot and a forced timeline sample
  still succeed, so no source walks the population.
"""

import dataclasses
import hashlib
import json

from hypothesis import Phase, given, settings, strategies as st

from repro import MulticsSystem, kernel_config
from repro.config import CostModel, RingMode
from repro.errors import AccessDenied, ReproError
from repro.hw.cpu import CPU, CodeSegment, Instruction as I, Op
from repro.hw.memory import MemoryLevel
from repro.hw.rings import user_brackets
from repro.hw.segmentation import PTW, SDW, AccessMode, Intent
from repro.kernel.gates import Gate, GateTable
from repro.kernel.services import KernelServices
from repro.obs import validate_snapshot
from repro.obs.meters import ProcessMeter
from repro.proc.interrupt_procs import InProcessDispatch
from repro.proc.ipc import Block, Charge
from repro.proc.process import Process
from repro.workloads import WorkloadDriver, generate_population

PAGE = 16
RING = 4
CODE_SEGNO = 1
#: A segment number with no SDW: probes and inserts only.
LOOSE_SEGNO = 5
DATA_SEGNO = 9
SEGNOS = (CODE_SEGNO, LOOSE_SEGNO, DATA_SEGNO)
#: Object uids the inserted entries name.
UIDS = (900_001, 900_002, 900_003)
N_PROCS = 3
N_FRAMES = 8
#: Page-table words shared by the inserted entries; ``move`` evicts or
#: re-places them so cached entries fail their witness checks.
N_PTWS = 4
GATES = ("hcs_$initiate", "hcs_$terminate", "hcs_$proc_create")
#: The gate the rig's table exports: its one argument picks the outcome.
ORACLE_GATE = "oracle_$charge"
GATE_OUTCOMES = ("granted", "denied", "bad_args")
#: The interrupt line whose handler runs inside the current process.
STEAL_LINE = 9
#: An active segment larger than core, so its faults keep evicting.
SEGMENT_UID = 900_100
SEGMENT_PAGES = 12

AM_COUNTERS = ("hits", "misses", "invalidations", "cams")
BUCKET_FIELDS = ("exec_cycles", "am_hit_cycles", "walk_cycles",
                 "ring_crossings", "gate_entries", "gate_denials")


# ---------------------------------------------------------------------------
# the brute-force sums the sources replaced
# ---------------------------------------------------------------------------

def population_sums(services: KernelServices, retired: dict) -> dict:
    """Every ``am.*`` and ``meter.*`` value, summed over the population
    the way the sources used to: tracked processes' AMs plus the counts
    of destroyed ones, and every metering bucket."""
    procs = list(services._procs.values())
    sums = {
        f"am.{attr}": retired[attr]
        + sum(getattr(p.dseg.am, attr) for p in procs)
        for attr in AM_COUNTERS
    }
    sums["am.entries"] = sum(len(p.dseg.am) for p in procs)
    meters = services.meters
    buckets = list(meters._buckets.values())
    for field in BUCKET_FIELDS:
        sums[f"meter.{field}"] = sum(getattr(b, field) for b in buckets)
    attributed = sum(meters.process_attributed(b.pid) for b in buckets)
    total = meters.total_cycles()
    sums["meter.attributed_cycles"] = attributed
    sums["meter.coverage"] = attributed / total if total else 1.0
    return sums


def bucket_sum(meters) -> ProcessMeter:
    """Every metering bucket added up field by field: what the meters'
    total bucket must hold."""
    buckets = list(meters._buckets.values())
    return ProcessMeter(0, "total", **{
        field.name: sum(getattr(b, field.name) for b in buckets)
        for field in dataclasses.fields(ProcessMeter)
        if field.name not in ("pid", "name")
    })


#: The sources under test, and which of them are gauges.
SOURCES = ([f"am.{attr}" for attr in (*AM_COUNTERS, "entries")]
           + [f"meter.{field}" for field in BUCKET_FIELDS]
           + ["meter.attributed_cycles", "meter.coverage"])
GAUGES = {"am.entries", "meter.coverage"}


def source_values(services: KernelServices) -> dict:
    """What each source under test reads now."""
    metrics = services.metrics
    return {
        name: (metrics.gauge(name) if name in GAUGES
               else metrics.counter(name)).value
        for name in SOURCES
    }


# ---------------------------------------------------------------------------
# the oracle test
# ---------------------------------------------------------------------------

def oracle_gate(services, process, outcome):
    """The rig's gate handler: grants, or refuses after the charge."""
    if outcome:
        raise AccessDenied("the oracle refuses")


def steal_handler(cycles):
    """An in-process interrupt handler that costs ``cycles``."""
    yield Charge(cycles)


class Rig:
    """A small kernel substrate, a few processes, and one CPU whose
    references go through each process's own AM.  Each process can
    also be charged through the real sites: a gate table, and a body
    the traffic controller runs that takes a ``Charge``, a page fault
    or an interrupt for each wakeup it is sent."""

    def __init__(self) -> None:
        self.services = services = KernelServices(kernel_config(
            am_entries=4, core_frames=8, bulk_frames=8, disk_frames=64,
        ))
        core = MemoryLevel("core", N_FRAMES, 1, PAGE)
        for _ in range(N_FRAMES):
            core.allocate()
        self.cpu = CPU(core, CostModel(), RingMode.HARDWARE_6180, PAGE,
                       meters=self.services.meters)
        self.ptws = [PTW(in_core=True, frame=1 + i) for i in range(N_PTWS)]
        self.procs = [self._process(i) for i in range(N_PROCS)]
        #: AM counts of destroyed processes: the old ``_am_retired``.
        self.retired = dict.fromkeys(AM_COUNTERS, 0)
        self.gates = GateTable(services, services.audit)
        self.gates.register(Gate(ORACLE_GATE, "oracle", oracle_gate,
                                 ("int",)))
        self.dispatch = InProcessDispatch(
            services.interrupts, services.scheduler, services.config.costs)
        self.dispatch.register(STEAL_LINE, steal_handler)
        self.segment = services.ast.activate(uid=SEGMENT_UID,
                                             n_pages=SEGMENT_PAGES)
        #: pid -> the channel its body waits on, once admitted.
        self.channels: dict = {}

    def serve(self, process: Process, site: str, arg: int) -> None:
        """Have ``process``'s body make one charge through ``site``: the
        scheduler's ``Charge`` (``sched_charge``), page control's
        discrete-event fault (``fault``), or an interrupt whose handler
        runs in it (``steal``)."""
        services = self.services
        scheduler = services.scheduler
        channel = self.channels.get(process.pid)
        if channel is None:
            channel = scheduler.create_channel(f"oracle.{process.pid}")
            self.channels[process.pid] = channel
            page_control, segment = services.page_control, self.segment
            interrupts = services.interrupts

            def body(proc):
                while True:
                    site, arg = yield Block(channel)
                    if site == "sched_charge":
                        yield Charge(arg)
                    elif site == "fault":
                        yield from page_control.fault(proc, segment, arg)
                    else:
                        interrupts.raise_line(STEAL_LINE, arg)

            process.body = body
            scheduler.add_process(process)
        scheduler.send_wakeup(channel, (site, arg))
        services.sim.run()

    def _process(self, i: int) -> Process:
        """A process with a code segment and a one-page data segment
        shared through ``ptws[0]``, so ``move`` also stales what the
        CPU cached for it."""
        process = Process(f"oracle{i}")
        process.dseg.add(SDW(segno=CODE_SEGNO, access=AccessMode.RE,
                             brackets=user_brackets(RING), bound=1))
        process.dseg.add(SDW(segno=DATA_SEGNO, access=AccessMode.RW,
                             brackets=user_brackets(RING),
                             page_table=[self.ptws[0]],
                             bound=PAGE, uid=UIDS[0]))
        return process

    def run_program(self, process: Process, n_loads: int,
                    moved: bool) -> None:
        """Loads, a call and one store through the fast interpreter: its
        fetch-miss site and its batched-hit flush sites.  ``moved``
        first moves the data page to another frame, so what the AM
        cached for it fails its witness check."""
        if moved:
            data = self.ptws[0]
            data.place((data.frame or 0) % (N_FRAMES - 1) + 1)
        code = []
        for k in range(n_loads):
            code += [I(Op.LOAD, DATA_SEGNO, k), I(Op.POP)]
        callee = len(code) + 5
        code += [I(Op.CALL, CODE_SEGNO, callee, 0), I(Op.POP),
                 I(Op.PUSHI, 7), I(Op.STORE, DATA_SEGNO, n_loads),
                 I(Op.HALT),
                 I(Op.LOAD, DATA_SEGNO, 0), I(Op.RET)]
        process.code_segments[CODE_SEGNO] = CodeSegment(code, {})
        try:
            self.cpu.execute(process, CODE_SEGNO)
        except ReproError:
            pass  # a contained fault still flushes its counters

    def apply(self, op: tuple) -> None:
        name, *args = op
        services, meters = self.services, self.services.meters
        if name == "move":
            ptw, frame = self.ptws[args[0]], args[1]
            if frame is None:
                ptw.evict()
            else:
                ptw.place(frame)
            return
        if name == "cam_uid":
            services.page_control.am_broadcast.cam_uid(*args)
            return
        process = self.procs[args[0]]
        am = process.dseg.am
        rest = args[1:]
        if name == "probe":
            am.probe(rest[0], rest[1], RING, rest[2], rest[3])
        elif name == "fetch_probe":
            am.fetch_probe(rest[0], RING)
        elif name == "insert":
            segno, pageno, intent, index, bound, uid = rest
            ptw = self.ptws[index]
            frame = ptw.frame if ptw.frame is not None else 1 + index
            am.insert(segno, pageno, RING, intent, frame, ptw, bound, uid)
        elif name == "fetch_insert":
            am.fetch_insert(rest[0], RING, rest[1])
        elif name == "invalidate_segno":
            am.invalidate_segno(rest[0])
        elif name == "invalidate_uid":
            am.invalidate_uid(rest[0], rest[1])
        elif name == "cam":
            am.cam()
        elif name == "track":
            services._track(process)
        elif name == "drop":
            tracked = process.pid in services._procs
            services.drop_pstate(process)
            if tracked:
                for attr in AM_COUNTERS:
                    self.retired[attr] += getattr(am, attr)
        elif name == "run":
            self.run_program(process, *rest)
        elif name == "note_gate":
            meters.note_gate(process, *rest)
        elif name == "note_gate_denied":
            meters.note_gate_denied(process, rest[0])
        elif name == "note_execution":
            meters.note_execution(process, *rest)
        elif name == "charge":
            process.cpu_cycles += rest[0]
            process.fault_wait_cycles += rest[1]
        elif name == "fold":
            meters.fold(process)
        elif name == "refold":
            # Fold, then a gate entry that tracks the process again.
            meters.fold(process)
            meters.note_gate(process, *rest)
        elif name == "gate_call":
            outcome = GATE_OUTCOMES.index(rest[0])
            args = ("many", "args") if rest[0] == "bad_args" else (outcome,)
            try:
                self.gates.call(process, ORACLE_GATE, *args)
            except ReproError:
                pass  # refused after the charge, as a real denial is
        elif name in ("sched_charge", "fault", "steal"):
            self.serve(process, name, rest[0])
        else:  # pragma: no cover - the strategy is closed
            raise AssertionError(f"unknown op {name}")


PROC = st.integers(0, N_PROCS - 1)
SEGNO = st.sampled_from(SEGNOS)
PAGENO = st.integers(0, 2)
INTENT = st.sampled_from([Intent.READ, Intent.WRITE])
UID = st.sampled_from(UIDS)
MAYBE_UID = st.none() | UID
MAYBE_PAGENO = st.none() | PAGENO
CYCLES = st.integers(0, 100)

OPS = st.one_of(
    st.tuples(st.just("probe"), PROC, SEGNO, PAGENO, INTENT,
              st.integers(0, 40)),
    st.tuples(st.just("fetch_probe"), PROC, SEGNO),
    st.tuples(st.just("insert"), PROC, SEGNO, PAGENO, INTENT,
              st.integers(0, N_PTWS - 1), st.integers(1, 40), MAYBE_UID),
    st.tuples(st.just("fetch_insert"), PROC, SEGNO, MAYBE_UID),
    st.tuples(st.just("move"), st.integers(0, N_PTWS - 1),
              st.none() | st.integers(1, N_FRAMES - 1)),
    st.tuples(st.just("invalidate_segno"), PROC, SEGNO),
    st.tuples(st.just("invalidate_uid"), PROC, UID, MAYBE_PAGENO),
    st.tuples(st.just("cam"), PROC),
    st.tuples(st.just("cam_uid"), UID, MAYBE_PAGENO),
    st.tuples(st.just("track"), PROC),
    st.tuples(st.just("drop"), PROC),
    st.tuples(st.just("run"), PROC, st.integers(1, 6), st.booleans()),
    st.tuples(st.just("note_gate"), PROC, st.sampled_from(GATES), CYCLES,
              st.booleans()),
    st.tuples(st.just("note_gate_denied"), PROC, st.sampled_from(GATES)),
    st.tuples(st.just("note_execution"), PROC, CYCLES, CYCLES, CYCLES,
              st.integers(0, 3)),
    st.tuples(st.just("charge"), PROC, CYCLES, CYCLES),
    st.tuples(st.just("fold"), PROC),
    st.tuples(st.just("refold"), PROC, st.sampled_from(GATES), CYCLES,
              st.booleans()),
    st.tuples(st.just("gate_call"), PROC, st.sampled_from(GATE_OUTCOMES)),
    st.tuples(st.just("sched_charge"), PROC, CYCLES),
    st.tuples(st.just("fault"), PROC, st.integers(0, SEGMENT_PAGES - 1)),
    st.tuples(st.just("steal"), PROC, CYCLES),
)


class TestOracle:
    # No shrink phase: a failure already names its step and operation,
    # and shrinking a sequence this long takes minutes.
    @given(st.lists(OPS, min_size=20, max_size=80))
    @settings(max_examples=100, derandomize=True, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_sources_equal_population_sums(self, ops):
        rig = Rig()
        for step, op in enumerate(ops):
            rig.apply(op)
            want = population_sums(rig.services, rig.retired)
            got = source_values(rig.services)
            assert got == want, f"after step {step} {op}"
            assert (rig.services.meters._total
                    == bucket_sum(rig.services.meters)), (
                f"after step {step} {op}")

    def test_fixed_sequence_moves_every_source(self):
        """A fixed walk through the mirrored paths leaves every source
        nonzero, so the oracle's equalities are not vacuous."""
        rig = Rig()
        for op in [("track", 0), ("track", 1), ("run", 0, 3, False),
                   ("insert", 1, DATA_SEGNO, 0, Intent.READ, 0, 16,
                    UIDS[1]),
                   ("probe", 1, DATA_SEGNO, 0, Intent.READ, 2),
                   ("move", 0, 3),
                   ("probe", 1, DATA_SEGNO, 0, Intent.READ, 2),
                   ("cam_uid", UIDS[0], None), ("cam", 1),
                   ("note_gate", 2, GATES[0], 30, True),
                   ("note_gate_denied", 2, GATES[1]),
                   ("charge", 2, 40, 9), ("drop", 0), ("drop", 2)]:
            rig.apply(op)
            assert (source_values(rig.services)
                    == population_sums(rig.services, rig.retired))
        values = source_values(rig.services)
        assert all(values[name] for name in SOURCES
                   if name not in ("meter.gate_denials", "am.entries"))
        assert values["meter.gate_denials"] == 1
        assert values["am.entries"] == 0  # both tracked AMs cammed

    def test_every_real_site_reaches_the_total(self):
        """A fixed walk through each real charging site, and a fold
        followed by a gate entry: every step but the fold moves the
        attributed cycles, and the sources equal the population sums
        throughout."""
        rig = Rig()
        p0 = rig.procs[0]
        before = source_values(rig.services)["meter.attributed_cycles"]
        for op in [("gate_call", 0, "granted"), ("gate_call", 1, "denied"),
                   ("gate_call", 2, "bad_args"), ("sched_charge", 0, 30),
                   ("fault", 1, 3), ("steal", 2, 25), ("fold", 0),
                   ("refold", 0, GATES[0], 12, True),
                   ("sched_charge", 0, 7)]:
            rig.apply(op)
            values = source_values(rig.services)
            assert values == population_sums(rig.services, rig.retired), op
            moved = values["meter.attributed_cycles"] - before
            assert moved == 0 if op[0] == "fold" else moved > 0, op
            before = values["meter.attributed_cycles"]
        assert p0.pid in rig.services.meters._live  # the refold tracked it
        assert rig.procs[1].fault_wait_cycles > 0
        assert rig.dispatch.stolen_cycles >= 25
        assert rig.gates.calls == 3


# ---------------------------------------------------------------------------
# the golden: the login_storm configuration, byte for byte
# ---------------------------------------------------------------------------

#: E20's timeline spec, as the login_storm benchmark runs it.
STORM_TIMELINE = {
    "interval": 10_000,
    "capacity": 1024,
    "rules": [
        {"name": "capacity", "kind": "gauge_floor",
         "metric": "smp.cpus", "min": 2},
        {"name": "no_job_failures", "kind": "rate_ceiling",
         "metric": "smp.jobs_failed", "max": 0},
        {"name": "audit_complete", "kind": "rate_ceiling",
         "metric": "audit.dropped", "max": 0},
    ],
}


def storm_system(n_users: int):
    """A booted system in the login_storm configuration after ``n_users``
    shell-only users have arrived in 32-login bursts."""
    system = MulticsSystem(kernel_config(
        page_size=16, core_frames=16384, bulk_frames=32768,
        disk_frames=65536, audit_level="deny", timeline=STORM_TIMELINE,
    )).boot()
    driver = WorkloadDriver(system, n_cpus=2, batch_size=32, seed_words=8)
    driver.run(generate_population(
        n_users, seed=1975, mix={"shell": 1.0}, process="bursty",
        burst_size=32, mean_lull=2_000.0,
    ))
    return system


def digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


class TestGolden:
    #: Recorded from the population-sum sources, before the totals.
    SNAPSHOT = ("0ac25756b5ab1543ce1a9fcbc4e0e2010af93a452de5a8cbfc3"
                "9be28758ab05c")
    TIMELINE = ("f1d13257982004c21215f5dddcbec1e454f1b54ea3580019c91"
                "3887818f6c776")

    def test_storm_with_logouts_is_byte_identical(self):
        system = storm_system(600)
        listener = system.listener
        for session_id in sorted(listener.sessions)[::3]:
            listener.logout(session_id)
        system.services.timeline.poll(force=True)
        snapshot = system.metrics.snapshot()
        assert snapshot["counters"]["am.cams"] > 200  # the logouts cammed
        assert digest(snapshot) == self.SNAPSHOT
        assert digest(system.services.timeline_document()) == self.TIMELINE


# ---------------------------------------------------------------------------
# the scaling guard
# ---------------------------------------------------------------------------

class Unwalkable(dict):
    """A table that may be indexed and sized but never walked."""

    def _walk(self, *args):
        raise AssertionError("a metric source walked the population")

    __iter__ = keys = values = items = _walk


class TestScalingGuard:
    def test_reads_never_walk_the_population(self):
        system = storm_system(300)
        services = system.services
        assert len(services._procs) >= 300
        assert len(services.meters._buckets) >= 300
        assert len(services.meters._live) >= 300
        services._procs = Unwalkable(services._procs)
        services.meters._buckets = Unwalkable(services.meters._buckets)
        services.meters._live = Unwalkable(services.meters._live)
        system.clock.advance(1)  # something new for the forced sample
        assert validate_snapshot(system.metrics.snapshot()) == []
        assert services.timeline.poll(force=True)
