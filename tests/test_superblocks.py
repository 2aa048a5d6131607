"""Oracles for the interpreter's superblocks (``CPU.stepper``).

A block runs only when its whole cost fits before the cycle target, so
a target one cycle ahead can never fit one: driving the stepper that
way single-steps every instruction.  That is the reference here — no
switch selects a path.  Each oracle runs one program twice, once as
:meth:`CPU.execute` (or with coarse targets) lets blocks run and once
one cycle at a time, and requires the same outcome, every CPU and AM
counter, every core word and every PTW bit:

* the four workload profiles, with the instruction budget swept across
  their first loop iterations, so ``ExecutionLimit`` lands inside
  blocks;
* the same profiles under seeded random targets, recording and then
  clearing the PTW used/modified bits at every yield as a replacement
  sweep does, with a tiny FIFO pager evicting under the blocks;
* a parity error injected on the k-th core read, which lands inside a
  block partway through it.

The random-program version of the first oracle is in
``tests/test_properties.py``.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque

import pytest

from repro.config import CostModel, RingMode
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.assoc import AssociativeMemory
from repro.hw.cpu import CPU, CodeSegment, ExecutionLimit
from repro.hw.memory import MemoryLevel
from repro.workloads.profiles import PROFILES, build_program

from tests.test_hw_cpu import PAGE, Ctx

#: Frames the pager may use for the profiles' data pages: fewer than
#: the paging profile touches, so it evicts under running blocks.
DATA_FRAMES = 3


class Pager:
    """FIFO page-in over a few frames, with a backing store, charging a
    stall per fault (the stepper must pick the stall up mid-run)."""

    def __init__(self) -> None:
        self.resident: deque = deque()
        self.backing: dict = {}
        self.cpu: CPU | None = None

    def __call__(self, ctx, segno: int, pageno: int) -> None:
        core = self.cpu.core
        ptw = ctx.dseg.get(segno).page_table[pageno]
        if core.free_count:
            frame = core.allocate()
        else:
            key, old = self.resident.popleft()
            frame = old.frame
            self.backing[key] = core.raw_page(frame)
            old.evict()
        core.write_page(frame, self.backing.get((segno, pageno), [0] * PAGE))
        ptw.place(frame)
        self.resident.append(((segno, pageno), ptw))
        self.cpu.stall(7)


@functools.cache
def profile_code(name: str) -> CodeSegment:
    """One shared image per profile, as the workload driver shares one
    per program (its blocks compile once)."""
    obj = build_program(PROFILES[name], 2, PAGE)
    return CodeSegment(obj.code, dict(obj.definitions))


def profile_world(name: str, private_am: bool = False,
                  parity_at: int | None = None) -> tuple[CPU, Ctx]:
    """One workload profile's program over its data segment, whose
    page 0 starts resident and filled."""
    profile = PROFILES[name]
    ctx = Ctx()
    ctx.add_code(1, [])
    ctx.codes[1] = profile_code(name)
    ptws = ctx.add_data(2, n_pages=profile.data_pages, in_core=False)
    injector = None
    if parity_at is not None:
        injector = FaultInjector(FaultPlan(
            [FaultSpec("memory.core.read", "parity", at_ops=(parity_at,))],
            seed=0,
        ))
    pager = Pager()
    cpu = CPU(
        MemoryLevel("core", DATA_FRAMES, 1, PAGE, injector=injector),
        CostModel(), RingMode.HARDWARE_6180, PAGE,
        on_missing_page=pager,
        private_am=AssociativeMemory() if private_am else None,
    )
    pager.cpu = cpu
    frame = cpu.core.allocate()
    cpu.core.write_page(frame, [(7 * k) % 31 + 1 for k in range(PAGE)])
    ptws[0].place(frame)
    pager.resident.append(((2, 0), ptws[0]))
    return cpu, ctx


def fingerprint(cpu: CPU, ctx) -> dict:
    """Everything a run leaves behind that a reader could observe."""
    am = cpu.private_am if cpu.private_am is not None else ctx.dseg.am
    return {
        "cpu": (cpu.cycles, cpu.stall_cycles, cpu.instructions_executed,
                cpu.am_hit_cycles, cpu.walk_cycles, cpu.calls_in_ring,
                cpu.calls_cross_ring),
        "am": (am.hits, am.misses, am.invalidations, am.cams,
               am.capacity_evictions, len(am)),
        "core": [cpu.core.raw_page(i) for i in range(cpu.core.n_frames)],
        "ptws": ptw_bits(ctx),
    }


def ptw_bits(ctx) -> list:
    return [(sdw.segno, [(p.in_core, p.frame, p.used, p.modified)
                         for p in sdw.page_table])
            for sdw in ctx.dseg]


def clear_ptw_bits(ctx) -> None:
    for sdw in ctx.dseg:
        for ptw in sdw.page_table:
            ptw.used = ptw.modified = False


def outcome_of(thunk) -> tuple:
    """("ok", value) or (exception name, message)."""
    try:
        return "ok", thunk()
    except AssertionError:
        raise
    except Exception as exc:
        return type(exc).__name__, str(exc)


def run_free(cpu: CPU, ctx, args=(), max_instructions=1_000_000) -> tuple:
    """``CPU.execute``: no target, so blocks run wherever they may."""
    return outcome_of(
        lambda: cpu.execute(ctx, 1, 0, list(args), max_instructions))


def run_stepped(cpu: CPU, ctx, deltas, one_cycle: bool,
                on_yield=None, args=(),
                max_instructions=1_000_000) -> tuple:
    """Drive the stepper to targets ``now + delta`` in turn, calling
    ``on_yield`` at each.  With ``one_cycle`` every target is reached
    by sends one cycle ahead, each of which must run exactly one
    instruction."""

    def drive():
        gen = cpu.stepper(ctx, 1, 0, list(args), max_instructions)
        try:
            next(gen)
            for delta in deltas:
                target = cpu.cycles + cpu.stall_cycles + delta
                if not one_cycle:
                    gen.send(target)
                while one_cycle and cpu.cycles + cpu.stall_cycles < target:
                    before = cpu.instructions_executed
                    gen.send(cpu.cycles + cpu.stall_cycles + 1)
                    assert cpu.instructions_executed == before + 1, (
                        "a one-cycle send ran "
                        f"{cpu.instructions_executed - before} instructions"
                    )
                if on_yield is not None:
                    on_yield()
        except StopIteration as stop:
            return stop.value
        raise AssertionError("the program outran its targets")

    return outcome_of(drive)


def one_cycle(cpu: CPU, ctx, **kwargs) -> tuple:
    return run_stepped(cpu, ctx, itertools.repeat(1), True, **kwargs)


PROFILE_NAMES = sorted(PROFILES)


class TestBudgetSweep:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_execution_limit_lands_on_the_same_instruction(self, name):
        limited = 0
        for budget in range(1, 121):
            cpu_b, ctx_b = profile_world(name)
            got = run_free(cpu_b, ctx_b, max_instructions=budget)
            cpu_s, ctx_s = profile_world(name)
            want = one_cycle(cpu_s, ctx_s, max_instructions=budget)
            assert got == want, budget
            assert fingerprint(cpu_b, ctx_b) == fingerprint(cpu_s, ctx_s), \
                budget
            if got[0] == ExecutionLimit.__name__:
                limited += 1
                assert cpu_b.instructions_executed == budget
        assert limited == 120


class TestRandomTargets:
    @pytest.mark.parametrize("private_am", [False, True],
                             ids=["process_am", "cpu_am"])
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_yields_match_one_cycle_stepping(self, name, private_am):
        for seed in range(3):
            runs = []
            for single in (False, True):
                cpu, ctx = profile_world(name, private_am=private_am)
                records = []

                def on_yield(cpu=cpu, ctx=ctx, records=records):
                    # What a replacement sweep samples, then resets.
                    records.append((cpu.cycles, cpu.stall_cycles,
                                    cpu.instructions_executed, ptw_bits(ctx)))
                    clear_ptw_bits(ctx)

                rng = random.Random(f"{name}|{seed}")
                deltas = iter(lambda: rng.randint(1, 60), None)
                result = run_stepped(cpu, ctx, deltas, single,
                                     on_yield=on_yield)
                runs.append((result, records, fingerprint(cpu, ctx)))
            assert runs[0][0][0] == "ok"
            assert len(runs[0][1]) > 20
            assert runs[0] == runs[1], (name, seed)


class TestParityInsideBlocks:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_counters_match_at_every_read(self, name):
        faulted = 0
        for k in range(1, 40):
            cpu_b, ctx_b = profile_world(name, parity_at=k)
            got = run_free(cpu_b, ctx_b)
            cpu_s, ctx_s = profile_world(name, parity_at=k)
            want = one_cycle(cpu_s, ctx_s)
            assert got == want, k
            assert fingerprint(cpu_b, ctx_b) == fingerprint(cpu_s, ctx_s), k
            faulted += got[0] == "ParityError"
        # One read per loop iteration: every injection that has a read
        # to land on must fault the job.
        assert faulted == min(39, PROFILES[name].iters)
