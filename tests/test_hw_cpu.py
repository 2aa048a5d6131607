"""Direct tests of the simulated CPU: execution, enforcement, faults."""

import pytest

from repro.config import CostModel, RingMode
from repro.errors import (
    AccessViolation,
    BoundsViolation,
    GateViolation,
    IllegalInstruction,
)
from repro.hw.cpu import (
    CPU,
    CodeSegment,
    ExecutionLimit,
    Instruction as I,
    Link,
    LinkageFault,
    Op,
)
from repro.hw.memory import MemoryLevel
from repro.hw.rings import kernel_gate_brackets, user_brackets
from repro.hw.segmentation import SDW, PTW, AccessMode, DescriptorSegment

PAGE = 16


class Ctx:
    """A minimal machine context for direct CPU tests."""

    def __init__(self, ring=4):
        self.dseg = DescriptorSegment()
        self.ring = ring
        self.codes = {}
        self.links = []

    def add_code(self, segno, instructions, brackets=None, gates=None,
                 entry_points=None):
        self.dseg.add(
            SDW(segno=segno, access=AccessMode.RE,
                brackets=brackets or user_brackets(4),
                page_table=[], bound=1, gates=gates)
        )
        self.codes[segno] = CodeSegment(list(instructions), entry_points or {})

    def add_data(self, segno, n_pages=1, access=AccessMode.RW, brackets=None,
                 in_core=True):
        ptws = [PTW() for _ in range(n_pages)]
        if in_core:
            for i, ptw in enumerate(ptws):
                ptw.place(i)
        self.dseg.add(
            SDW(segno=segno, access=access,
                brackets=brackets or user_brackets(4),
                page_table=ptws, bound=n_pages * PAGE)
        )
        return ptws

    def code_segment(self, segno):
        return self.codes[segno]

    def linkage(self):
        return self.links

    def stack_limit(self):
        return 4096


def make_cpu(core_frames=4, ring_mode=RingMode.HARDWARE_6180, **kwargs):
    return CPU(
        MemoryLevel("core", core_frames, 1, PAGE),
        CostModel(),
        ring_mode,
        PAGE,
        **kwargs,
    )


def run(instructions, args=None, ctx=None, cpu=None):
    ctx = ctx or Ctx()
    ctx.add_code(1, instructions)
    cpu = cpu or make_cpu()
    return cpu.execute(ctx, 1, 0, args or [])


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Op.ADD, 2, 3, 5),
            (Op.SUB, 7, 3, 4),
            (Op.MUL, 4, 5, 20),
            (Op.DIV, 17, 5, 3),
            (Op.DIV, -17, 5, -3),   # truncation toward zero
            (Op.MOD, 17, 5, 2),
            (Op.MOD, -17, 5, -2),
            (Op.EQ, 3, 3, 1),
            (Op.NE, 3, 3, 0),
            (Op.LT, 2, 3, 1),
            (Op.LE, 3, 3, 1),
            (Op.GT, 3, 2, 1),
            (Op.GE, 2, 3, 0),
        ],
    )
    def test_binops(self, op, a, b, expected):
        assert run([I(Op.PUSHI, a), I(Op.PUSHI, b), I(op), I(Op.HALT)]) == expected

    def test_neg_not_dup_pop_swap(self):
        assert run([I(Op.PUSHI, 5), I(Op.NEG), I(Op.HALT)]) == -5
        assert run([I(Op.PUSHI, 0), I(Op.NOT), I(Op.HALT)]) == 1
        assert run([I(Op.PUSHI, 3), I(Op.DUP), I(Op.ADD), I(Op.HALT)]) == 6
        assert run([I(Op.PUSHI, 1), I(Op.PUSHI, 2), I(Op.POP), I(Op.HALT)]) == 1
        assert run(
            [I(Op.PUSHI, 1), I(Op.PUSHI, 2), I(Op.SWAP), I(Op.SUB), I(Op.HALT)]
        ) == 1

    def test_division_by_zero(self):
        with pytest.raises(IllegalInstruction):
            run([I(Op.PUSHI, 1), I(Op.PUSHI, 0), I(Op.DIV), I(Op.HALT)])

    def test_stack_underflow(self):
        with pytest.raises(IllegalInstruction, match="underflow"):
            run([I(Op.ADD), I(Op.HALT)])

    @pytest.mark.parametrize("program", [
        [I(Op.DUP), I(Op.RET)],
        [I(Op.SWAP), I(Op.RET)],
        [I(Op.PUSHI, 1), I(Op.SWAP), I(Op.RET)],
    ])
    def test_dup_and_swap_underflow_is_an_illegal_instruction(self, program):
        with pytest.raises(IllegalInstruction,
                           match="operand stack underflow"):
            run(program)


class TestControlFlow:
    def test_jumps(self):
        # if top == 0 jump to PUSHI 100
        prog = [
            I(Op.PUSHI, 0), I(Op.JZ, 4),
            I(Op.PUSHI, 1), I(Op.HALT),
            I(Op.PUSHI, 100), I(Op.HALT),
        ]
        assert run(prog) == 100

    def test_loop_sums(self):
        # sum 1..5 using frame slots: slot0 = i, slot1 = acc
        prog = [
            I(Op.PUSHI, 5), I(Op.STOREF, 0),
            I(Op.PUSHI, 0), I(Op.STOREF, 1),
            # loop:
            I(Op.LOADF, 0), I(Op.JZ, 15),
            I(Op.LOADF, 1), I(Op.LOADF, 0), I(Op.ADD), I(Op.STOREF, 1),
            I(Op.LOADF, 0), I(Op.PUSHI, 1), I(Op.SUB), I(Op.STOREF, 0),
            I(Op.JMP, 4),
            I(Op.LOADF, 1), I(Op.HALT),
        ]
        assert run(prog) == 15

    def test_args_in_frame(self):
        assert run([I(Op.LOADF, 0), I(Op.LOADF, 1), I(Op.SUB), I(Op.RET)],
                   args=[10, 4]) == 6

    def test_uninitialized_slot_rejected(self):
        with pytest.raises(IllegalInstruction):
            run([I(Op.LOADF, 3), I(Op.HALT)])

    def test_pc_out_of_range(self):
        with pytest.raises(IllegalInstruction):
            run([I(Op.PUSHI, 1)])  # falls off the end

    def test_execution_limit(self):
        with pytest.raises(ExecutionLimit):
            ctx = Ctx()
            ctx.add_code(1, [I(Op.JMP, 0)])
            make_cpu().execute(ctx, 1, 0, max_instructions=100)


class TestMemoryAccess:
    def test_load_store(self):
        ctx = Ctx()
        ctx.add_data(2)
        cpu = make_cpu()
        cpu.core.allocate()  # frame 0 backs page 0
        prog = [
            I(Op.PUSHI, 77), I(Op.STORE, 2, 3),
            I(Op.LOAD, 2, 3), I(Op.HALT),
        ]
        assert run(prog, ctx=ctx, cpu=cpu) == 77

    def test_indexed_load_store(self):
        ctx = Ctx()
        ctx.add_data(2)
        cpu = make_cpu()
        cpu.core.allocate()
        prog = [
            I(Op.PUSHI, 55), I(Op.PUSHI, 7), I(Op.STOREI, 2),
            I(Op.PUSHI, 7), I(Op.LOADI, 2), I(Op.HALT),
        ]
        assert run(prog, ctx=ctx, cpu=cpu) == 55

    def test_bounds_violation(self):
        ctx = Ctx()
        ctx.add_data(2, n_pages=1)
        with pytest.raises(BoundsViolation):
            run([I(Op.LOAD, 2, PAGE + 1), I(Op.HALT)], ctx=ctx)

    def test_write_to_readonly_segment_denied(self):
        ctx = Ctx()
        ctx.add_data(2, access=AccessMode.R)
        with pytest.raises(AccessViolation):
            run([I(Op.PUSHI, 1), I(Op.STORE, 2, 0), I(Op.HALT)], ctx=ctx)

    def test_missing_page_serviced_by_callback(self):
        serviced = []

        def service(ctx, segno, pageno):
            ptws[pageno].place(cpu.core.allocate())
            serviced.append((segno, pageno))

        ctx = Ctx()
        ptws = ctx.add_data(2, in_core=False)
        cpu = make_cpu(on_missing_page=service)
        assert run([I(Op.LOAD, 2, 0), I(Op.HALT)], ctx=ctx, cpu=cpu) == 0
        assert serviced == [(2, 0)]

    def test_missing_page_without_handler_propagates(self):
        from repro.errors import MissingPageFault

        ctx = Ctx()
        ctx.add_data(2, in_core=False)
        with pytest.raises(MissingPageFault):
            run([I(Op.LOAD, 2, 0), I(Op.HALT)], ctx=ctx)


class TestCallsAndRings:
    def test_static_call_and_return(self):
        ctx = Ctx()
        ctx.add_code(2, [I(Op.LOADF, 0), I(Op.PUSHI, 1), I(Op.ADD), I(Op.RET)])
        prog = [I(Op.PUSHI, 41), I(Op.CALL, 2, 0, 1), I(Op.RET)]
        assert run(prog, ctx=ctx) == 42

    def test_gate_call_switches_ring_and_returns(self):
        ctx = Ctx()
        # A ring-0 segment with a gate at offset 0.
        ctx.add_code(2, [I(Op.PUSHI, 9), I(Op.RET)],
                     brackets=kernel_gate_brackets(), gates=frozenset({0}))
        prog = [I(Op.CALL, 2, 0, 0), I(Op.RET)]
        assert run(prog, ctx=ctx) == 9
        assert ctx.ring == 4  # restored on return

    def test_inward_call_off_gate_rejected(self):
        ctx = Ctx()
        ctx.add_code(2, [I(Op.PUSHI, 9), I(Op.RET), I(Op.PUSHI, 666), I(Op.RET)],
                     brackets=kernel_gate_brackets(), gates=frozenset({0}))
        prog = [I(Op.CALL, 2, 2, 0), I(Op.RET)]  # offset 2 is not a gate
        with pytest.raises(GateViolation):
            run(prog, ctx=ctx)

    def test_ring_cost_counted(self):
        for mode, expect_ratio in ((RingMode.SOFTWARE_645, 10),
                                   (RingMode.HARDWARE_6180, 1)):
            ctx = Ctx()
            ctx.add_code(2, [I(Op.PUSHI, 1), I(Op.RET)],
                         brackets=kernel_gate_brackets(),
                         gates=frozenset({0}))
            cpu = make_cpu(ring_mode=mode)
            run([I(Op.CALL, 2, 0, 0), I(Op.RET)], ctx=ctx, cpu=cpu)
            assert cpu.calls_cross_ring == 1
            if mode is RingMode.SOFTWARE_645:
                assert cpu.cycles > 400

    def test_fetch_check_on_nonexecutable(self):
        ctx = Ctx()
        ctx.dseg.add(SDW(segno=1, access=AccessMode.RW,
                         brackets=user_brackets(4), page_table=[], bound=1))
        ctx.codes[1] = CodeSegment([I(Op.HALT)], {})
        with pytest.raises(AccessViolation):
            make_cpu().execute(ctx, 1, 0)


class TestLinkage:
    def test_snapped_link_call(self):
        ctx = Ctx()
        ctx.add_code(2, [I(Op.PUSHI, 5), I(Op.RET)])
        ctx.links = [Link("lib$f", snapped=True, segno=2, offset=0)]
        assert run([I(Op.CALLL, 0, 0), I(Op.RET)], ctx=ctx) == 5

    def test_unsnapped_link_invokes_handler(self):
        ctx = Ctx()
        ctx.add_code(2, [I(Op.PUSHI, 5), I(Op.RET)])
        ctx.links = [Link("lib$f")]

        def snap(c, index):
            link = c.linkage()[index]
            link.snapped, link.segno, link.offset = True, 2, 0

        cpu = make_cpu(on_linkage_fault=snap)
        assert run([I(Op.CALLL, 0, 0), I(Op.RET)], ctx=ctx, cpu=cpu) == 5

    def test_unsnapped_without_handler_faults(self):
        ctx = Ctx()
        ctx.links = [Link("lib$f")]
        with pytest.raises(LinkageFault):
            run([I(Op.CALLL, 0, 0), I(Op.RET)], ctx=ctx)

    def test_handler_failing_to_snap_faults(self):
        ctx = Ctx()
        ctx.links = [Link("lib$f")]
        cpu = make_cpu(on_linkage_fault=lambda c, i: None)
        with pytest.raises(LinkageFault):
            run([I(Op.CALLL, 0, 0), I(Op.RET)], ctx=ctx, cpu=cpu)

    def test_bad_link_index(self):
        ctx = Ctx()
        with pytest.raises(IllegalInstruction):
            run([I(Op.CALLL, 5, 0), I(Op.RET)], ctx=ctx)


class TestRingRestoredOnEveryExit:
    """An execution that ends inside a call gives the caller its ring
    back: the next gate call must be judged from the caller's ring, not
    the callee's."""

    @staticmethod
    def gate_world(gate_code):
        ctx = Ctx()
        ctx.add_code(1, [I(Op.CALL, 2, 0, 0), I(Op.RET)])
        ctx.add_code(2, gate_code, brackets=kernel_gate_brackets(),
                     gates=frozenset({0}))
        return ctx, make_cpu()

    def test_fault_inside_the_gate(self):
        ctx, cpu = self.gate_world(
            [I(Op.PUSHI, 1), I(Op.PUSHI, 0), I(Op.DIV), I(Op.RET)])
        with pytest.raises(IllegalInstruction, match="division by zero"):
            cpu.execute(ctx, 1, 0)
        assert ctx.ring == 4

    def test_halt_inside_the_gate(self):
        ctx, cpu = self.gate_world([I(Op.PUSHI, 5), I(Op.HALT)])
        assert cpu.execute(ctx, 1, 0) == 5
        assert ctx.ring == 4

    def test_close_while_parked_inside_the_gate(self):
        # A loop in the gate, so the runner parks there at its target.
        ctx, cpu = self.gate_world(
            [I(Op.PUSHI, 0), I(Op.POP), I(Op.JMP, 0)])
        runner = cpu.stepper(ctx, 1, 0)
        next(runner)
        runner.send(cpu.cycles + 50)
        assert ctx.ring == 0
        runner.close()
        assert ctx.ring == 4
