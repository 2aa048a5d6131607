"""An abstract CPU for the simulated 6180.

The CPU executes a small stack-machine instruction set.  It is not a
cycle-accurate 6180; it exists so that the protection architecture is
*enforced on a real execution path*: every operand reference goes
through :func:`repro.hw.segmentation.translate` (rings + bounds +
paging), every transfer of control through a CALL is validated by
:func:`repro.hw.rings.call_check` (gate discipline), and every call is
charged the ring-crossing cost of the configured machine (645 software
rings vs 6180 hardware rings — experiment E4).

Instructions live in code segments as a Python list (``SDW`` data pages
hold only *data* words); this keeps the simulation light while leaving
the protection semantics intact, because instruction fetch still
performs the FETCH access check against the code segment's SDW.
Straight-line runs and loops execute as compiled superblocks that make
the same per-reference checks as the translation's AM-hit path and stop
before anything else (:meth:`CPU.stepper`).

Dynamic linking: the ``CALLL`` instruction calls through a *linkage
section*.  An unsnapped link raises a linkage fault which the
environment resolves — in the kernel (legacy supervisor) or in the user
ring (security kernel), which is experiment E1's machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.config import CostModel, RingMode
from repro.errors import IllegalInstruction, MissingPageFault, ReproError
from repro.hw.assoc import AssociativeMemory, fetch_key
from repro.hw.memory import MemoryLevel
from repro.hw.rings import call_check, call_cost
from repro.hw.segmentation import (
    DescriptorSegment,
    Intent,
    check_access,
    translate,
)
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer


class Op(enum.Enum):
    """Stack-machine opcodes."""

    PUSHI = "pushi"    # push immediate
    LOAD = "load"      # push M[seg|off]
    STORE = "store"    # pop -> M[seg|off]
    LOADI = "loadi"    # pop off; push M[seg|off]
    STOREI = "storei"  # pop off, pop v; M[seg|off] = v
    LOADF = "loadf"    # push frame slot i (argument/local)
    STOREF = "storef"  # pop -> frame slot i
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    NOT = "not"
    JMP = "jmp"
    JZ = "jz"
    JNZ = "jnz"
    CALL = "call"      # static call: operands (segno, offset, nargs)
    CALLL = "calll"    # call through linkage-section slot: operands (index, nargs)
    RET = "ret"        # return; top of stack is the return value
    HALT = "halt"
    DUP = "dup"
    POP = "pop"
    SWAP = "swap"


@dataclass(frozen=True, slots=True)
class Instruction:
    op: Op
    a: int = 0
    b: int = 0
    c: int = 0

    def __repr__(self) -> str:
        return f"{self.op.value} {self.a} {self.b} {self.c}".rstrip(" 0") or self.op.value


@dataclass
class CodeSegment:
    """Executable image bound to a segment number.

    ``entry_points`` names the public entries (offset -> name) used by
    gates and by the linker's definitions section.

    The interpreter (:meth:`CPU.stepper`) caches a decoded form of
    ``instructions`` — plain ``(opcode, a, b, c)`` int tuples — on the
    segment, so a program shared by thousands of processes decodes
    once.  Beside it sits the block table (compiled runs and loops, per
    page size and entry pc).  Both are dropped whenever the
    instruction list is replaced or resized.
    """

    instructions: list[Instruction]
    entry_points: dict[str, int] = field(default_factory=dict)
    _decoded: list | None = field(default=None, repr=False, compare=False)
    _decoded_src: list | None = field(default=None, repr=False,
                                      compare=False)
    _blocks: dict | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instructions)


#: Op -> small-int opcode, in declaration order; the interpreter
#: dispatches on these instead of enum identity.
_OPCODE = {op: i for i, op in enumerate(Op)}

_PUSHI = _OPCODE[Op.PUSHI]
_LOAD = _OPCODE[Op.LOAD]
_STORE = _OPCODE[Op.STORE]
_LOADI = _OPCODE[Op.LOADI]
_STOREI = _OPCODE[Op.STOREI]
_LOADF = _OPCODE[Op.LOADF]
_STOREF = _OPCODE[Op.STOREF]
_ADD = _OPCODE[Op.ADD]
_SUB = _OPCODE[Op.SUB]
_MUL = _OPCODE[Op.MUL]
_DIV = _OPCODE[Op.DIV]
_MOD = _OPCODE[Op.MOD]
_NEG = _OPCODE[Op.NEG]
_EQ = _OPCODE[Op.EQ]
_NE = _OPCODE[Op.NE]
_LT = _OPCODE[Op.LT]
_LE = _OPCODE[Op.LE]
_GT = _OPCODE[Op.GT]
_GE = _OPCODE[Op.GE]
_NOT = _OPCODE[Op.NOT]
_JMP = _OPCODE[Op.JMP]
_JZ = _OPCODE[Op.JZ]
_JNZ = _OPCODE[Op.JNZ]
_CALL = _OPCODE[Op.CALL]
_CALLL = _OPCODE[Op.CALLL]
_RET = _OPCODE[Op.RET]
_HALT = _OPCODE[Op.HALT]
_DUP = _OPCODE[Op.DUP]
_POP = _OPCODE[Op.POP]
_SWAP = _OPCODE[Op.SWAP]


#: "No cycle target": the interpreter runs to completion.
_NO_TARGET = float("inf")


def _decoded_for(code: CodeSegment) -> list[tuple[int, int, int, int]]:
    """The decoded-instruction cache for ``code`` (build if stale)."""
    decoded = code._decoded
    if (decoded is None or code._decoded_src is not code.instructions
            or len(decoded) != len(code.instructions)):
        decoded = [(_OPCODE[i.op], i.a, i.b, i.c)
                   for i in code.instructions]
        code._decoded = decoded
        code._decoded_src = code.instructions
        code._blocks = None
    return decoded


# ---------------------------------------------------------------------------
# Superblocks: runs and loops compiled to one Python function each
# ---------------------------------------------------------------------------

#: Most instructions one block holds (in one pass, for a loop).
_BLOCK_CAP = 32

#: Block-table slot of a pc whose block has not been compiled yet.
_UNCOMPILED = object()

#: A block stops before these: they change frames or end the run.
_STOPS = frozenset({_CALL, _CALLL, _RET, _HALT})

_BRANCHES = frozenset({_JMP, _JZ, _JNZ})

#: Opcodes whose ``a`` operand the block formats into its source.
_USES_A = frozenset({_PUSHI, _LOAD, _STORE, _LOADI, _STOREI, _LOADF,
                     _STOREF, _JMP, _JZ, _JNZ})

#: Opcode -> (values popped, values pushed).
_STACK_EFFECT = {
    _PUSHI: (0, 1), _LOAD: (0, 1), _STORE: (1, 0), _LOADI: (1, 1),
    _STOREI: (2, 0), _LOADF: (0, 1), _STOREF: (1, 0), _NEG: (1, 1),
    _NOT: (1, 1), _JMP: (0, 0), _JZ: (1, 0), _JNZ: (1, 0),
    _DUP: (1, 2), _POP: (1, 0), _SWAP: (2, 2),
    **{op: (2, 1) for op in range(_ADD, _GE + 1) if op != _NEG},
}

#: Binary opcode -> the expression the single-step path evaluates.
_BINARY = {
    _ADD: "{l} + {r}", _SUB: "{l} - {r}", _MUL: "{l} * {r}",
    _EQ: "int({l} == {r})", _NE: "int({l} != {r})",
    _LT: "int({l} < {r})", _LE: "int({l} <= {r})",
    _GT: "int({l} > {r})", _GE: "int({l} >= {r})",
    _DIV: "int({l} / {r})", _MOD: "{l} - int({l} / {r}) * {r}",
}


class _Block:
    """One compiled run of a code segment: a single pass, or a loop.

    ``run(stack, slots, entries, ring, core_read, core_write, room,
    budget, fetch_inst, hit_core)`` executes it.  ``room`` is the
    cycles left before the target (infinite without one), ``budget``
    the instructions left, and the last two the prices of an executed
    instruction and of an AM-served reference.  It returns ``(pc, k,
    m)``: the next pc (>= 0) after a branch or the last instruction,
    or ``~pc`` of the instruction it stopped before (an AM miss, a
    failed witness, an offset that is negative or no int, a zero
    divisor), which the single-step path then runs; and the ``k``
    instructions and ``m`` references it ran, which the caller charges
    exactly as single-stepping them would have.

    A *loop* block ends with a ``JMP`` back to its own start and runs
    pass after pass.  The caller fits the first pass; before each later
    one the block makes the same two tests itself — the pass's cost up
    to its last instruction must leave the CPU short of the target and
    the budget must cover the pass — and returns its start when either
    fails.
    """

    __slots__ = ("run", "n", "depth", "max_slot", "tail_refs", "refs",
                 "loop", "_charged")

    def __init__(self, run, n: int, depth: int, max_slot: int,
                 tail_refs: int, refs: int, loop: bool,
                 charged: list) -> None:
        self.run = run
        #: Instructions in one pass.
        self.n = n
        #: Operand-stack values the block consumes from below its entry.
        self.depth = depth
        #: Highest frame slot the block reads or writes (-1: none).
        self.max_slot = max_slot
        #: References before a pass's last instruction, and in a pass.
        self.tail_refs = tail_refs
        self.refs = refs
        self.loop = loop
        #: Source line -> (instructions, references) of the pass that
        #: single-stepping would have charged when that line raises.
        self._charged = charged

    def charged(self, exc: BaseException) -> tuple[int, int]:
        """(instructions, references) to charge for a run that raised
        ``exc``: every completed pass, then every instruction of the
        current one up to and including the one whose line raised, and
        its reference only once the AM served it."""
        code = self.run.__code__
        tb = exc.__traceback__
        while tb.tb_frame.f_code is not code:
            tb = tb.tb_next
        k, m = self._charged[tb.tb_lineno]
        if self.loop:
            passes = tb.tb_frame.f_locals["c"]
            k += passes * self.n
            m += passes * self.refs
        return k, m


def _blocks_for(code: CodeSegment, page_size: int) -> list:
    """The block table of ``code`` for ``page_size``: one slot per pc.

    Call after :func:`_decoded_for`, which drops stale tables.
    """
    tables = code._blocks
    if tables is None:
        tables = code._blocks = {}
    table = tables.get(page_size)
    if table is None:
        table = tables[page_size] = [_UNCOMPILED] * len(code._decoded)
    return table


def _lit(value) -> str:
    return repr(value) if value >= 0 else f"({value})"


def _compile_block(decoded: list, start: int, page_size: int,
                   segno: int) -> _Block | None:
    """Compile the run at ``start``; None if a pass would hold fewer
    than two instructions.

    The run takes each ``JZ``/``JNZ`` as a side exit and goes on past
    it.  It ends at a ``JMP``, and stops before a call, return or halt,
    an operand that is not exactly ``int``, a negative frame slot or
    constant offset, a branch out of the segment, and
    :data:`_BLOCK_CAP` instructions.  A ``JMP`` back to ``start`` closes
    a loop when the run pops nothing from below its entry and leaves no
    value pending there, so every pass starts on the same operand stack.
    The operand stack becomes locals; only values below the block's
    entry are popped (all at once, on entry) and every exit pushes the
    pending values back.
    """
    n_inst = len(decoded)
    # Pass 1: the extent, the entry depth, the frame slots touched, the
    # references before each instruction, and whether the run loops.
    end = start
    height = low = 0
    max_slot = -1
    refs = [0]
    loop = False
    while end < n_inst and end - start < _BLOCK_CAP:
        op, a, b, _ = decoded[end]
        if op in _STOPS or (op in _USES_A and type(a) is not int):
            break
        if (op == _LOAD or op == _STORE) and (type(b) is not int or b < 0):
            break
        if op == _LOADF or op == _STOREF:
            if a < 0:
                break
            max_slot = max(max_slot, a)
        if op in _BRANCHES and not 0 <= a < n_inst:
            break
        pops, pushes = _STACK_EFFECT[op]
        height -= pops
        low = min(low, height)
        height += pushes
        refs.append(refs[-1] + (_LOAD <= op <= _STOREI))
        end += 1
        if op == _JMP:
            loop = a == start and low == 0 and height == 0
            break
    n = end - start
    if n < 2:
        return None
    depth = -low

    # Pass 2: the source.  ``sym`` is the pending operand stack (ints
    # are literals, strs are locals); ``charged[line]`` is what a raise
    # on that line costs within its pass.
    src = ["def block(stack, slots, entries, ring, core_read, core_write,"
           " room, budget, fetch_inst, hit_core):"]
    charged = [(0, 0), (0, 0)]
    sym: list = [f"s{i}" for i in range(depth)]
    for i in reversed(range(depth)):
        src.append(f"s{i} = stack.pop()")
        charged.append((0, 0))
    indent = ""
    if loop:
        # The caller fitted the first pass; ``c`` counts completed ones.
        src += [f"room -= {n - 1} * fetch_inst + {refs[n - 1]} * hit_core",
                f"budget -= {n}",
                f"step = {n} * fetch_inst + {refs[n]} * hit_core",
                "c = 0",
                "while True:"]
        charged += [(0, 0)] * 5
        indent = "    "
    fresh = 0

    def val(x) -> str:
        return _lit(x) if type(x) is int else x

    def push(pending: list) -> str:
        if len(pending) == 1:
            return f"stack.append({val(pending[0])})"
        return f"stack.extend(({', '.join(map(val, pending))}))"

    def exit_with(pending: list, ret: int, k: int) -> str:
        # Leave for ``ret`` after the pass's first ``k`` instructions.
        counts = f"{k}, {refs[k]}"
        if loop:
            counts = f"c * {n} + {k}, c * {refs[n]} + {refs[k]}"
        if not pending:
            return f"return {_lit(ret)}, {counts}"
        return f"{push(pending)}; return {_lit(ret)}, {counts}"

    def emit(line: str, served: bool = False) -> None:
        # A raise here charges instruction j, and its reference once the
        # AM has served it.
        src.append(indent + line)
        charged.append((j + 1, refs[j] + served))

    def assign(expr: str, served: bool = False) -> None:
        nonlocal fresh
        emit(f"v{fresh} = {expr}", served)
        sym.append(f"v{fresh}")
        fresh += 1

    for j in range(n):
        op, a, b, _ = decoded[start + j]
        stop = exit_with(sym, ~(start + j), j)
        if op in (_LOAD, _STORE, _LOADI, _STOREI):
            intent = "R" if op in (_LOAD, _LOADI) else "W"
            if op == _LOAD or op == _STORE:
                pg, word = divmod(b, page_size)
                off = _lit(b)
                emit(f"e = entries.get(({a}, {pg}, ring, {intent}))")
            else:
                x = sym.pop()
                off, word = val(x), "w"
                if type(x) is int:
                    emit(f"if {off} < 0: {stop}")
                else:
                    # A value made at run time may be no int at all
                    # (1.5 keys page 0's entry); translate refuses it.
                    emit(f"if type({off}) is not int or {off} < 0: {stop}")
                emit(f"p = {off} // {page_size}")
                emit(f"w = {off} - p * {page_size}")
                emit(f"e = entries.get(({a}, p, ring, {intent}))")
            emit(f"if e is None: {stop}")
            emit("fr, ptw, bnd = e")
            emit(f"if {off} >= bnd or not ptw.in_core or ptw.frame != fr: "
                 f"{stop}")
            emit("ptw.used = True", served=True)
            if intent == "R":
                assign(f"core_read(fr, {word})", served=True)
            else:
                emit("ptw.modified = True", served=True)
                emit(f"core_write(fr, {word}, {val(sym.pop())})",
                     served=True)
        elif op == _PUSHI:
            sym.append(a)
        elif op == _LOADF:
            assign(f"slots[{a}]")
        elif op == _STOREF:
            emit(f"slots[{a}] = {val(sym.pop())}")
        elif op in _BINARY:
            rhs = sym.pop()
            r, l = val(rhs), val(sym.pop())
            if (op == _DIV or op == _MOD) and not (type(rhs) is int
                                                   and rhs != 0):
                emit(f"if {r} == 0: {stop}")
            assign(_BINARY[op].format(l=l, r=r))
        elif op == _NEG:
            assign(f"-{val(sym.pop())}")
        elif op == _NOT:
            assign(f"0 if {val(sym.pop())} else 1")
        elif op == _DUP:
            sym.append(sym[-1])
        elif op == _POP:
            sym.pop()
        elif op == _SWAP:
            sym[-1], sym[-2] = sym[-2], sym[-1]
        elif op == _JMP:
            if not loop:
                emit(exit_with(sym, a, n))
        else:  # JZ / JNZ: a side exit
            cond = val(sym.pop())
            emit(f"if {cond} {'==' if op == _JZ else '!='} 0: "
                 f"{exit_with(sym, a, j + 1)}")
    if loop:
        # Before each later pass, the stepper's two fit tests.
        src += [f"{indent}c += 1",
                f"{indent}if c * step >= room or c * {n} > budget: "
                f"return {start}, c * {n}, c * {refs[n]}"]
        charged += [(n, refs[n]), (0, 0)]
    elif op != _JMP:
        src.append(exit_with(sym, start + n, n))
        charged.append((n, refs[n]))

    source = "\n    ".join(src) + "\n"
    namespace = {"R": Intent.READ, "W": Intent.WRITE}
    exec(compile(source, f"<block seg {segno} pc {start}>", "exec"),
         namespace)
    return _Block(namespace["block"], n, depth, max_slot, refs[n - 1],
                  refs[n], loop, charged)


@dataclass
class Link:
    """One slot in a linkage section."""

    symbol: str                 # "segment$entry" symbolic reference
    snapped: bool = False
    segno: int = -1
    offset: int = -1


class LinkageFault(ReproError):
    """A CALLL went through an unsnapped link; the environment's linkage
    fault handler must snap it and restart the instruction."""

    def __init__(self, index: int, link: Link):
        self.index = index
        self.link = link
        super().__init__(f"linkage fault on link {index} ({link.symbol})")


class MachineContext(Protocol):
    """What the CPU needs to know about the executing process."""

    dseg: DescriptorSegment
    ring: int

    def stack_limit(self) -> int: ...
    def code_segment(self, segno: int) -> CodeSegment: ...
    def linkage(self) -> list[Link]: ...


@dataclass(slots=True)
class _Frame:
    return_segno: int
    return_pc: int
    return_ring: int
    slots: list[int]
    stack_base: int


class ExecutionLimit(ReproError):
    """The instruction budget was exhausted (runaway program)."""


class CPU:
    """Executes code segments for one context at a time.

    The CPU charges cycles to an internal counter; callers (the process
    layer, the benches) read :attr:`cycles` or diff it around a call.
    """

    def __init__(
        self,
        core: MemoryLevel,
        costs: CostModel,
        ring_mode: RingMode,
        page_size: int,
        on_missing_page: Callable[[MachineContext, int, int], None] | None = None,
        on_linkage_fault: Callable[[MachineContext, int], None] | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        am_enabled: bool = True,
        meters=None,
        cpu_id: int = 0,
        private_am: AssociativeMemory | None = None,
    ) -> None:
        self.core = core
        self.costs = costs
        self.ring_mode = ring_mode
        self.page_size = page_size
        self.on_missing_page = on_missing_page
        self.on_linkage_fault = on_linkage_fault
        self.tracer = tracer or NULL_TRACER
        #: Consult an associative memory on every reference and
        #: instruction fetch.
        self.am_enabled = am_enabled
        #: Optional metering plane (repro.obs.meters): every execution
        #: (:meth:`stepper`) attributes its cycle deltas to the executing
        #: context.
        self.meters = meters
        #: Which CPU of the complex this is (0 on a uniprocessor).
        self.cpu_id = cpu_id
        #: A per-CPU associative memory, as on the real 6180 where the
        #: AM is processor hardware, not process state.  When set, it is
        #: used *instead of* the per-process ``ctx.dseg.am`` and cleared
        #: (full cam) whenever the CPU is connected to a different
        #: descriptor segment — the dseg switch the hardware cams on.
        self.private_am = private_am
        self._am_dseg: DescriptorSegment | None = None
        self.cycles = 0
        #: Cycles this CPU spent stalled — waiting out another CPU's
        #: kernel-lock hold window plus serialized fault service.  Kept
        #: apart from :attr:`cycles` so the uniprocessor cycle counts
        #: (and every pre-SMP bench identity) are untouched; the SMP
        #: complex advances the shared clock by busy + stall.
        self.stall_cycles = 0
        #: Counters for the benches.  The two translation-cost splits
        #: partition every translation cycle charged above: cycles ==
        #: am_hit_cycles + walk_cycles + (instruction, call and core
        #: access costs).
        self.calls_in_ring = 0
        self.calls_cross_ring = 0
        self.instructions_executed = 0
        self.am_hit_cycles = 0
        self.walk_cycles = 0
        if metrics is not None:
            metrics.counter("cpu.cycles", "simulated cycles charged",
                            source=lambda: self.cycles)
            metrics.counter("cpu.instructions", "instructions executed",
                            source=lambda: self.instructions_executed)
            metrics.counter("cpu.calls_in_ring", "same-ring calls",
                            source=lambda: self.calls_in_ring)
            metrics.counter("cpu.calls_cross_ring", "ring-crossing calls",
                            source=lambda: self.calls_cross_ring)
            metrics.counter("cpu.am_hit_cycles",
                            "translation cycles served by the AM",
                            source=lambda: self.am_hit_cycles)
            metrics.counter("cpu.walk_cycles",
                            "translation cycles spent on full walks",
                            source=lambda: self.walk_cycles)
            metrics.counter("cpu.stall_cycles",
                            "cycles stalled on kernel locks",
                            source=lambda: self.stall_cycles)
        if meters is not None:
            meters.register_cpu(self)

    def stall(self, cycles: int) -> None:
        """Charge lock-wait / serialized-service cycles to this CPU."""
        self.stall_cycles += cycles

    def _am_for(self, ctx: MachineContext) -> AssociativeMemory | None:
        """The associative memory consulted for ``ctx``'s references.

        With a private (per-CPU) AM, connecting the CPU to a different
        descriptor segment cams it first: entries witnessed against the
        previous process's dseg must never satisfy another process's
        references.  The dseg learns of the connection, so its SDW
        changes cam this AM too.
        """
        if not self.am_enabled:
            return None
        if self.private_am is None:
            return ctx.dseg.am
        if self._am_dseg is not ctx.dseg:
            if self._am_dseg is not None:
                self.private_am.cam()
                self._am_dseg.disconnect(self.private_am)
            ctx.dseg.connect(self.private_am)
            self._am_dseg = ctx.dseg
        return self.private_am

    # -- memory helpers ---------------------------------------------------

    def _translate(self, ctx: MachineContext, segno: int, offset: int,
                   intent: Intent) -> tuple[int, int]:
        """One checked reference, with page faults serviced and the
        translation cost (AM hit vs full walk) charged."""
        am = self._am_for(ctx)
        while True:
            try:
                if am is None:
                    located = translate(
                        ctx.dseg, segno, offset, ctx.ring, intent,
                        self.page_size,
                    )
                    self.cycles += self.costs.translate_walk
                    self.walk_cycles += self.costs.translate_walk
                    return located
                hits_before = am.hits
                located = translate(
                    ctx.dseg, segno, offset, ctx.ring, intent,
                    self.page_size, am=am,
                )
                if am.hits != hits_before:
                    self.cycles += self.costs.am_hit
                    self.am_hit_cycles += self.costs.am_hit
                else:
                    self.cycles += self.costs.translate_walk
                    self.walk_cycles += self.costs.translate_walk
                return located
            except MissingPageFault as fault:
                self.cycles += self.costs.translate_walk
                self.walk_cycles += self.costs.translate_walk
                self._service_page_fault(ctx, fault)

    def _service_page_fault(self, ctx: MachineContext, fault: MissingPageFault) -> None:
        if self.on_missing_page is None:
            raise fault
        self.on_missing_page(ctx, fault.segno, fault.pageno)

    # -- execution --------------------------------------------------------

    def execute(
        self,
        ctx: MachineContext,
        segno: int,
        entry: int = 0,
        args: list[int] | None = None,
        max_instructions: int = 1_000_000,
    ) -> int:
        """Run from ``segno|entry`` until HALT or a RET from the initial
        frame.  Returns the value on top of the stack (0 if empty).

        Hardware faults other than missing-page and linkage faults
        propagate to the caller — in the full system the supervisor
        reflects them to the faulting process; in tests they are the
        assertion of interest.
        """
        runner = self.stepper(ctx, segno, entry, args, max_instructions)
        try:
            while True:
                next(runner)
        except StopIteration as stop:
            return stop.value

    def stepper(
        self,
        ctx: MachineContext,
        segno: int,
        entry: int = 0,
        args: list[int] | None = None,
        max_instructions: int = 1_000_000,
    ):
        """The interpreter: a resumable execution, as a generator
        returning the program's result via StopIteration.

        This is also the SMP complex's hook: it advances each CPU's
        runner a bounded number of cycles per lockstep round, giving a
        deterministic interleaving on the simulated clock.

        Protocol: the first ``next()`` runs entry setup and parks before
        the first instruction.  After that the driver advances it with
        ``send(target)``: instructions run until
        ``cycles + stall_cycles >= target`` (tested before each
        instruction) and only then does the generator yield.
        ``send(None)`` (what plain ``next()`` does) means "no target":
        the program runs to completion.

        Every instruction fetch passes the FETCH check and every operand
        reference passes :func:`translate` (rings, bounds, paging), with
        the translation cost — AM hit or full walk — charged.

        Two paths run instructions, and only the machine's state picks
        one.  A *block* is the run starting at the pc, past conditional
        branches (side exits) up to a ``JMP``, compiled once per code
        segment into one Python function (see :func:`_compile_block`);
        a block whose ``JMP`` returns to its own start is a loop.  It
        runs when the AM is on and holds the fetch entry for (segno,
        ring); when the cost up to its pass's last instruction, every
        reference an AM hit, still leaves the CPU short of the target;
        when the instruction budget covers the pass; and when the
        operand stack and the frame hold what it touches.  Otherwise
        one instruction single-steps.  A loop block makes the same two
        fit tests itself before each later pass, and returns to its
        start when either fails.  The other tests need no re-check:
        nothing inside a block inserts into or drops from the AM, so
        the fetch entry is still there; a loop pops nothing from below
        its entry and closes with no value pending, so every pass starts
        on the same operand stack; and no block resizes the frame.  A
        block returns the next pc (``~pc`` when it stopped before an
        instruction) with the instructions and references it ran, which
        are charged here.  It keeps every check: each reference probes
        the live AM with the same key and witnesses, sets the PTW bits
        and touches core in order, and a reference that would miss or
        fail a witness — or a zero divisor — ends the block before that
        instruction, for the single-step path to run.  A block caches no
        decision: no cam or revocation has to reach it.

        Counter updates are *batched*: the single-step path and the
        blocks accumulate cycle, hit, walk and instruction deltas in
        locals and fold them into the CPU's and the AM's counters at
        three points only — before an excursion that can run other code
        (a translation, whose page fault reads the live counters for its
        virtual time; a call or return, whose linkage fault runs the
        environment's handler), at a quantum yield, and in the
        ``finally`` below (a block that raises partway first charges
        exactly what single-stepping up to the raise would have).  A
        fetch miss runs no other code, so it counts its miss and walk
        without a fold.  Nothing reads the counters between those
        points, so every *observable* value — what the SMP round
        accounting, the mid-fault virtual clock, the meters, and the
        snapshot see — is exact.

        The ``finally`` also attributes the execution, however it ends
        (a return, a fault, or a close: the SMP complex closes the
        runner of a job whose CPU it loses): with metering on, its
        cycle, AM-hit, walk and crossing deltas go to the executing
        context through :meth:`repro.obs.meters.Meters.note_execution`.
        The counters are plain ints, so the simulated cost is identical
        with metering on or off.  An execution that ends inside a call
        (a fault, a ``HALT``, a close) also gets the caller's ring back
        there, as the returns it skipped would have set it; a quantum
        yield leaves the ring alone.
        """
        # Counter baselines for the attribution in the ``finally``, and
        # the pending deltas the three fold points settle (see docstring).
        c0, h0 = self.cycles, self.am_hit_cycles
        w0, x0 = self.walk_cycles, self.calls_cross_ring
        cyc = 0      # -> self.cycles
        hits = 0     # -> am.hits (and am.totals, when bound), and
        #               hits * costs.am_hit -> self.am_hit_cycles
        wlkc = 0     # -> self.walk_cycles (fetch walks)
        ninst = 0    # -> self.instructions_executed
        hit_cost = self.costs.am_hit
        frames: list[_Frame] = []
        try:
            code = ctx.code_segment(segno)
            sdw = ctx.dseg.get(segno)
            new_ring = call_check(sdw.brackets, ctx.ring, entry, sdw.gates)
            self.cycles += call_cost(self.costs, self.ring_mode, ctx.ring,
                                     new_ring)
            self._count_call(ctx.ring, new_ring)

            stack: list[int] = []
            frames.append(_Frame(-1, -1, ctx.ring, list(args or []), 0))
            slots = frames[-1].slots
            ctx.ring = new_ring
            pc = entry
            executed = 0
            am = self._am_for(ctx)

            # Hoisted loop invariants.
            costs = self.costs
            inst_cost = costs.instruction
            walk_cost = costs.translate_walk
            core_cost = costs.core_access
            fetch_inst = hit_cost + inst_cost  # a fetch hit plus execution
            hit_core = hit_cost + core_cost    # a reference served by the AM
            page_size = self.page_size
            core_read = self.core.read
            core_write = self.core.write
            translate_slow = self._translate
            dseg = ctx.dseg
            entries = am._entries if am is not None else None
            R, W, F = Intent.READ, Intent.WRITE, Intent.FETCH
            ring = ctx.ring
            decoded = _decoded_for(code)
            blocks = _blocks_for(code, page_size)
            n_inst = len(decoded)
            fkey = fetch_key(segno, ring)

            while True:
                # Parked: before the first instruction, or at a quantum
                # boundary with every pending delta folded.
                target = yield
                base = self.cycles
                stall = self.stall_cycles
                limit = target if target is not None else _NO_TARGET
                while base + cyc + stall < limit:
                    if (entries is not None and fkey in entries
                            and 0 <= pc < n_inst):
                        blk = blocks[pc]
                        if blk is _UNCOMPILED:
                            blk = blocks[pc] = _compile_block(
                                decoded, pc, page_size, segno)
                        # The cost before the pass's last instruction
                        # must leave the CPU short of the target, as it
                        # would before each single step.
                        room = limit - (base + cyc + stall)
                        if (blk is not None
                                and (blk.n - 1) * fetch_inst
                                + blk.tail_refs * hit_core < room
                                and executed + blk.n <= max_instructions
                                and len(stack) >= blk.depth
                                and len(slots) > blk.max_slot):
                            try:
                                nxt, k, m = blk.run(
                                    stack, slots, entries, ring, core_read,
                                    core_write, room,
                                    max_instructions - executed,
                                    fetch_inst, hit_core)
                            except BaseException as exc:
                                k, m = blk.charged(exc)
                                ninst += k
                                hits += k + m
                                cyc += k * fetch_inst + m * hit_core
                                raise
                            executed += k
                            ninst += k
                            hits += k + m
                            cyc += k * fetch_inst + m * hit_core
                            if nxt >= 0:
                                pc = nxt
                                continue
                            # Stopped early: the instruction it stopped
                            # before single-steps now (still short of
                            # the target and inside the budget).
                            pc = ~nxt
                    # Single step.
                    if executed >= max_instructions:
                        raise ExecutionLimit(
                            f"exceeded {max_instructions} instructions"
                        )
                    if not 0 <= pc < n_inst:
                        raise IllegalInstruction(
                            f"pc {pc} outside code segment {segno}"
                        )
                    # Instruction fetch check.  The AM caches the
                    # decision per (segno, ring); every invalidation that
                    # could change it (SDW swap, revocation, teardown)
                    # clears it.  Same order and counters as
                    # AssociativeMemory.fetch_probe + the full walk; a
                    # miss runs no other code, so it needs no fold.
                    if entries is not None and fkey in entries:
                        hits += 1
                        cyc += hit_cost
                    else:
                        if entries is not None:
                            am.misses += 1
                            if am.totals is not None:
                                am.totals.misses += 1
                        sdw = dseg.get(segno)
                        check_access(sdw, ring, F)
                        cyc += walk_cost
                        wlkc += walk_cost
                        if entries is not None:
                            am.fetch_insert(segno, ring, sdw.uid)

                    op, a, b, c = decoded[pc]
                    pc += 1
                    executed += 1
                    ninst += 1
                    cyc += inst_cost

                    if op == _PUSHI:
                        stack.append(a)
                    elif _LOAD <= op <= _STOREI or _CALL <= op <= _RET:
                        # An excursion.  Pop the operands, then fold: a
                        # translation's page fault reads the live
                        # counters for its virtual time, and a linkage
                        # fault runs the environment's handler.
                        if op == _LOADI or op == _STOREI:
                            if not stack:
                                raise IllegalInstruction(
                                    "operand stack underflow"
                                )
                            off = stack.pop()
                        else:
                            off = b
                        if op == _STORE or op == _STOREI:
                            if not stack:
                                raise IllegalInstruction(
                                    "operand stack underflow"
                                )
                            value = stack.pop()
                        self.cycles += cyc
                        self.walk_cycles += wlkc
                        self.instructions_executed += ninst
                        if hits:
                            am.hits += hits
                            self.am_hit_cycles += hits * hit_cost
                            if am.totals is not None:
                                am.totals.hits += hits
                        cyc = hits = wlkc = ninst = 0
                        if op == _LOAD or op == _LOADI:
                            fr, word = translate_slow(ctx, a, off, R)
                            self.cycles += core_cost
                            stack.append(core_read(fr, word))
                        elif op == _STORE or op == _STOREI:
                            fr, word = translate_slow(ctx, a, off, W)
                            self.cycles += core_cost
                            core_write(fr, word, value)
                        else:
                            if op == _CALL:
                                segno, code, pc = self._do_call(
                                    ctx, frames, stack, segno, pc, a, b, c,
                                )
                            elif op == _CALLL:
                                tgt = self._resolve_link(ctx, a)
                                segno, code, pc = self._do_call(
                                    ctx, frames, stack, segno, pc,
                                    tgt[0], tgt[1], b,
                                )
                            else:  # RET
                                result = stack.pop() if stack else 0
                                frame = frames.pop()
                                ctx.ring = frame.return_ring
                                if not frames:
                                    return result
                                stack.append(result)
                                segno = frame.return_segno
                                code = ctx.code_segment(segno)
                                pc = frame.return_pc
                            ring = ctx.ring
                            slots = frames[-1].slots
                            decoded = _decoded_for(code)
                            blocks = _blocks_for(code, page_size)
                            n_inst = len(decoded)
                            fkey = fetch_key(segno, ring)
                        base = self.cycles
                        stall = self.stall_cycles
                    elif op == _LOADF:
                        if 0 <= a < len(slots):
                            stack.append(slots[a])
                        else:
                            self._check_slot(frames[-1], a)
                    elif op == _STOREF:
                        self._check_slot(frames[-1], a, grow=True)
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        slots[a] = stack.pop()
                    elif _ADD <= op <= _GE and op != _NEG:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        rhs = stack.pop()
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        lhs = stack.pop()
                        if op == _ADD:
                            stack.append(lhs + rhs)
                        elif op == _SUB:
                            stack.append(lhs - rhs)
                        elif op == _MUL:
                            stack.append(lhs * rhs)
                        elif op == _EQ:
                            stack.append(int(lhs == rhs))
                        elif op == _NE:
                            stack.append(int(lhs != rhs))
                        elif op == _LT:
                            stack.append(int(lhs < rhs))
                        elif op == _LE:
                            stack.append(int(lhs <= rhs))
                        elif op == _GT:
                            stack.append(int(lhs > rhs))
                        elif op == _GE:
                            stack.append(int(lhs >= rhs))
                        elif op == _DIV:
                            stack.append(_div(lhs, rhs))
                        else:
                            stack.append(_mod(lhs, rhs))
                    elif op == _JMP:
                        pc = a
                    elif op == _JZ:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        if stack.pop() == 0:
                            pc = a
                    elif op == _JNZ:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        if stack.pop() != 0:
                            pc = a
                    elif op == _NEG:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack.append(-stack.pop())
                    elif op == _NOT:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack.append(0 if stack.pop() else 1)
                    elif op == _DUP:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack.append(stack[-1])
                    elif op == _POP:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack.pop()
                    elif op == _SWAP:
                        if len(stack) < 2:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack[-1], stack[-2] = stack[-2], stack[-1]
                    elif op == _HALT:
                        return stack[-1] if stack else 0
                    else:  # pragma: no cover - enum is closed
                        raise IllegalInstruction(
                            f"cannot execute opcode {op}"
                        )
                # Quantum boundary: fold the pending deltas so the SMP
                # round accounting sees exact values while suspended.
                self.cycles += cyc
                self.walk_cycles += wlkc
                self.instructions_executed += ninst
                if hits:
                    am.hits += hits
                    self.am_hit_cycles += hits * hit_cost
                    if am.totals is not None:
                        am.totals.hits += hits
                cyc = hits = wlkc = ninst = 0
        finally:
            # Every exit folds whatever is pending and attributes the
            # whole execution.  One that ends inside a call (a fault, a
            # HALT, a close) gives the caller its ring back, as the
            # returns it skipped would have.
            if frames:
                ctx.ring = frames[0].return_ring
            self.cycles += cyc
            self.walk_cycles += wlkc
            self.instructions_executed += ninst
            if hits:
                am.hits += hits
                self.am_hit_cycles += hits * hit_cost
                if am.totals is not None:
                    am.totals.hits += hits
            meters = self.meters
            if meters is not None and meters.enabled:
                meters.note_execution(
                    ctx,
                    self.cycles - c0,
                    self.am_hit_cycles - h0,
                    self.walk_cycles - w0,
                    self.calls_cross_ring - x0,
                )

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _check_slot(frame: _Frame, index: int, grow: bool = False) -> None:
        if index < 0:
            raise IllegalInstruction(f"negative frame slot {index}")
        if index >= len(frame.slots):
            if not grow or index >= 4096:
                if not grow:
                    raise IllegalInstruction(
                        f"frame slot {index} not initialized"
                    )
                raise IllegalInstruction("frame too large")
            frame.slots.extend([0] * (index + 1 - len(frame.slots)))

    def _count_call(self, old_ring: int, new_ring: int) -> None:
        if old_ring == new_ring:
            self.calls_in_ring += 1
        else:
            self.calls_cross_ring += 1
            if self.tracer.enabled:
                self.tracer.point(
                    "ring_crossing", origin="cpu",
                    from_ring=old_ring, to_ring=new_ring,
                )

    def _do_call(
        self,
        ctx: MachineContext,
        frames: list[_Frame],
        stack: list[int],
        caller_segno: int,
        return_pc: int,
        target_segno: int,
        target_offset: int,
        nargs: int,
    ) -> tuple[int, CodeSegment, int]:
        sdw = ctx.dseg.get(target_segno)
        new_ring = call_check(sdw.brackets, ctx.ring, target_offset, sdw.gates)
        self.cycles += call_cost(self.costs, self.ring_mode, ctx.ring, new_ring)
        self._count_call(ctx.ring, new_ring)
        if nargs > len(stack):
            raise IllegalInstruction("not enough arguments on stack")
        slots = stack[len(stack) - nargs:] if nargs else []
        del stack[len(stack) - nargs:]
        frames.append(
            _Frame(caller_segno, return_pc, ctx.ring, list(slots), len(stack))
        )
        ctx.ring = new_ring
        code = ctx.code_segment(target_segno)
        return target_segno, code, target_offset

    def _resolve_link(self, ctx: MachineContext, index: int) -> tuple[int, int]:
        links = ctx.linkage()
        if not 0 <= index < len(links):
            raise IllegalInstruction(f"no linkage slot {index}")
        link = links[index]
        if not link.snapped:
            if self.on_linkage_fault is None:
                raise LinkageFault(index, link)
            self.on_linkage_fault(ctx, index)
            link = ctx.linkage()[index]
            if not link.snapped:
                raise LinkageFault(index, link)
        return link.segno, link.offset


def _div(a: int, b: int) -> int:
    if b == 0:
        raise IllegalInstruction("division by zero")
    return int(a / b)  # truncate toward zero, like the hardware


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise IllegalInstruction("modulo by zero")
    return a - _div(a, b) * b
