"""Seeded property-based tests.

Two kinds of properties:

* **Differential**: a pseudo-random workload of ACL edits, segment
  creates/deletes, cross-user references, and privileged-gate probes is
  replayed — same seed — against the legacy supervisor and the security
  kernel.  The paper's claim is that shrinking the kernel changes where
  the reference monitor lives, not what it decides: both systems must
  produce the identical sequence of grant/deny outcomes, and on the
  kernel every deny must land in the bounded audit trail the moment it
  happens.

* **Model-based** (hypothesis): random operation sequences against
  :class:`repro.kernel.locks.KernelLock` checked against a brute-force
  model of its invariants.  Derandomized, so the suite stays a pure
  function of the code.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import MulticsSystem, kernel_config, legacy_config
from repro.errors import KernelDenial, ReproError, SegmentFault
from repro.faults.harness import harness_config, security_decisions
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.assoc import AssociativeMemory
from repro.hw.cpu import _OPCODE, _STACK_EFFECT, Instruction, Link, Op
from repro.hw.rings import kernel_gate_brackets
from repro.kernel.locks import KernelLock

from tests.test_hw_cpu import Ctx, make_cpu
from tests.test_superblocks import fingerprint, one_cycle, run_free

SEEDS = [7, 19, 1975]
N_OPS = 40


def _boot(config) -> MulticsSystem:
    system = MulticsSystem(config).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    system.register_user("Eve", "Spies", "eve-pw")
    return system


def random_workload(system: MulticsSystem, seed: int,
                    n_ops: int = N_OPS,
                    check_trail: bool = False) -> list[tuple[str, str]]:
    """Replay the seed's operation sequence; returns the normalized
    (operation, outcome) trace.  With ``check_trail`` every deny must
    be visible in the audit trail immediately after it is raised."""
    rng = random.Random(seed)
    alice = system.login("Alice", "Crypto", "alice-pw")
    eve = system.login("Eve", "Spies", "eve-pw")
    # Let Eve reach (traverse) Alice's home so segment ACLs — which the
    # workload edits — decide her accesses, not the directory walls.
    alice.set_acl(">udd>Crypto", "Eve.Spies", "r")
    alice.set_acl(alice.home_path, "Eve.Spies", "r")

    segments: list[str] = []   # names alive in Alice's home
    trace: list[tuple[str, str]] = []
    counter = 0

    def attempt(op: str, thunk) -> None:
        before = system.audit.denials
        try:
            thunk()
            outcome = "granted"
        except KernelDenial as exc:
            outcome = type(exc).__name__
        except ReproError as exc:     # ring/hardware refusals
            outcome = type(exc).__name__
        trace.append((op, outcome))
        if check_trail and outcome != "granted":
            assert system.audit.denials > before, (
                f"{op} was refused ({outcome}) without a trail record"
            )

    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.30 or not segments:
            name = f"s{counter}"
            counter += 1
            pages = rng.randint(1, 3)
            segments.append(name)
            attempt(f"create {name}",
                    lambda n=name, p=pages: alice.create_segment(n, n_pages=p))
        elif roll < 0.45:
            name = rng.choice(segments)
            segments.remove(name)
            attempt(f"delete {name}", lambda n=name: alice.delete(n))
        elif roll < 0.65:
            name = rng.choice(segments)
            mode = rng.choice(["r", "rw"])
            attempt(f"acl {name} Eve {mode}",
                    lambda n=name, m=mode: alice.set_acl(n, "Eve.Spies", m))
        elif roll < 0.85:
            name = rng.choice(segments)
            attempt(f"eve initiate {name}",
                    lambda n=name: eve.initiate(f"{alice.home_path}>{n}"))
        else:
            # A user-ring probe of a privileged gate: always refused,
            # by the ring hardware (6180) or the gate check (645).
            attempt("probe proc_list", lambda: alice.call("hcs_$proc_list"))
    return trace


class TestDifferentialSupervisors:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_both_supervisors_decide_identically(self, seed):
        kernel_trace = random_workload(_boot(kernel_config()), seed)
        legacy_trace = random_workload(_boot(legacy_config()), seed)
        assert kernel_trace == legacy_trace
        # The seed must actually exercise both halves of the property.
        outcomes = {o for _, o in kernel_trace}
        assert "granted" in outcomes
        assert outcomes - {"granted"}, "seed produced no denials"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_deny_reaches_the_trail_as_it_happens(self, seed):
        random_workload(_boot(kernel_config()), seed, check_trail=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_system_is_invariant(self, seed):
        first = random_workload(_boot(kernel_config()), seed)
        second = random_workload(_boot(kernel_config()), seed)
        assert first == second


class TestFaultedRunsStayDeterministic:
    """Injected faults are part of the seedable state: two boots with
    the same fault plan replay the identical security decisions (the
    cross-supervisor comparison above deliberately excludes faults —
    recovery paths legitimately differ between the two designs)."""

    PLAN = [FaultSpec("memory.transfer", "transfer_error", at_ops=(3, 11))]

    def run_once(self, seed):
        config = harness_config(
            fault_plan=FaultPlan(list(self.PLAN), seed=seed)
        )
        system = _boot(config)
        trace = random_workload(system, seed, n_ops=25)
        return trace, security_decisions(system.audit), system.clock.now

    @pytest.mark.parametrize("seed", [5, 23])
    def test_faulted_workload_reproduces(self, seed):
        assert self.run_once(seed) == self.run_once(seed)


# -- model-based lock properties --------------------------------------

lock_ops = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "hold"]),
        st.integers(min_value=0, max_value=100),   # now / cycles
        st.sampled_from([None, "cpu0", "cpu1", "cpu2"]),
    ),
    max_size=50,
)


@settings(max_examples=200, derandomize=True)
@given(lock_ops)
def test_kernel_lock_invariants(ops):
    lock = KernelLock("ptl")
    acquisitions = contentions = waited = 0
    last_held_until = 0
    for kind, value, owner in ops:
        if kind == "hold":
            lock.hold(value)
        else:
            wait = lock.acquire(now=value, owner=owner)
            acquisitions += 1
            assert wait >= 0
            # Anonymous (serialized DES) acquirers never wait.
            if owner is None:
                assert wait == 0
            # A waiter leaves holding the lock: its critical section
            # starts when the previous owner's window ends.
            if wait:
                contentions += 1
                waited += wait
                assert lock.held_until == value + wait
        assert lock.held_until >= last_held_until
        last_held_until = lock.held_until
    assert lock.acquisitions == acquisitions
    assert lock.contentions == contentions
    assert lock.contention_cycles == waited


@settings(max_examples=100, derandomize=True)
@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_kernel_lock_wait_equals_remaining_window(start, hold, later):
    lock = KernelLock("ptl")
    lock.acquire(now=start, owner="a")
    lock.hold(hold)
    wait = lock.acquire(now=start + later, owner="b")
    assert wait == max(0, hold - later)


# ---------------------------------------------------------------------------
# Specialized kernels: grants are exactly (full-kernel grants ∩ profile)
# ---------------------------------------------------------------------------

#: Read-only probes against a shared booted kernel system.  Each is
#: (gate, args-builder) where the builder receives the root segno.
_PROBES = [
    ("hcs_$get_root", lambda root: ()),
    ("hcs_$list_kst", lambda root: ()),
    ("hcs_$get_quota", lambda root: (root,)),
    ("hcs_$status", lambda root: (root, "udd")),
    ("hcs_$acl_list", lambda root: (root, "udd")),
    ("hcs_$get_uid", lambda root: (root,)),
    ("net_$status", lambda root: ()),
    ("net_$attach", lambda root: ()),
    # Denied by the *full* kernel (no such entry): an in-profile gate
    # must reproduce the denial, not mask it.
    ("hcs_$get_bit_count", lambda root: (root, "no_such_entry")),
    # Ring-denied on any kernel: the stub's brackets must fire first.
    ("hcs_$set_quota", lambda root: (root, 10**9)),
]

_PROBE_GATES = sorted({gate for gate, _ in _PROBES})

_SPECIALIZE_ENV = {}


def _specialize_env() -> dict:
    """One booted kernel system + the full kernel's probe outcomes,
    built lazily and shared across hypothesis examples."""
    if _SPECIALIZE_ENV:
        return _SPECIALIZE_ENV
    system = _boot(kernel_config())
    session = system.login("Alice", "Crypto", "alice-pw")
    root = session.call("hcs_$get_root")
    from repro.kernel.specialize import full_kernel_gates

    user_callable = {
        g.name for g in full_kernel_gates() if g.user_available()
    }
    full_outcomes = {}
    for gate, build in _PROBES:
        full_outcomes[(gate, build)] = _probe(
            system.supervisor, session.process, gate, build(root)
        )
    _SPECIALIZE_ENV.update(
        system=system, session=session, root=root,
        full_outcomes=full_outcomes, user_callable=user_callable,
    )
    return _SPECIALIZE_ENV


def _probe(supervisor, process, gate: str, args: tuple) -> tuple[str, str]:
    try:
        result = supervisor.call(process, gate, *args)
    except ReproError as exc:
        return ("deny", type(exc).__name__)
    return ("ok", repr(result))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.sets(st.sampled_from(_PROBE_GATES)))
def test_specialized_kernel_grants_exactly_the_profiled_intersection(subset):
    """For a random gate-subset profile, the specialized kernel grants
    exactly (full-kernel grants ∩ profile); everything else is denied
    by a stub *and* lands in the audit log — differential grant/deny
    trace against the full kernel on the same substrate."""
    from repro.kernel.specialize import GateProfile, SpecializedKernel

    env = _specialize_env()
    system, session = env["system"], env["session"]
    specialized = SpecializedKernel(
        system.services, GateProfile("subset", gates=subset)
    )
    granted_full, granted_spec = set(), set()
    for gate, build in _PROBES:
        full_outcome = env["full_outcomes"][(gate, build)]
        denials_before = system.audit.denials
        spec_outcome = _probe(
            specialized, session.process, gate, build(env["root"])
        )
        if full_outcome[0] == "ok":
            granted_full.add(gate)
        if gate not in env["user_callable"]:
            # Ring brackets survive specialization: the hardware turns
            # the call away before any handler — stub or real — runs.
            assert spec_outcome == full_outcome
            assert spec_outcome != ("deny", "SpecializationDenial")
        elif gate in subset:
            # In profile: byte-identical outcome, grant or deny.
            assert spec_outcome == full_outcome
            if spec_outcome[0] == "ok":
                granted_spec.add(gate)
        else:
            # Out of profile: denial of use, audited through the one
            # funnel (a fresh denied record naming the gate).
            assert spec_outcome == ("deny", "SpecializationDenial")
            assert system.audit.denials == denials_before + 1
            denied = system.audit.denied()
            assert denied[-1].object == gate
            assert denied[-1].category == "gate"
    assert granted_spec == granted_full & subset


# ---------------------------------------------------------------------------
# Fault containment: a random program returns or raises a ReproError
# ---------------------------------------------------------------------------

class _ProcessLikeCtx(Ctx):
    """A context whose missing code faults like a real process's."""

    def code_segment(self, segno):
        try:
            return self.codes[segno]
        except KeyError:
            raise SegmentFault(segno, f"segment {segno} holds no code") \
                from None


#: Ops that neither branch nor leave the frame, drawn three times as
#: often as the rest so programs hold straight-line runs (superblocks).
_STRAIGHT_LINE = [op for op in Op if op not in (
    Op.JMP, Op.JZ, Op.JNZ, Op.CALL, Op.CALLL, Op.RET, Op.HALT)]

_instructions = st.builds(
    Instruction,
    st.sampled_from(_STRAIGHT_LINE * 3 + list(Op)),
    # Small values name segments, slots and links; the wider range
    # puts branch targets before, inside and past a 24-instruction
    # program.
    st.one_of(st.integers(min_value=-2, max_value=6),
              st.integers(min_value=-3, max_value=26)),
    st.integers(min_value=-2, max_value=20),
    st.integers(min_value=0, max_value=2),
)

_programs = st.lists(_instructions, min_size=1, max_size=24)

_body_instructions = st.builds(
    Instruction,
    st.sampled_from(_STRAIGHT_LINE),
    # Mostly the frame's slots 1-3 and the data segments 2 and 4; -1
    # and 0 (the counter, or the code segment) now and then.
    st.one_of(st.integers(min_value=1, max_value=4),
              st.integers(min_value=-1, max_value=0)),
    st.integers(min_value=-1, max_value=17),
)


@st.composite
def _loop_programs(draw):
    """A counted loop: slot 0 counts down to a ``JZ``/``JNZ`` exit at
    the head, and a random straight-line body with zero net stack
    effect (padded with ``PUSHI`` before it and ``POP`` after it so it
    never pops below its entry) runs before a ``JMP`` back to the
    head.  Such a run compiles to a loop block."""
    count = draw(st.integers(min_value=0, max_value=12))
    body = draw(st.lists(_body_instructions, max_size=12))
    height = low = 0
    for inst in body:
        pops, pushes = _STACK_EFFECT[_OPCODE[inst.op]]
        height -= pops
        low = min(low, height)
        height += pushes
    body = ([Instruction(Op.PUSHI, 3)] * -low + body
            + [Instruction(Op.POP)] * (height - low))
    if draw(st.booleans()):
        test = [Instruction(Op.LOADF, 0)]
        exit_op = Op.JZ
    else:
        test = [Instruction(Op.LOADF, 0), Instruction(Op.PUSHI, 0),
                Instruction(Op.EQ)]
        exit_op = Op.JNZ
    head = 4
    end = head + len(test) + 1 + len(body) + 5
    return [
        # slot 0 = count; slot 3 = 0 (the frame holds slots 0-3)
        Instruction(Op.PUSHI, count), Instruction(Op.STOREF, 0),
        Instruction(Op.PUSHI, 0), Instruction(Op.STOREF, 3),
        *test, Instruction(exit_op, end),
        *body,
        Instruction(Op.LOADF, 0), Instruction(Op.PUSHI, 1),
        Instruction(Op.SUB), Instruction(Op.STOREF, 0),
        Instruction(Op.JMP, head),
        Instruction(Op.LOADF, 0), Instruction(Op.RET),
    ]


def _program_world(program, private_am: bool = False):
    """The random program as segment 1, beside a one-page data segment
    (2), a ring-0 gate (3), a data page that faults in on first touch
    (4), and a snapped and an unsnapped link."""
    ctx = _ProcessLikeCtx()
    ctx.add_code(1, program)
    ctx.add_data(2)
    ctx.add_code(3, [Instruction(Op.PUSHI, 1), Instruction(Op.RET)],
                 brackets=kernel_gate_brackets(), gates=frozenset({0}))
    ctx.add_data(4, in_core=False)
    ctx.links = [Link("gate$entry", snapped=True, segno=3, offset=0),
                 Link("missing$entry")]

    def page_in(ctx, segno, pageno):
        ctx.dseg.get(segno).page_table[pageno].place(cpu.core.allocate())
        cpu.stall(5)

    cpu = make_cpu(on_missing_page=page_in,
                   private_am=AssociativeMemory() if private_am else None)
    cpu.core.allocate()  # frame 0 backs segment 2's page
    return cpu, ctx


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_programs,
       st.lists(st.integers(min_value=-3, max_value=3), max_size=2))
@example([Instruction(Op.LOAD, 1, 0)], [])  # a page past the table
@example([Instruction(Op.PUSHI, 1.5), Instruction(Op.LOADI, 2),
          Instruction(Op.RET)], [])  # no integer offset
def test_random_program_returns_or_raises_a_repro_error(program, args):
    """Whatever a program does — underflow the operand stack, call or
    load through any segment number, jump anywhere, loop — the CPU
    either returns a value or raises a :class:`ReproError` the
    supervisor can contain.  No Python exception may escape."""
    cpu, ctx = _program_world(program)
    try:
        cpu.execute(ctx, 1, 0, args, max_instructions=64)
    except ReproError:
        pass


def _blocks_match(program, args, budget, private_am):
    cpu_b, ctx_b = _program_world(program, private_am)
    got = run_free(cpu_b, ctx_b, args, budget)
    cpu_s, ctx_s = _program_world(program, private_am)
    want = one_cycle(cpu_s, ctx_s, args=args, max_instructions=budget)
    assert got == want
    assert fingerprint(cpu_b, ctx_b) == fingerprint(cpu_s, ctx_s)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_programs,
       st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
       st.integers(min_value=1, max_value=100),
       st.booleans())
@example([Instruction(Op.PUSHI, 0), Instruction(Op.JZ, -2)], [], 64, False)
@example([Instruction(Op.PUSHI, 2.5), Instruction(Op.PUSHI, 2),
          Instruction(Op.MUL), Instruction(Op.STORE, 2, 1.0),
          Instruction(Op.LOADF, True), Instruction(Op.PUSHI, "x"),
          Instruction(Op.ADD), Instruction(Op.RET)], [4], 64, True)
@example([Instruction(Op.LOADF, 0), Instruction(Op.PUSHI, 3),
          Instruction(Op.STOREI, 2), Instruction(Op.LOAD, 2, 3),
          Instruction(Op.RET)], [1.5], 64, False)
@example([Instruction(Op.LOAD, 1, 0), Instruction(Op.RET)], [], 64, True)
# An offset made inside a block that is no int, on a page the AM holds.
@example([Instruction(Op.LOAD, 2, 0), Instruction(Op.POP),
          Instruction(Op.LOADF, 0), Instruction(Op.LOADI, 2),
          Instruction(Op.RET)], [1.5], 64, False)
def test_blocks_match_one_cycle_stepping(program, args, budget,
                                         private_am):
    """Differential oracle for the interpreter's superblocks:
    ``CPU.execute`` (blocks wherever they fit) and one-cycle stepping
    (never a block) reach the same outcome — value, or exception type
    and message — with identical CPU and AM counters, core words and
    PTW bits."""
    _blocks_match(program, args, budget, private_am)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_loop_programs(),
       st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
       st.integers(min_value=1, max_value=100),
       st.booleans())
# A back edge with a value pending: no loop block may close over it.
@example([Instruction(Op.PUSHI, 3), Instruction(Op.STOREF, 0),
          Instruction(Op.LOADF, 0), Instruction(Op.JZ, 10),
          Instruction(Op.PUSHI, 7), Instruction(Op.LOADF, 0),
          Instruction(Op.PUSHI, 1), Instruction(Op.SUB),
          Instruction(Op.STOREF, 0), Instruction(Op.JMP, 2),
          Instruction(Op.RET)], [], 100, False)
def test_loop_blocks_match_one_cycle_stepping(program, args, budget,
                                              private_am):
    """The same oracle over counted loops, whose loop blocks run pass
    after pass until the exit, a fault or the budget stops them."""
    _blocks_match(program, args, budget, private_am)
