"""The gate registry: the supervisor's entire perimeter, declared.

A :class:`Gate` is one protected entry point: a name (Multics style,
``hcs_$initiate``), the ring brackets governing who may call it, a
category and removal tag for the censuses of experiments E1/E2, an
argument-validation signature, and the handler.

:class:`GateTable.call` is the single choke point through which every
supervisor invocation passes.  It performs, in order:

1. the hardware ring check (caller's ring inside the gate's call or
   execute bracket) and the cross-ring cost charge (645 vs 6180, E4);
2. argument validation — *before* the handler runs, because
   user-constructed arguments are the classic way to make supervisor
   code malfunction (the paper's linker story);
3. auditing of the invocation and its outcome.

The censuses (how many gates a supervisor exposes, by category) are
computed from this table, so the numbers experiments E1 and E2 report
are properties of the running system, not constants in a bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.config import NUM_RINGS, SystemConfig
from repro.errors import AccessViolation, InvalidArgument, KernelDenial
from repro.fs.directory import split_path, validate_name
from repro.hw.rings import RingBrackets, call_cost
from repro.hw.segmentation import AccessMode
from repro.obs import NULL_METERS, NULL_TRACER
from repro.security.audit import AuditLog
from repro.security.mac import SecurityLabel
from repro.security.principal import PrincipalPattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.services import KernelServices
    from repro.proc.process import Process


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def _v_int(value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgument(f"expected an integer, got {value!r}")


def _v_uint(value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgument(f"expected an integer, got {value!r}")
    if value < 0:
        raise InvalidArgument(f"expected a non-negative integer, got {value!r}")


def _v_str(value: object) -> None:
    if not isinstance(value, str):
        raise InvalidArgument(f"expected a string, got {value!r}")


def _v_name(value: object) -> None:
    if not isinstance(value, str):
        raise InvalidArgument(f"expected a string, got {value!r}")
    validate_name(value)


def _v_path(value: object) -> None:
    _v_str(value)
    split_path(value)  # type: ignore[arg-type]


def _v_mode(value: object) -> None:
    _v_str(value)
    try:
        AccessMode.from_string(value)  # type: ignore[arg-type]
    except ValueError as exc:
        raise InvalidArgument(str(exc)) from None


def _v_pattern(value: object) -> None:
    _v_str(value)
    try:
        PrincipalPattern.parse(value)  # type: ignore[arg-type]
    except ValueError as exc:
        raise InvalidArgument(str(exc)) from None


def _v_label(value: object) -> None:
    if not isinstance(value, SecurityLabel):
        raise InvalidArgument(f"expected a SecurityLabel, got {value!r}")


def _v_words(value: object) -> None:
    if not isinstance(value, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) for w in value
    ):
        raise InvalidArgument("expected a list of integer words")


def _v_any(value: object) -> None:
    return None


VALIDATORS: dict[str, Callable[[object], None]] = {
    "int": _v_int,
    "uint": _v_uint,
    "segno": _v_uint,
    "str": _v_str,
    "name": _v_name,
    "path": _v_path,
    "mode": _v_mode,
    "pattern": _v_pattern,
    "label": _v_label,
    "words": _v_words,
    "any": _v_any,
}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

#: Default brackets for a user-callable kernel gate.
USER_GATE = RingBrackets(0, 0, NUM_RINGS - 1)
#: Brackets for gates callable only by trusted rings (<= 1).
PRIVILEGED_GATE = RingBrackets(0, 0, 1)


@dataclass(frozen=True)
class Gate:
    """One protected entry point.

    What the choke point needs of the gate on every call and that no
    call can change is resolved once, at construction: the validator
    of each argument, and the ring a call from each ring runs in.
    """

    name: str
    category: str
    handler: Callable[..., object]
    signature: tuple[str, ...] = ()
    brackets: RingBrackets = USER_GATE
    #: Which removal project eliminates this gate (None = kept by the
    #: minimized kernel): "linker", "naming", "device_io", "login".
    removed_by: str | None = None
    doc: str = ""
    #: ``signature``'s validators, in order (None for a spec that names
    #: none; :meth:`GateTable.register` refuses such a gate).
    validators: tuple = field(init=False, compare=False, repr=False)
    #: Caller ring -> the ring the handler runs in, for each ring 0..r3
    #: (``target_ring`` refuses only rings above the call bracket).
    targets: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "validators", tuple(
            VALIDATORS.get(spec) for spec in self.signature
        ))
        object.__setattr__(self, "targets", {
            ring: self.brackets.target_ring(ring)
            for ring in range(self.brackets.r3 + 1)
        })

    def user_available(self) -> bool:
        """Callable from an ordinary user ring?"""
        from repro.config import USER_RING

        return self.brackets.r3 >= USER_RING


class GateViolationError(AccessViolation):
    """Raised when a call names a gate the supervisor does not export."""


class GateTable:
    """All gates of one supervisor, plus the call choke point."""

    def __init__(self, services: "KernelServices", audit: AuditLog) -> None:
        self.services = services
        self.audit = audit
        self._gates: dict[str, Gate] = {}
        self.calls = 0
        self.rejections = 0
        self.tracer = getattr(services, "tracer", None) or NULL_TRACER
        self.meters = getattr(services, "meters", None) or NULL_METERS
        self.claim_metrics()

    def claim_metrics(self) -> None:
        """Bind the ``gate.*`` metric sources to this table.

        The registry's latest-owner-wins rebinding makes this the
        install step when a system swaps supervisors: the active table
        is the one the counters read.
        """
        metrics = getattr(self.services, "metrics", None)
        if metrics is not None:
            metrics.counter("gate.calls", "gate invocations",
                            source=lambda: self.calls)
            metrics.counter("gate.rejections",
                            "gate calls refused before dispatch",
                            source=lambda: self.rejections)

    # -- registration ---------------------------------------------------------

    def register(self, gate: Gate) -> None:
        if gate.name in self._gates:
            raise ValueError(f"gate {gate.name} already registered")
        for spec in gate.signature:
            if spec not in VALIDATORS:
                raise ValueError(f"unknown validator spec {spec!r}")
        self._gates[gate.name] = gate

    def register_all(self, gates: list[Gate]) -> None:
        for gate in gates:
            self.register(gate)

    # -- census (experiments E1, E2) -------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._gates)

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise GateViolationError(f"no gate named {name!r}") from None

    def user_available_gates(self) -> list[Gate]:
        return [g for g in self._gates.values() if g.user_available()]

    def by_category(self) -> dict[str, int]:
        census: dict[str, int] = {}
        for gate in self._gates.values():
            census[gate.category] = census.get(gate.category, 0) + 1
        return census

    # -- the choke point ----------------------------------------------------------

    def call(self, process: "Process", name: str, *args: object) -> object:
        """Invoke a gate on behalf of ``process``.

        Raises the gate's own :class:`KernelDenial` subclasses on
        refusal, :class:`AccessViolation` on ring/gate violations, and
        :class:`InvalidArgument` on malformed arguments.
        """
        if not self.tracer.enabled:
            return self._call(process, name, *args)
        sid = self.tracer.begin("gate", gate=name, caller_ring=process.ring,
                                process=process.name)
        try:
            result = self._call(process, name, *args)
        except BaseException as exc:
            self.tracer.end(sid, outcome=type(exc).__name__)
            raise
        self.tracer.end(sid, outcome="granted")
        return result

    def _call(self, process: "Process", name: str, *args: object) -> object:
        self.calls += 1
        gate = self._gates.get(name) or self.gate(name)
        services = self.services
        clock = services.sim.clock
        meters = self.meters
        log = self.audit.log
        subject = str(process.principal) if process.principal else process.name

        # 1. Ring check + cross-ring cost.
        caller_ring = process.ring
        new_ring = gate.targets.get(caller_ring)
        if new_ring is None:
            try:
                new_ring = gate.brackets.target_ring(caller_ring)
            except AccessViolation:
                self.rejections += 1
                meters.note_gate_denied(process, name)
                log(clock.now, subject, name, "call", "denied",
                    f"ring {caller_ring} outside bracket", caller_ring,
                    "ring")
                raise
        cost = call_cost(services.config.costs, services.config.ring_mode,
                         caller_ring, new_ring)
        process.cpu_cycles += cost
        services.gate_cycles += cost
        meters.note_gate(process, name, cost, new_ring != caller_ring)
        if self.tracer.enabled and new_ring != caller_ring:
            self.tracer.point(
                "ring_crossing", origin="gate", gate=name,
                from_ring=caller_ring, to_ring=new_ring,
            )

        # 2. Argument validation before anything else runs.
        validators = gate.validators
        if len(args) != len(validators):
            self.rejections += 1
            meters.note_gate_denied(process, name)
            log(clock.now, subject, name, "call", "denied",
                f"expected {len(validators)} args, got {len(args)}",
                caller_ring, "args")
            raise InvalidArgument(
                f"{name}: expected {len(validators)} arguments, "
                f"got {len(args)}"
            )
        for validate, value in zip(validators, args):
            try:
                validate(value)
            except InvalidArgument as exc:
                self.rejections += 1
                meters.note_gate_denied(process, name)
                log(clock.now, subject, name, "call", "denied", str(exc),
                    caller_ring, "args")
                raise

        # 3. Dispatch, in the gate's target ring.
        process.ring = new_ring
        try:
            result = gate.handler(services, process, *args)
        except (KernelDenial, AccessViolation) as denial:
            meters.note_gate_denied(process, name)
            log(clock.now, subject, name, "call", "denied", str(denial),
                caller_ring, "gate")
            raise
        except Exception as crash:
            # A handler malfunction in ring 0: a supervisor incident
            # (the legacy linker's disease — see experiment E11).
            services.supervisor_incidents += 1
            log(clock.now, subject, name, "call", "error",
                f"{type(crash).__name__}: {crash}", caller_ring, "gate")
            raise
        finally:
            process.ring = caller_ring
        log(clock.now, subject, name, "call", "granted", "", caller_ring,
            "gate")
        return result
