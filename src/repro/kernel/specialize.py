"""Specialized per-workload kernels (the KASR direction: one kernel cut
down to the surface a workload was observed to use).

The paper's core move is shrinking the protected mechanism.  This
module pushes it one step further with automation: instead of a human
certifier deciding which gates a supervisor needs, a
:class:`KernelProfiler` folds the meter/audit traces of a *training
run* of a seeded workload into a :class:`GateProfile` — which gates
the workload entered, which fault paths it took, which kernel services
it reached — and :func:`specialize` generates a
:class:`SpecializedKernel` whose gate table populates only the
profiled gates.

Every unprofiled gate still *exists* (same name, same ring brackets,
same argument validation — the perimeter census is unchanged), but its
handler is a deny-and-audit stub: denial of use, never wrong data, and
every refusal flows through the same audit funnel as any other kernel
denial.  The security argument a certifier must check therefore
shrinks from the full gate inventory to the profiled subset plus one
stub, and E21 measures the reduction instead of asserting it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReproError, SpecializationDenial
from repro.kernel.fs_gates import fs_gates
from repro.kernel.gates import Gate, GateTable
from repro.kernel.io_gates import network_gates
from repro.kernel.kernel import Supervisor
from repro.kernel.metrics import count_statements
from repro.kernel.proc_gates import proc_gates

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.services import KernelServices


def full_kernel_gates() -> list[Gate]:
    """The security kernel's complete gate inventory (the specialization
    baseline: what a workload would get without a profile)."""
    return fs_gates() + proc_gates() + network_gates()


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateProfile:
    """What one workload class was observed to need from the kernel."""

    name: str
    #: Gate names the workload *entered* (past the ring check).
    gates: frozenset[str] = frozenset()
    #: Fault paths taken (page_fault, interrupt, fault_recovery).
    fault_paths: frozenset[str] = frozenset()
    #: Kernel service categories reached (gate categories).
    services: frozenset[str] = frozenset()
    #: Gate entries observed during training (profile weight).
    trained_calls: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", frozenset(self.gates))
        object.__setattr__(self, "fault_paths", frozenset(self.fault_paths))
        object.__setattr__(self, "services", frozenset(self.services))

    def __contains__(self, gate_name: str) -> bool:
        return gate_name in self.gates

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "gates": sorted(self.gates),
            "fault_paths": sorted(self.fault_paths),
            "services": sorted(self.services),
            "trained_calls": self.trained_calls,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GateProfile":
        return cls(
            name=doc["name"],
            gates=frozenset(doc.get("gates", ())),
            fault_paths=frozenset(doc.get("fault_paths", ())),
            services=frozenset(doc.get("services", ())),
            trained_calls=doc.get("trained_calls", 0),
        )


#: The profile of a workload that was never observed doing anything.
EMPTY_PROFILE = GateProfile(name="empty")


class KernelProfiler:
    """Folds a training run's meter/audit traces into a GateProfile.

    Construct it over a booted system (or raw services) *before* the
    training workload runs — construction marks the baseline — then
    call :meth:`profile` after the run to fold everything observed
    since the mark.
    """

    #: Fault paths, each recognized by a metrics counter advancing.
    FAULT_PATH_COUNTERS = {
        "page_fault": "pc.faults_serviced",
        "interrupt": "intr.delivered",
        "fault_recovery": "faults.recovered",
    }

    def __init__(self, system) -> None:
        self.services: "KernelServices" = getattr(system, "services", system)
        self._categories = {g.name: g.category for g in full_kernel_gates()}
        self.mark()

    def mark(self) -> None:
        """Set the observation baseline to now."""
        self._audit_mark = self.services.audit.seq
        self._counter_mark = dict(
            self.services.metrics.snapshot()["counters"]
        )
        meters = getattr(self.services, "meters", None)
        usage = meters.gate_usage() if meters is not None else {}
        self._gate_call_mark = {name: m.calls for name, m in usage.items()}

    def profile(self, name: str, remark: bool = False) -> GateProfile:
        """Fold everything observed since the last mark into a profile.

        The audit is the primary source: at level ``all`` it records
        every gate invocation with its decision.  A gate counts as
        *entered* unless the ring check turned the call away (those
        never reached kernel software).  The per-gate meters
        corroborate: any gate the metering plane saw advance is folded
        in too.

        Raises :class:`ReproError` rather than profile an incomplete
        window: one recorded at a level other than ``all``, or one
        whose oldest records the capacity bound already dropped (the
        profile would silently lose the gates they named).
        """
        audit = self.services.audit
        if audit.level != "all":
            raise ReproError(
                f"cannot profile at audit level {audit.level!r}: only "
                f"level 'all' records every gate call"
            )
        lost = audit.seq - self._audit_mark - len(audit)
        if lost > 0:
            raise ReproError(
                f"{lost} records since the mark fell out of the audit's "
                f"{audit.capacity}-record ring; raise audit_capacity"
            )
        gates: set[str] = set()
        entered = 0
        for record in audit.records():
            if record.seq <= self._audit_mark or record.action != "call":
                continue
            if record.decision == "denied" and record.category == "ring":
                continue  # the hardware turned it away at the perimeter
            gates.add(record.object)
            entered += 1
        meters = getattr(self.services, "meters", None)
        if meters is not None:
            for gate, meter in meters.gate_usage().items():
                if meter.calls > self._gate_call_mark.get(gate, 0):
                    gates.add(gate)
        counters = self.services.metrics.snapshot()["counters"]
        fault_paths = {
            path
            for path, counter in self.FAULT_PATH_COUNTERS.items()
            if counters.get(counter, 0) > self._counter_mark.get(counter, 0)
        }
        reached = {
            self._categories[g] for g in gates if g in self._categories
        }
        profile = GateProfile(
            name=name,
            gates=frozenset(gates),
            fault_paths=frozenset(fault_paths),
            services=frozenset(reached),
            trained_calls=entered,
        )
        if remark:
            self.mark()
        return profile


# ---------------------------------------------------------------------------
# the specialized gate table
# ---------------------------------------------------------------------------

def _handler_statements(handlers: Iterable) -> int:
    """Statement count over distinct handler bodies (shared handlers —
    and the one deny-stub body every stub closure compiles to — count
    once)."""
    seen: set = set()
    total = 0
    for handler in handlers:
        key = getattr(handler, "__code__", handler)
        if key in seen:
            continue
        seen.add(key)
        total += count_statements(handler)
    return total


class SpecializedGateTable(GateTable):
    """A gate table whose unprofiled entries are deny-and-audit stubs.

    The stub keeps the original gate's brackets and signature, so the
    ring check and argument validation behave exactly as on the full
    kernel; only the handler differs — it refuses with
    :class:`SpecializationDenial`, which the choke point audits through
    the same funnel as every other kernel denial.
    """

    def __init__(self, services: "KernelServices", audit,
                 profile: GateProfile) -> None:
        self.profile = profile
        self.deny_stub_hits = 0
        self.stub_names: set[str] = set()
        self._reachable_cache: tuple[int, int] | None = None
        super().__init__(services, audit)
        self._register_specialize_metrics(services)

    # -- registration ---------------------------------------------------------

    def register(self, gate: Gate) -> None:
        super().register(gate)
        self._reachable_cache = None

    def register_stub(self, gate: Gate) -> None:
        """Register ``gate`` with its handler replaced by a deny stub
        (brackets and signature unchanged)."""
        stub = replace(
            gate,
            handler=self._make_stub(gate.name),
            doc=f"deny stub ({self.profile.name}): {gate.doc}",
        )
        self.register(stub)
        self.stub_names.add(gate.name)

    def _make_stub(self, name: str):
        def specialize_deny_stub(services, process, *args):
            self.deny_stub_hits += 1
            raise SpecializationDenial(
                f"{name} is outside workload profile {self.profile.name!r}"
            )

        return specialize_deny_stub

    # -- surface census -------------------------------------------------------

    def live_gate_count(self) -> int:
        return len(self._gates) - len(self.stub_names)

    def stub_count(self) -> int:
        return len(self.stub_names)

    def reachable_statements(self) -> int:
        """Statements reachable through this table's handlers (live
        handler bodies plus the single shared stub body)."""
        if (self._reachable_cache is not None
                and self._reachable_cache[0] == len(self._gates)):
            return self._reachable_cache[1]
        total = _handler_statements(
            gate.handler for gate in self._gates.values()
        )
        self._reachable_cache = (len(self._gates), total)
        return total

    # -- metrics --------------------------------------------------------------

    def _register_specialize_metrics(self, services) -> None:
        """Aggregate ``specialize.*`` sources, registered once per
        substrate and fed by every specialized table built over it."""
        metrics = getattr(services, "metrics", None)
        if metrics is None:
            return
        tables = getattr(services, "specialized_tables", None)
        if tables is None:
            tables = []
            services.specialized_tables = tables
            metrics.gauge(
                "specialize.kernels",
                "specialized kernels built over this substrate",
                source=lambda: len(services.specialized_tables),
            )
            metrics.gauge(
                "specialize.gates",
                "live (profiled) gates across specialized kernels",
                source=lambda: sum(
                    t.live_gate_count() for t in services.specialized_tables
                ),
            )
            metrics.gauge(
                "specialize.deny_stubs",
                "deny-and-audit stubs across specialized kernels",
                source=lambda: sum(
                    t.stub_count() for t in services.specialized_tables
                ),
            )
            metrics.counter(
                "specialize.deny_stub_hits",
                "calls refused by deny stubs (unprofiled gates reached)",
                source=lambda: sum(
                    t.deny_stub_hits for t in services.specialized_tables
                ),
            )
            metrics.gauge(
                "specialize.reachable_statements",
                "protected statements reachable through specialized tables",
                source=lambda: sum(
                    t.reachable_statements()
                    for t in services.specialized_tables
                ),
            )
        tables.append(self)


# ---------------------------------------------------------------------------
# the specialized kernel
# ---------------------------------------------------------------------------

class SpecializedKernel(Supervisor):
    """A security kernel reduced to one workload profile's gate set."""

    def __init__(self, services: "KernelServices",
                 profile: GateProfile) -> None:
        self.profile = profile
        self.system_kind = f"specialized:{profile.name}"
        super().__init__(services)

    def _make_table(self) -> SpecializedGateTable:
        return SpecializedGateTable(
            self.services, self.services.audit, self.profile
        )

    def _register_gates(self) -> None:
        for gate in full_kernel_gates():
            if gate.name in self.profile.gates:
                self.gates.register(gate)
            else:
                self.gates.register_stub(gate)

    # -- surface report (what E21 sweeps) -------------------------------------

    def surface_report(self) -> dict:
        """Attack-surface numbers vs. the full kernel, measured from
        the live table (not asserted)."""
        full = full_kernel_gates()
        full_statements = _handler_statements(g.handler for g in full)
        live = self.gates.live_gate_count()
        reachable = self.gates.reachable_statements()
        return {
            "profile": self.profile.name,
            "gates_total": len(full),
            "gates_live": live,
            "deny_stubs": self.gates.stub_count(),
            "gate_reduction": round(1 - live / len(full), 4),
            "reachable_statements": reachable,
            "full_statements": full_statements,
            "statement_reduction": round(
                1 - reachable / full_statements, 4
            ),
            "trained_calls": self.profile.trained_calls,
            "fault_paths": sorted(self.profile.fault_paths),
            "services": sorted(self.profile.services),
        }


def specialize(system_or_services, profile: GateProfile) -> SpecializedKernel:
    """Generate the specialized kernel for ``profile`` over a system's
    (or raw) kernel services."""
    services = getattr(system_or_services, "services", system_or_services)
    return SpecializedKernel(services, profile)
