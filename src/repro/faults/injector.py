"""The runtime fault injector: plan consultation plus audit.

Hardware models hold an optional :class:`FaultInjector` and ask it one
question — :meth:`check` — at each injection point.  The injector is
also the recovery layer's notebook: every retry, degradation, and
fatality is recorded here *and* in the security audit log, so a single
log replays the whole failure story.  Audit outcomes used:

* ``injected`` — the plan made an operation fail;
* ``recovered`` — a retry or watchdog redelivery absorbed a fault;
* ``degraded`` — equipment was taken out of service, system running;
* ``fatal`` — bounded retries exhausted; the caller saw denial of use.

None of these outcomes overlaps ``granted``/``denied``, so security
queries over the audit log are unaffected by injection noise — which
is itself part of the containment argument.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.hw.clock import Clock
    from repro.security.audit import AuditLog

#: Audit subject for injections (the failing hardware itself).
HARDWARE_SUBJECT = "hardware.fault_plan"
#: Audit subject for recovery actions (the kernel's recovery layer).
RECOVERY_SUBJECT = "kernel.recovery"


class FaultInjector:
    """Consults a :class:`FaultPlan` and books every fault and fix."""

    def __init__(
        self,
        plan: "FaultPlan",
        audit: "AuditLog | None" = None,
        clock: "Clock | None" = None,
        metrics=None,
    ) -> None:
        self.plan = plan
        self.audit = audit
        self.clock = clock
        #: (time, site, kind) of every injected fault, in order.
        self.injected: list[tuple[int, str, str]] = []
        self.per_site: Counter[str] = Counter()
        self.recovered = 0
        self.degraded = 0
        self.fatal = 0
        #: Simulated ticks each recovery action took (bench material).
        self.recovery_ticks: list[int] = []
        self._h_recovery = None
        if metrics is not None:
            metrics.counter("faults.injected", "faults the plan injected",
                            source=lambda: self.injected_count)
            metrics.counter("faults.recovered", "faults absorbed by recovery",
                            source=lambda: self.recovered)
            metrics.counter("faults.degraded", "equipment taken out of service",
                            source=lambda: self.degraded)
            metrics.counter("faults.fatal", "retry budgets exhausted",
                            source=lambda: self.fatal)
            self._h_recovery = metrics.histogram(
                "faults.recovery_ticks",
                "simulated ticks per recovery action",
            )

    # -- the hardware-facing question ----------------------------------

    def check(self, site: str, detail: str = "") -> str | None:
        """Should the current operation at ``site`` fail, and how?"""
        kind = self.plan.decide(site)
        if kind is None:
            return None
        return self.force(site, kind, detail)

    def force(self, site: str, kind: str, detail: str = "") -> str:
        """Book a fault a scenario controller *commanded* (rather than
        one the plan decided) — the chaos engine's entry point.  Forced
        faults share the plan-driven books and audit trail, so one log
        still replays the whole failure story."""
        now = self._now()
        self.injected.append((now, site, kind))
        self.per_site[site] += 1
        self._log(HARDWARE_SUBJECT, site, f"inject:{kind}", "injected", detail)
        return kind

    # -- the recovery layer's notebook ---------------------------------

    def note_recovered(self, site: str, action: str, ticks: int = 0,
                       detail: str = "") -> None:
        self.recovered += 1
        self.recovery_ticks.append(ticks)
        if self._h_recovery is not None:
            self._h_recovery.observe(ticks)
        self._log(RECOVERY_SUBJECT, site, action, "recovered", detail)

    def note_degraded(self, site: str, detail: str = "") -> None:
        self.degraded += 1
        self._log(RECOVERY_SUBJECT, site, "out_of_service", "degraded", detail)

    def note_fatal(self, site: str, detail: str = "") -> None:
        self.fatal += 1
        self._log(RECOVERY_SUBJECT, site, "retries_exhausted", "fatal", detail)

    # -- queries --------------------------------------------------------

    @property
    def injected_count(self) -> int:
        return len(self.injected)

    # -- internals ------------------------------------------------------

    def _now(self) -> int:
        return self.clock.now if self.clock is not None else 0

    def _log(self, subject: str, site: str, action: str, outcome: str,
             detail: str) -> None:
        if self.audit is not None:
            self.audit.log(self._now(), subject, site, action, outcome, detail)
