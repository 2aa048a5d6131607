"""Bounded retry with backoff in simulated time.

One policy governs every recovery site (kernel word reads, page
transfers, device completions): :class:`RetryPolicy`, whose defaults
are the only place its numbers live.  Backoff is measured in cycles of
the simulated clock: synchronous paths *charge* the cycles, DES paths
*wait* them out via the simulator — there is no wall-clock sleeping
anywhere in the fault plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.errors import DeviceError, TransientFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the kernel tries before giving up on an I/O path."""

    #: Retries before a transient fault becomes :class:`DeviceError`.
    max_retries: int = 3
    #: Backoff, in simulated cycles, before the first retry; it doubles
    #: per attempt.
    backoff_base: int = 32

    def backoff(self, attempt: int) -> int:
        """Cycles to back off before retry number ``attempt`` (1-based)."""
        if attempt <= 0:
            raise ValueError("attempts are 1-based")
        return self.backoff_base << (attempt - 1)


def retry_call(
    thunk: Callable[[], T],
    policy: RetryPolicy,
    injector: "FaultInjector | None",
    site: str,
    tracer=None,
) -> tuple[T, int]:
    """Run ``thunk``, retrying transient faults up to the policy budget.

    Returns ``(result, backoff_cycles_spent)`` so the caller can charge
    the waiting to simulated time.  Exhausting the budget promotes the
    transient fault to :class:`DeviceError` (denial of use) after a
    ``fatal`` audit record.  A first failure opens a ``retry`` span on
    ``tracer`` (when given and enabled) covering the whole retry loop.
    """
    attempt = 0
    spent = 0
    sid = -1
    while True:
        try:
            result = thunk()
            if tracer is not None and sid >= 0:
                tracer.end(sid, attempts=attempt, spent=spent, outcome="ok")
            return result, spent
        except TransientFault as fault:
            attempt += 1
            if tracer is not None and sid < 0 and tracer.enabled:
                sid = tracer.begin("retry", site=site)
            if attempt > policy.max_retries:
                if injector is not None:
                    injector.note_fatal(site, str(fault))
                if tracer is not None and sid >= 0:
                    tracer.end(sid, attempts=attempt, spent=spent,
                               outcome="fatal")
                raise DeviceError(
                    f"{site}: failed after {policy.max_retries} retries: {fault}"
                ) from fault
            backoff = policy.backoff(attempt)
            spent += backoff
            if injector is not None:
                injector.note_recovered(
                    site, f"retry {attempt}", ticks=backoff, detail=str(fault)
                )
