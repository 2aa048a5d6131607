"""Deterministic, seedable fault plans.

A :class:`FaultPlan` describes *which* injection sites fail and *how*.
Sites are dotted strings named by the hardware models that consult the
plan:

===========================  ==================================================
site                         failure kinds understood there
===========================  ==================================================
``memory.<level>.read``      ``parity`` — a parity hit on a frame read
``memory.transfer``          ``transfer_error`` — a page move fails mid-flight
``device.<name>``            ``transfer_error``, ``hang``, ``lost_interrupt``
``net.deliver``              ``drop``, ``duplicate``
``link.<name>``              ``drop``, ``latency_spike``, ``partition``,
                             ``flap`` — per-transit faults on one routed
                             link of the network topology
``cpu.loss``                 ``offline`` — a CPU leaves the SMP complex
                             (scenario-driven only; see repro.faults.chaos)
===========================  ==================================================

Each :class:`FaultSpec` is either *schedule-driven* (``at_ops``: inject
on exactly those 1-based operation indices of the site — the tool for
deterministic unit tests) or *probability-driven* (``rate``: each
operation fails with that probability, drawn from a private RNG stream
seeded by ``(seed, spec, site)``) — never both, because a spec with
both would fire on the scheduled ops *and* randomly, which reads as
one rule but behaves as two.  Two runs of the same workload under
the same plan therefore inject identical faults at identical
operations: the containment experiments compare audit logs across runs
and demand equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a fault plan."""

    #: Site the rule applies to: exact (``device.tty1``) or a prefix
    #: wildcard (``memory.*``).
    site: str
    #: Failure kind to inject (see module table).
    kind: str
    #: Per-operation injection probability (probability-driven rule).
    rate: float = 0.0
    #: Explicit 1-based operation indices to fail (schedule-driven rule).
    at_ops: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.site or not self.kind:
            raise ValueError("a fault spec needs a site and a kind")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} is not a probability")
        if self.rate == 0.0 and not self.at_ops:
            raise ValueError("a fault spec needs a rate or a schedule")
        if self.rate > 0.0 and self.at_ops:
            raise ValueError(
                "a fault spec takes a rate or a schedule, not both "
                f"(site {self.site!r} sets rate={self.rate} and "
                f"at_ops={list(self.at_ops)})"
            )

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site


class FaultPlan:
    """A deterministic schedule of hardware failures.

    The plan is consulted once per operation at each site; the decision
    sequence is a pure function of ``(seed, specs, per-site operation
    counts)``.  The same plan object must not be shared between two
    systems (it carries the operation counters); build one per system
    or call :meth:`fork` for a fresh copy.
    """

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int = 0) -> None:
        self.specs = list(specs or [])
        self.seed = seed
        #: site -> operations seen (1-based after increment).
        self._ops: dict[str, int] = {}
        #: (spec identity, site) -> private RNG stream.
        self._streams: dict[tuple[int, str], random.Random] = {}

    def fork(self) -> "FaultPlan":
        """A fresh plan with the same rules and seed, zero history."""
        return FaultPlan(self.specs, self.seed)

    def decide(self, site: str) -> str | None:
        """One operation happened at ``site``; fail it?

        Returns the failure kind to inject, or None.  The first
        matching rule that fires wins.
        """
        op = self._ops.get(site, 0) + 1
        self._ops[site] = op
        for index, spec in enumerate(self.specs):
            if not spec.matches(site):
                continue
            if op in spec.at_ops:
                return spec.kind
            if spec.rate and self._stream(index, site).random() < spec.rate:
                return spec.kind
        return None

    def _stream(self, spec_index: int, site: str) -> random.Random:
        key = (spec_index, site)
        stream = self._streams.get(key)
        if stream is None:
            spec = self.specs[spec_index]
            stream = random.Random(
                f"{self.seed}|{spec.site}|{spec.kind}|{site}"
            )
            self._streams[key] = stream
        return stream

    def describe(self) -> str:
        rules = ", ".join(
            f"{s.site}:{s.kind}"
            + (f"@{s.rate}" if s.rate else f"@ops{list(s.at_ops)}")
            for s in self.specs
        )
        return f"FaultPlan(seed={self.seed}, {rules or 'empty'})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()
