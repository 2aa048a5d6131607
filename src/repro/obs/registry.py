"""The kernel-wide metrics registry.

Every measured claim the experiments make (gate counts aside) is a
number some subsystem accumulates at runtime.  Before this module those
numbers were ad-hoc integer attributes scattered across ``hw/``,
``proc/``, ``vm/``, ``io/``, and ``faults/``, and each bench reached
into private fields to read them.  The registry gives every such number
a *name* in one namespace and a uniform snapshot/export path, so a
bench (or an operator) consumes one JSON document instead of a grab-bag
of object attributes.

Three instrument kinds:

* :class:`Counter` — a monotonically non-decreasing count (dispatches,
  faults serviced, messages dropped);
* :class:`Gauge` — a point-in-time level (free core frames, buffer
  backlog);
* :class:`Histogram` — a distribution summary (fault latency, recovery
  backoff ticks): count / sum / min / max / mean.

Hot-path migration rule: subsystems keep their plain integer attributes
(``self.dispatches += 1`` costs nothing and stays readable) and
register the attribute as the instrument's *source* — a zero-argument
callable the registry polls at snapshot time.  The hot path therefore
pays **zero** extra cost for being observable; only ``snapshot()``
pays, and only when called.  Low-frequency sites may instead increment
a source-less instrument directly.

Second rule: a source must cost O(1) in the population.  The timeline
sampler reads every source at every interval, so a source that adds
up one value per process turns sampling into the run's largest cost
at a few thousand processes.  Where a metric is a sum over processes,
keep a running total bumped where the per-process values change (the
``am.*`` sources read :class:`repro.hw.assoc.AmTotals`, the ``meter.*``
sources the metering plane's total bucket and its running total of the
live processes' cycles).

Naming scheme: lowercase dotted paths, ``<subsystem>.<metric>`` —
``sched.dispatches``, ``pc.faults_serviced``, ``mem.core.allocations``,
``io.buffer.overwrites``, ``faults.recovered``, ``gate.cycles``.

Re-registering a name returns the existing instrument; passing a new
``source`` rebinds it (the latest instrument owner wins — e.g. each
CPU a session builds takes over the ``cpu.*`` names).
"""

from __future__ import annotations

import json
import random
import re
from typing import Callable

#: Snapshot schema identifier and version.  Bump the version whenever
#: the snapshot document shape changes incompatibly; the bench-schema
#: guard (scripts/check_bench_schema.py) pins consumers to it.
SCHEMA = "repro.obs/v1"
SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
#: Public alias of the naming rule, for lint tests and external tools.
NAME_RE = _NAME_RE


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "doc", "source", "_value")

    def __init__(self, name: str, doc: str = "",
                 source: Callable[[], int] | None = None) -> None:
        self.name = name
        self.doc = doc
        self.source = source
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"{self.name}: counters only go up")
        self._value += n

    @property
    def value(self) -> int:
        return self.source() if self.source is not None else self._value


class Gauge:
    """A point-in-time level; may go up or down."""

    __slots__ = ("name", "doc", "source", "_value")

    def __init__(self, name: str, doc: str = "",
                 source: Callable[[], float] | None = None) -> None:
        self.name = name
        self.doc = doc
        self.source = source
        self._value = 0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self.source() if self.source is not None else self._value


#: Default reservoir size per histogram.  512 samples bound a
#: histogram's memory at any observation count while keeping
#: nearest-rank percentile estimates stable for the rolling-window
#: reads the timeline sampler performs.
RESERVOIR_SIZE = 512


class Histogram:
    """A distribution summary: count, sum, min, max (mean derived),
    plus a bounded sample reservoir for percentile estimates.

    ``count``/``sum``/``min``/``max`` are **exact** at any scale.  The
    reservoir holds at most ``reservoir_size`` observations via
    Vitter's Algorithm R with a per-name seeded RNG, so memory is O(1)
    in the observation count (a 100k-user run observes hundreds of
    thousands of latencies) and the kept sample — hence every
    percentile read — is a pure function of the observation sequence:
    same run, same percentiles, on any host or shard.
    """

    __slots__ = ("name", "doc", "count", "sum", "min", "max",
                 "reservoir", "reservoir_size", "_rng")

    def __init__(self, name: str, doc: str = "",
                 reservoir_size: int = RESERVOIR_SIZE) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.doc = doc
        self.count = 0
        self.sum = 0
        self.min: float | None = None
        self.max: float | None = None
        self.reservoir: list[float] = []
        self.reservoir_size = reservoir_size
        # Seeded by name, not by wall state: two systems observing the
        # same sequence keep byte-identical reservoirs.
        self._rng = random.Random(f"reservoir|{name}")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self.reservoir) < self.reservoir_size:
            self.reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir_size:
                self.reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the reservoir (None if empty).

        ``q`` is clamped to [0, 1].  Exact while fewer observations
        than the reservoir size have arrived; a deterministic uniform
        estimate beyond that.
        """
        return self.percentiles((q,))[0]

    def percentiles(self, qs: tuple[float, ...]) -> list[float | None]:
        """:meth:`percentile` for each of ``qs``, read from one sorted
        copy of the reservoir."""
        if not self.reservoir:
            return [None] * len(qs)
        ordered = sorted(self.reservoir)
        last = len(ordered) - 1
        return [ordered[int(max(0.0, min(1.0, q)) * last + 0.5)]
                for q in qs]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """One namespace of instruments plus the snapshot/export API."""

    def __init__(self, clock=None) -> None:
        #: Optional simulated clock; snapshots are stamped with its time.
        self.clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration (get-or-create) -----------------------------------

    def counter(self, name: str, doc: str = "",
                source: Callable[[], int] | None = None) -> Counter:
        return self._instrument(self._counters, Counter, name, doc, source)

    def gauge(self, name: str, doc: str = "",
              source: Callable[[], float] | None = None) -> Gauge:
        return self._instrument(self._gauges, Gauge, name, doc, source)

    def histogram(self, name: str, doc: str = "") -> Histogram:
        self._check_name(name)
        self._check_kind(name, self._histograms)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, doc)
        return instrument

    def _check_kind(self, name: str, table: dict) -> None:
        for other in (self._counters, self._gauges, self._histograms):
            if other is not table and name in other:
                raise ValueError(
                    f"metric {name!r} already registered as another kind"
                )

    def _instrument(self, table, cls, name, doc, source):
        self._check_name(name)
        self._check_kind(name, table)
        instrument = table.get(name)
        if instrument is None:
            instrument = table[name] = cls(name, doc, source)
        elif source is not None:
            # Latest owner wins: a rebuilt component (reboot, fresh CPU)
            # takes over its names rather than leaving them dangling.
            instrument.source = source
        return instrument

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"bad metric name {name!r}: want lowercase dotted path "
                "like 'sched.dispatches'"
            )

    # -- queries ---------------------------------------------------------

    def names(self) -> list[str]:
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )

    # -- snapshot / export ----------------------------------------------

    def snapshot(self) -> dict:
        """One self-describing document with every instrument's value."""
        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "clock": self.clock.now if self.clock is not None else None,
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Counter differences between two snapshots.

        **Counters only.**  Counters are flows, so ``after - before``
        is the activity between the two snapshots; a name present only
        in ``after`` (an instrument registered between the snapshots)
        counts from zero.  Gauges are point-in-time levels and
        histograms are distribution summaries — subtracting either
        produces a number with no physical meaning (a "free frames
        delta" is not a flow of frames; a min/max cannot be
        un-observed) — so both kinds are deliberately absent from the
        result.  Callers that want interval views of those kinds read
        the gauge's level at each boundary, or difference a histogram's
        exact ``count``/``sum`` themselves (what the timeline sampler
        does); ``min``/``max``/percentiles are not differentiable.
        """
        b = before["counters"]
        return {
            name: value - b.get(name, 0)
            for name, value in after["counters"].items()
        }


def validate_snapshot(doc: object) -> list[str]:
    """Schema check for one snapshot document; returns violations.

    This is the single source of truth consumed by the bench-schema
    guard (scripts/check_bench_schema.py) and the tier-1 test — keep it
    in sync with :meth:`MetricsRegistry.snapshot`.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"snapshot must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    if not (doc.get("clock") is None or isinstance(doc.get("clock"), int)):
        errors.append("clock must be an integer or null")
    for section, want_scalar in (("counters", True), ("gauges", True)):
        table = doc.get(section)
        if not isinstance(table, dict):
            errors.append(f"{section} must be an object")
            continue
        for name, value in table.items():
            if not _NAME_RE.match(name):
                errors.append(f"{section}: bad metric name {name!r}")
            if want_scalar and not isinstance(value, (int, float)):
                errors.append(f"{section}.{name}: value must be a number")
    # Bench exports (scripts/run_benches.py, the benchmark export
    # fixture) merge one extra section of derived numbers into the
    # snapshot; validate the merged document, not just the snapshot.
    if "bench" in doc and not isinstance(doc["bench"], dict):
        errors.append("bench section must be an object")
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        errors.append("histograms must be an object")
    else:
        for name, summary in histograms.items():
            if not _NAME_RE.match(name):
                errors.append(f"histograms: bad metric name {name!r}")
            if not isinstance(summary, dict):
                errors.append(f"histograms.{name}: must be an object")
                continue
            missing = {"count", "sum", "min", "max", "mean"} - set(summary)
            if missing:
                errors.append(
                    f"histograms.{name}: missing keys {sorted(missing)}"
                )
    return errors
