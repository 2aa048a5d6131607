"""Interval time-series sampling of the metrics registry.

The registry's :meth:`~repro.obs.registry.MetricsRegistry.snapshot` is
one end-of-run aggregate: a chaos storm that collapses throughput at
t=80k and recovers by t=140k is invisible in it.  The
:class:`TimelineSampler` turns the same instruments into a **time
series**: polled at deterministic points of the simulated run (SMP
lockstep round boundaries, workload-driver burst boundaries), it
records one sample per elapsed sampling interval — per-interval counter
*deltas*, gauge *levels*, and rolling histogram percentiles from the
bounded reservoirs — into a bounded ring exported as a
schema-validated ``repro.timeline/v1`` document.

The design inherits the observability plane's two contracts:

* **Zero simulated-cycle overhead.**  Polling only reads instruments;
  it never charges cycles or schedules events, so the simulated clock
  and every architectural result are byte-identical with the sampler
  on or off (bench E20 asserts the identity).  Off by default via
  ``SystemConfig.timeline``.

* **Determinism.**  Sampling decisions depend only on the simulated
  clock, never the wall clock, and every recorded value is a simulated
  quantity — so same seed, same config ⇒ byte-identical timeline
  documents, per shard and merged (the shard layer folds per-shard
  timelines in shard-id order; see
  :func:`repro.workloads.shards.merge.merge_timelines`).

Samples are aligned to interval *indices*: interval ``k`` covers
simulated time ``[t0 + k·interval, t0 + (k+1)·interval)`` and at most
one sample is ever recorded per index (the first poll at or past the
boundary takes it, covering everything since the previous sample; a
forced end-of-run flush inside an already-sampled interval is
attributed to the next index, keeping indices strictly increasing).
Indices are what the cross-shard merge folds on.
"""

from __future__ import annotations

from collections import deque

from repro.obs.registry import _NAME_RE

#: Timeline document schema identifier and version.
SCHEMA = "repro.timeline/v1"
SCHEMA_VERSION = 1

#: Default sampling interval, in simulated cycles.
DEFAULT_INTERVAL = 2000
#: Default ring capacity, in samples.
DEFAULT_CAPACITY = 512

#: Quantiles recorded per histogram each sample (rolling, over the
#: deterministic reservoir) and their document keys.
PERCENTILES = ((0.50, "p50"), (0.95, "p95"))
_QUANTILES, _KEYS = zip(*PERCENTILES)

#: Keys a timeline config dict (``SystemConfig.timeline``) may carry.
CONFIG_KEYS = ("interval", "capacity", "rules")


def validate_timeline_config(spec: object) -> None:
    """Raise ``ValueError`` unless ``spec`` is a valid timeline config.

    Shape: ``{"interval": int, "capacity": int, "rules": [...]}`` — all
    keys optional; ``rules`` is a health-rule list validated by
    :func:`repro.obs.health.validate_rules`.
    """
    if not isinstance(spec, dict):
        raise ValueError(
            f"timeline config must be a dict, got {type(spec).__name__}"
        )
    unknown = set(spec) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(
            f"timeline config: unknown keys {sorted(unknown)} "
            f"(known: {CONFIG_KEYS})"
        )
    for key in ("interval", "capacity"):
        if key in spec and (not isinstance(spec[key], int)
                            or spec[key] <= 0):
            raise ValueError(f"timeline config: {key} must be a "
                             f"positive integer, got {spec[key]!r}")
    if "rules" in spec:
        from repro.obs.health import validate_rules

        validate_rules(spec["rules"])


class TimelineSampler:
    """Records interval samples of one registry into a bounded ring."""

    def __init__(self, registry, clock, interval: int = DEFAULT_INTERVAL,
                 capacity: int = DEFAULT_CAPACITY,
                 metrics=None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.registry = registry
        self.clock = clock
        self.interval = interval
        self.capacity = capacity
        self.t0 = clock.now
        self.samples: deque[dict] = deque()
        #: Listeners called with each new sample (the health monitor).
        self.listeners: list = []
        # Accounting (the timeline.* metric sources).
        self.polls = 0
        self.taken = 0
        self.dropped = 0
        self._last_t = clock.now
        self._last_index = -1
        self._next_at = self.t0 + interval
        self._last_counters: dict[str, int] = {
            name: c.value for name, c in registry._counters.items()
        }
        self._last_hist: dict[str, tuple[int, float]] = {
            name: (h.count, h.sum)
            for name, h in registry._histograms.items()
        }
        if metrics is not None:
            metrics.counter("timeline.polls",
                            "sampling-point checks performed",
                            source=lambda: self.polls)
            metrics.counter("timeline.samples", "interval samples recorded",
                            source=lambda: self.taken)
            metrics.counter("timeline.dropped",
                            "samples evicted by the ring capacity",
                            source=lambda: self.dropped)
            metrics.gauge("timeline.interval",
                          "sampling interval, simulated cycles",
                          source=lambda: self.interval)

    # -- sampling --------------------------------------------------------

    def poll(self, force: bool = False) -> bool:
        """Record a sample if an interval boundary has been crossed.

        Called at deterministic points of the run (lockstep round ends,
        burst boundaries); reads instruments only — zero simulated
        cycles.  ``force`` records a sample mid-interval (the driver's
        end-of-run flush) so trailing activity is never lost; the
        interval index still advances, so no index ever gets two
        samples.  Returns whether a sample was recorded.
        """
        self.polls += 1
        now = self.clock.now
        if now <= self._last_t:
            return False
        if not force and now < self._next_at:
            return False
        index = (now - self.t0) // self.interval
        if index <= self._last_index:
            # A forced flush inside an already-sampled interval: the
            # tail activity is attributed to the next index so indices
            # stay strictly increasing (one sample per index).
            index = self._last_index + 1
        registry = self.registry
        counters: dict[str, int] = {}
        last = self._last_counters
        for name, counter in registry._counters.items():
            value = counter.value
            delta = value - last.get(name, 0)
            last[name] = value
            if delta:
                counters[name] = delta
        gauges = {
            name: gauge.value
            for name, gauge in sorted(registry._gauges.items())
        }
        histograms: dict[str, dict] = {}
        for name, hist in sorted(registry._histograms.items()):
            if not hist.count:
                continue
            c0, s0 = self._last_hist.get(name, (0, 0))
            self._last_hist[name] = (hist.count, hist.sum)
            row = {"count": hist.count - c0, "sum": hist.sum - s0}
            row.update(zip(_KEYS, hist.percentiles(_QUANTILES)))
            histograms[name] = row
        sample = {
            "index": index,
            "t": now,
            "dt": now - self._last_t,
            "counters": dict(sorted(counters.items())),
            "gauges": gauges,
            "histograms": histograms,
        }
        if len(self.samples) == self.capacity:
            self.samples.popleft()
            self.dropped += 1
        self.samples.append(sample)
        self.taken += 1
        self._last_t = now
        self._last_index = index
        self._next_at = self.t0 + (index + 1) * self.interval
        for listener in self.listeners:
            listener(sample)
        return True

    # -- export ----------------------------------------------------------

    def to_doc(self, breaches: list[dict] | None = None) -> dict:
        """The ring as one ``repro.timeline/v1`` document."""
        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "t0": self.t0,
            "interval": self.interval,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "samples": [dict(s) for s in self.samples],
            "breaches": [dict(b) for b in (breaches or [])],
        }


def _check_table(errors: list[str], where: str, table: object,
                 allow_null: bool = False) -> None:
    if not isinstance(table, dict):
        errors.append(f"{where}: must be an object")
        return
    for name, value in table.items():
        if not _NAME_RE.match(name):
            errors.append(f"{where}: bad metric name {name!r}")
        if not (isinstance(value, (int, float)) and not isinstance(
                value, bool)) and not (allow_null and value is None):
            errors.append(f"{where}.{name}: value must be a number")


def validate_timeline(doc: object) -> list[str]:
    """Schema check for one timeline document; returns violations.

    The single source of truth consumed by
    ``scripts/check_bench_schema.py`` for ``repro.timeline/v1``
    exports — keep in sync with :meth:`TimelineSampler.to_doc` and the
    shard merge.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"timeline must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, "
                      f"got {doc.get('schema_version')!r}")
    for key in ("t0", "interval", "capacity", "dropped"):
        if not isinstance(doc.get(key), int) or isinstance(
                doc.get(key), bool):
            errors.append(f"{key} must be an integer")
    if isinstance(doc.get("interval"), int) and doc["interval"] <= 0:
        errors.append("interval must be positive")
    if "n_shards" in doc and not isinstance(doc["n_shards"], int):
        errors.append("n_shards must be an integer")
    samples = doc.get("samples")
    if not isinstance(samples, list):
        errors.append("samples must be a list")
        samples = []
    previous = None
    for i, sample in enumerate(samples):
        where = f"samples[{i}]"
        if not isinstance(sample, dict):
            errors.append(f"{where}: must be an object")
            continue
        for key in ("index", "t", "dt"):
            if not isinstance(sample.get(key), int):
                errors.append(f"{where}.{key} must be an integer")
        index = sample.get("index")
        if isinstance(index, int):
            if previous is not None and index <= previous:
                errors.append(
                    f"{where}: index {index} not after {previous}"
                )
            previous = index
        _check_table(errors, f"{where}.counters", sample.get("counters"))
        _check_table(errors, f"{where}.gauges", sample.get("gauges"))
        rows = sample.get("histograms")
        if not isinstance(rows, dict):
            errors.append(f"{where}.histograms must be an object")
            continue
        for name, row in rows.items():
            if not _NAME_RE.match(name):
                errors.append(f"{where}.histograms: bad name {name!r}")
            if not isinstance(row, dict):
                errors.append(f"{where}.histograms.{name}: "
                              "must be an object")
                continue
            missing = {"count", "sum"} - set(row)
            if missing:
                errors.append(f"{where}.histograms.{name}: "
                              f"missing keys {sorted(missing)}")
    breaches = doc.get("breaches")
    if not isinstance(breaches, list):
        errors.append("breaches must be a list")
        breaches = []
    for i, breach in enumerate(breaches):
        where = f"breaches[{i}]"
        if not isinstance(breach, dict):
            errors.append(f"{where}: must be an object")
            continue
        for key in ("t", "index"):
            if not isinstance(breach.get(key), int):
                errors.append(f"{where}.{key} must be an integer")
        for key in ("rule", "kind"):
            if not isinstance(breach.get(key), str) or not breach.get(key):
                errors.append(f"{where}.{key} must be a non-empty string")
        for key in ("value", "limit"):
            if not isinstance(breach.get(key), (int, float)) or isinstance(
                    breach.get(key), bool):
                errors.append(f"{where}.{key} must be a number")
    return errors
