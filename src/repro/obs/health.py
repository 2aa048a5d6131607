"""Declarative SLO rules evaluated over the interval timeline.

The paper's availability argument — "denial of use, never wrong data"
— is a statement about *service levels over time*: under a chaos storm
the system may slow down, but audited denials must stay complete and
recovery must follow.  The :class:`HealthMonitor` turns that into
checkable configuration: a list of declarative rules, each bound to
one metric series in the timeline samples, evaluated per interval as
the :class:`~repro.obs.timeline.TimelineSampler` records them.  Every
violation lands in a bounded breach log stamped with the simulated
time and interval index, so a bench (R2, E20) can assert "breaches
confined to the storm window, none after recovery" directly from the
exported document.

Rule kinds (``kind`` key):

* ``rate_floor`` — counter delta per interval must be >= ``min``.
  Optional ``when`` names a second counter that gates evaluation: the
  rule only fires in intervals where the ``when`` counter moved (e.g.
  "completions per interval >= N, but only in intervals that admitted
  work").
* ``rate_ceiling`` — counter delta per interval must be <= ``max``
  (``max: 0`` expresses completeness invariants such as "no audit
  records dropped, ever").
* ``gauge_floor`` / ``gauge_ceiling`` — the gauge's sampled level must
  be >= ``min`` / <= ``max``.
* ``percentile_ceiling`` — a histogram's rolling percentile (``q``,
  default 0.95) must be <= ``max``; ``q`` must be one of the quantiles
  the sampler records (:data:`repro.obs.timeline.PERCENTILES`).

Like the sampler, evaluation reads sample dicts only: zero simulated
cycles, identical architectural results with the monitor on or off.
"""

from __future__ import annotations

from repro.obs.timeline import PERCENTILES

#: Rule kinds and the keys each accepts beyond the common set.
KINDS = {
    "rate_floor": {"min", "when"},
    "rate_ceiling": {"max"},
    "gauge_floor": {"min"},
    "gauge_ceiling": {"max"},
    "percentile_ceiling": {"max", "q"},
}

#: Keys every rule carries.
COMMON_KEYS = {"name", "kind", "metric"}

#: Default breach-log bound.
DEFAULT_LOG_CAPACITY = 1024

#: Sample key of each quantile a ``percentile_ceiling`` rule may name.
_QUANTILE_KEYS = dict(PERCENTILES)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_rules(rules: object) -> None:
    """Raise ``ValueError`` unless ``rules`` is a valid SLO rule list."""
    if not isinstance(rules, (list, tuple)):
        raise ValueError(
            f"health rules must be a list, got {type(rules).__name__}"
        )
    seen: set[str] = set()
    for i, rule in enumerate(rules):
        where = f"health rule [{i}]"
        if not isinstance(rule, dict):
            raise ValueError(f"{where}: must be a dict")
        kind = rule.get("kind")
        if kind not in KINDS:
            raise ValueError(
                f"{where}: kind must be one of {sorted(KINDS)}, got {kind!r}"
            )
        allowed = COMMON_KEYS | KINDS[kind]
        unknown = set(rule) - allowed
        if unknown:
            raise ValueError(
                f"{where}: unknown keys {sorted(unknown)} for kind {kind!r}"
            )
        name = rule.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: name must be a non-empty string")
        if name in seen:
            raise ValueError(f"{where}: duplicate rule name {name!r}")
        seen.add(name)
        metric = rule.get("metric")
        if not isinstance(metric, str) or not metric:
            raise ValueError(f"{where}: metric must be a non-empty string")
        bound_key = "min" if kind.endswith("_floor") else "max"
        if not _is_number(rule.get(bound_key)):
            raise ValueError(
                f"{where}: kind {kind!r} requires a numeric {bound_key!r}"
            )
        if "when" in rule and (not isinstance(rule["when"], str)
                               or not rule["when"]):
            raise ValueError(f"{where}: when must be a non-empty string")
        if "q" in rule and not (_is_number(rule["q"])
                                and rule["q"] in _QUANTILE_KEYS):
            raise ValueError(
                f"{where}: q must be a quantile the timeline records, "
                f"one of {sorted(_QUANTILE_KEYS)}, got {rule['q']!r}"
            )


class HealthMonitor:
    """Evaluates SLO rules on each timeline sample; logs breaches."""

    def __init__(self, rules, metrics=None,
                 log_capacity: int = DEFAULT_LOG_CAPACITY) -> None:
        validate_rules(rules)
        if log_capacity <= 0:
            raise ValueError("log_capacity must be positive")
        self.rules = [dict(rule) for rule in rules]
        self.log_capacity = log_capacity
        self.breaches: list[dict] = []
        self.evaluations = 0
        self.breached = 0
        self.log_dropped = 0
        if metrics is not None:
            metrics.counter("health.evaluations",
                            "per-interval rule evaluations performed",
                            source=lambda: self.evaluations)
            metrics.counter("health.breaches", "SLO rule violations observed",
                            source=lambda: self.breached)
            metrics.gauge("health.rules", "SLO rules configured",
                          source=lambda: len(self.rules))
            metrics.gauge("health.ok",
                          "1 while no rule has ever breached, else 0",
                          source=lambda: 0 if self.breached else 1)

    # -- evaluation ------------------------------------------------------

    def observe(self, sample: dict) -> None:
        """Evaluate every rule against one timeline sample.

        Registered as a sampler listener; called once per recorded
        interval.  A rule whose metric is absent from the sample simply
        does not fire (counters only appear when they moved; a missing
        series is "no activity", not an error).
        """
        for rule in self.rules:
            value = self._value(rule, sample)
            if value is None:
                continue
            self.evaluations += 1
            if rule["kind"].endswith("_floor"):
                limit = rule["min"]
                ok = value >= limit
            else:
                limit = rule["max"]
                ok = value <= limit
            if ok:
                continue
            self.breached += 1
            if len(self.breaches) == self.log_capacity:
                self.breaches.pop(0)
                self.log_dropped += 1
            self.breaches.append({
                "t": sample["t"],
                "index": sample["index"],
                "rule": rule["name"],
                "kind": rule["kind"],
                "value": value,
                "limit": limit,
            })

    def _value(self, rule: dict, sample: dict):
        """The rule's observed value in this sample, or None to skip."""
        kind = rule["kind"]
        metric = rule["metric"]
        if kind in ("rate_floor", "rate_ceiling"):
            when = rule.get("when")
            if when is not None and not sample["counters"].get(when):
                return None
            # Absent counter == zero delta: floors must still see idle
            # intervals (when-gated above); ceilings trivially pass.
            return sample["counters"].get(metric, 0)
        if kind in ("gauge_floor", "gauge_ceiling"):
            return sample["gauges"].get(metric)
        row = sample["histograms"].get(metric)
        if row is None:
            return None
        return row.get(_QUANTILE_KEYS[rule.get("q", 0.95)])

    # -- export ----------------------------------------------------------

    def to_rows(self) -> list[dict]:
        """The breach log as plain rows for the timeline document."""
        return [dict(b) for b in self.breaches]
