"""The observability plane: metrics, meters, tracing, timeline.

See :mod:`repro.obs.registry` for instruments and the snapshot schema,
:mod:`repro.obs.tracer` for the span taxonomy and the Chrome trace
export, :mod:`repro.obs.meters` for per-process/per-gate cycle
attribution, and :mod:`repro.obs.timeline` for interval sampling.
The system facade wires one of each through
:class:`repro.kernel.services.KernelServices`; standalone components
(a bare CPU, a bench-built scheduler) accept them as optional
constructor arguments.  The bounded security audit is protected
kernel code, not an observer: it is :mod:`repro.security.audit`.
"""

from repro.obs.health import HealthMonitor, validate_rules
from repro.obs.meters import NULL_METERS, GateMeter, Meters, ProcessMeter
from repro.obs.registry import (
    NAME_RE,
    SCHEMA,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_snapshot,
)
from repro.obs.timeline import (
    TimelineSampler,
    validate_timeline,
    validate_timeline_config,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    Tracer,
    timeline_counter_events,
)

__all__ = [
    "NAME_RE",
    "SCHEMA",
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "validate_snapshot",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "timeline_counter_events",
    "NULL_METERS",
    "Meters",
    "ProcessMeter",
    "GateMeter",
    "TimelineSampler",
    "validate_timeline",
    "validate_timeline_config",
    "HealthMonitor",
    "validate_rules",
]
