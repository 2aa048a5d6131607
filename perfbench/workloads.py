"""The benchmark's three workloads and the property each one must show.

Every workload is open loop in simulated time: arrivals come from the
seeded population and never wait on completions.  Each runs on two
simulated CPUs with core and associative memories empty at the start.
The property check is what makes a workload measure the layer it was
chosen for; a run whose property fails is reported as incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: E18/E20's memory hierarchy (page size 16 words).
E18_FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
                  disk_frames=65536)

#: E20's timeline spec: 10,000-cycle interval, 1,024-sample ring and
#: its three SLO rules.
E20_TIMELINE = {
    "interval": 10_000,
    "capacity": 1024,
    "rules": [
        {"name": "capacity", "kind": "gauge_floor",
         "metric": "smp.cpus", "min": 2},
        {"name": "no_job_failures", "kind": "rate_ceiling",
         "metric": "smp.jobs_failed", "max": 0},
        {"name": "audit_complete", "kind": "rate_ceiling",
         "metric": "audit.dropped", "max": 0},
    ],
}

N_CPUS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Users in the population.
    users: int
    #: ``kernel_config`` keyword arguments.
    config: dict
    #: ``generate_population`` keyword arguments besides ``n`` and ``seed``.
    population: dict = field(default_factory=dict)
    #: Sessions the workload driver admits before each SMP batch.
    batch_size: int = 64


WORKLOADS = {
    # The paper's time-sharing mix on E18's hierarchy: about two
    # resident pages per user, so nothing is evicted below ~7,500 users
    # and the interpreter dominates host time.
    "interactive": Workload(
        "interactive", users=2000, config=dict(E18_FRAMES),
    ),
    # The same population shape over a hierarchy far smaller than its
    # pages: most faults run a replacement round and bulk spills to
    # disk.  Below ~3,500 users some seeds never spill bulk.
    "overcommit": Workload(
        "overcommit", users=4000,
        config=dict(page_size=16, core_frames=2048, bulk_frames=4096,
                    disk_frames=65536),
    ),
    # Shell-only shift-change bursts (32 users within 8 cycles) with
    # E20's sampler and SLO rules on and the audit trail at "deny".  A
    # burst drains in about 15,100 cycles.  At E20's 20,000-cycle mean
    # lull the queue sits near saturation and latency swings twofold
    # with the seed's shortest lulls; with a 2,000-cycle mean lull the
    # storm arrives seven times faster than two CPUs drain it, so the
    # simulated figures are steady across seeds.
    "login_storm": Workload(
        "login_storm", users=3000,
        config=dict(E18_FRAMES, audit_level="deny", timeline=E20_TIMELINE),
        population=dict(mix={"shell": 1.0}, process="bursty",
                        burst_size=32, mean_lull=2_000.0),
        batch_size=32,
    ),
}


def property_violations(name: str, counters: dict) -> list[str]:
    """What is wrong with a run's ``repro.obs/v1`` counters for the
    property workload ``name`` exists to show (empty when it holds)."""
    faults = counters.get("pc.faults_serviced", 0)
    core = counters.get("pc.core_evictions", 0)
    bulk = counters.get("pc.bulk_evictions", 0)
    problems = []
    if name == "interactive":
        if core:
            problems.append(f"{core} core evictions; the population "
                            "no longer fits in core")
    elif name == "overcommit":
        if 2 * core < faults:
            problems.append(f"core evictions on {core} of {faults} faults, "
                            "fewer than half")
        if not bulk:
            problems.append("no bulk evictions; bulk never spilled to disk")
    elif name == "login_storm":
        if not counters.get("timeline.samples", 0):
            problems.append("the timeline took no samples")
        for key in ("timeline.dropped", "health.breaches"):
            if counters.get(key, 0):
                problems.append(f"{key} = {counters[key]}")
    return problems
