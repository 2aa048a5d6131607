"""The shard worker: one :class:`ShardSpec` in, one result out.

``run_shard`` is a plain module-level function so a spawn-context pool
can pickle it by qualified name; everything it needs rides in the spec.
Each worker is a *pure function* of its spec — fresh
:class:`~repro.system.MulticsSystem`, deterministically regenerated
population slice, seeded driver — so results are identical whether the
spec runs in a child process, in-process serially, or on another
machine entirely.  That purity is what lets the orchestrator fall back
from processes to a serial loop without changing a single merged byte.
"""

from __future__ import annotations

import time

from repro.system import MulticsSystem
from repro.workloads.driver import (
    UserSpec,
    WorkloadDriver,
    generate_population,
)
from repro.workloads.shards.spec import ShardResult, ShardSpec, assign_shard


def materialize_population(spec: ShardSpec) -> list[UserSpec]:
    """The population slice this shard runs.

    Regenerates the *full* seeded population, then keeps the users the
    UID partition assigns here — so each user's profile and arrival
    time are independent of the shard count, and a 1-shard run sees
    exactly what an unsharded :class:`WorkloadDriver` would.
    """
    if spec.users is not None:
        return list(spec.users)
    population = generate_population(
        spec.n_users,
        spec.seed,
        mix=spec.mix,
        process=spec.process,
        mean_gap=spec.mean_gap,
        burst_size=spec.burst_size,
        mean_lull=spec.mean_lull,
        project=spec.project,
    )
    if spec.n_shards == 1:
        return population
    return [
        user
        for user in population
        if assign_shard(user.person, spec.n_shards) == spec.shard_id
    ]


def run_shard(spec: ShardSpec) -> ShardResult:
    """Boot a fresh system, run this shard's slice, report back."""
    wall0 = time.perf_counter()
    population = materialize_population(spec)
    system = MulticsSystem(spec.config)
    system.boot()
    driver = WorkloadDriver(
        system,
        n_cpus=spec.n_cpus,
        batch_size=spec.batch_size,
        quantum=spec.quantum,
        max_instructions=spec.max_instructions,
    )
    report = driver.run(population)
    audit = system.audit
    return ShardResult(
        shard_id=spec.shard_id,
        report=report,
        snapshot=system.metrics.snapshot(),
        audit={
            "seen": audit.seen,
            "dropped": audit.dropped,
            "denials": audit.denials,
        },
        timeline=system.timeline_document(),
        wall_seconds=time.perf_counter() - wall0,
    )
