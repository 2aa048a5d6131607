"""E18 — multi-user workload at scale: the kernel the paper describes
served an interactive time-sharing population, so the simulator must
sustain one.  A seeded population of mixed user profiles (shell,
compile, io, paging) logs in through the non-privileged E14 listener
path under a Poisson arrival process and runs its interactive bursts
through the SMP complex (:mod:`repro.workloads`).

Measured: wall-clock throughput (simulated cycles/sec and admitted
users/sec) at 1k and 10k users — guarded by an equivalence leg: the 1k
run's grant/deny audit trace, final simulated clock and metrics
snapshot must hash to :data:`DIGEST_1K`.  The throughput numbers are
only citable because the run is still that computation.  The audit is
a bounded ring, so the run sizes it (:data:`AUDIT_CAPACITY`) to hold
the 1k run's 12,095 records whole.
"""

import hashlib
import json
import time

from repro import MulticsSystem, kernel_config
from repro.workloads import WorkloadDriver, generate_population

USERS_1K = 1_000
USERS_10K = 10_000
SEED = 1975
N_CPUS = 2

#: Small pages (the profile strides assume them) and a hierarchy deep
#: enough that 10k users' working sets fit on disk and thrash core.
FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
              disk_frames=65536)

#: Audit ring capacity: room for every record the 1k run makes.
AUDIT_CAPACITY = 16_384

#: :func:`identity_digest` of the 1k-user run at :data:`SEED`, recorded
#: while the audit still kept a second, unbounded record list beside
#: the ring (at this capacity the two held the same trace).
DIGEST_1K = "a6652d06806545a2f202570ef8af7f85d7e9d4b6e7096d33ea0a6a7e3abbb6d9"


def workload_run(n_users: int, seed: int = SEED) -> dict:
    """Boot, drive a seeded population, return numbers + identity
    artifacts (trace/clock/snapshot serialized before the system is
    torn down)."""
    system = MulticsSystem(
        kernel_config(**FRAMES, audit_capacity=AUDIT_CAPACITY)
    ).boot()
    driver = WorkloadDriver(system, n_cpus=N_CPUS)
    population = generate_population(n_users, seed=seed)
    report = driver.run(population)
    return {
        "report": report,
        "derived": report.to_dict(),
        "trace": [
            (r.action, r.object, r.decision) for r in system.audit.records()
        ],
        "final_clock": system.clock.now,
        "snapshot_json": system.metrics.to_json(),
    }


def identity_digest(run: dict) -> str:
    """sha256 of a run's grant/deny trace, final clock and metrics
    snapshot — the equivalence guard."""
    blob = json.dumps([run["trace"], run["final_clock"],
                       run["snapshot_json"]])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_e18_workload(report, export):
    t0 = time.perf_counter()
    run_1k = workload_run(USERS_1K)

    # (a) equivalence: the 1k run is the recorded computation, byte for
    # byte — grant/deny trace, final clock, metrics snapshot.
    assert identity_digest(run_1k) == DIGEST_1K

    # (b) nothing was refused or contained at 1k.
    d1 = run_1k["derived"]
    assert d1["admitted"] == USERS_1K
    assert d1["login_failures"] == 0
    assert d1["jobs_failed"] == 0
    assert d1["jobs_completed"] == USERS_1K

    # (c) scale: 10k users end-to-end, every one admitted, every burst
    # completed.
    run_10k = workload_run(USERS_10K)
    d10 = run_10k["derived"]
    assert d10["admitted"] == USERS_10K
    assert d10["login_failures"] == 0
    assert d10["jobs_failed"] == 0
    assert d10["jobs_completed"] == USERS_10K
    wall = time.perf_counter() - t0

    snapshot = json.loads(run_10k["snapshot_json"])
    export("E18", snapshot, extra={
        "users_1k": USERS_1K,
        "users_10k": USERS_10K,
        "equivalent": True,
        "users_per_sec_1k": d1["users_per_sec"],
        "cycles_per_sec_1k": d1["cycles_per_sec"],
        "users_per_sec_10k": d10["users_per_sec"],
        "cycles_per_sec_10k": d10["cycles_per_sec"],
        "p50_latency_cycles_10k": d10["p50_latency_cycles"],
        "p95_latency_cycles_10k": d10["p95_latency_cycles"],
        "wall_seconds": round(wall, 4),
    })
    report("E18", [
        "E18: multi-user workload engine (seeded profiles, Poisson",
        "     arrivals, E14 bulk login, SMP batches)",
        f"  {USERS_1K} users: {d1['users_per_sec']:.0f} users/sec, "
        "traces/clock/snapshot match the recorded digest",
        f"  {USERS_10K} users end-to-end: "
        f"{d10['users_per_sec']:.0f} users/sec, "
        f"{d10['cycles_per_sec']:.0f} simulated cycles/sec",
        f"  latency p50/p95 at 10k: {d10['p50_latency_cycles']} / "
        f"{d10['p95_latency_cycles']} cycles",
    ])


def bench_numbers(quick: bool = False) -> tuple[dict, dict]:
    """(derived numbers, metrics snapshot) for scripts/run_benches.py.

    ``quick`` skips the 10k-user leg (its keys are then absent) so a
    local ``--quick`` run stays interactive.
    """
    t0 = time.perf_counter()
    run_1k = workload_run(USERS_1K)
    d1 = run_1k["derived"]
    derived = {
        "users_1k": USERS_1K,
        "equivalent": identity_digest(run_1k) == DIGEST_1K,
        "users_per_sec_1k": d1["users_per_sec"],
        "cycles_per_sec_1k": d1["cycles_per_sec"],
    }
    snapshot = json.loads(run_1k["snapshot_json"])
    if not quick:
        run_10k = workload_run(USERS_10K)
        d10 = run_10k["derived"]
        derived.update({
            "users_10k": USERS_10K,
            "users_per_sec_10k": d10["users_per_sec"],
            "cycles_per_sec_10k": d10["cycles_per_sec"],
            "p50_latency_cycles_10k": d10["p50_latency_cycles"],
            "p95_latency_cycles_10k": d10["p95_latency_cycles"],
            "admitted_10k": d10["admitted"],
            "jobs_failed_10k": d10["jobs_failed"],
        })
        snapshot = json.loads(run_10k["snapshot_json"])
    derived["wall_seconds"] = round(time.perf_counter() - t0, 4)
    return derived, snapshot
