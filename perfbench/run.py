#!/usr/bin/env python3
"""Benchmark of the simulated Multics: seeded populations driven through
``MulticsSystem`` and ``WorkloadDriver``.

A run of one workload starts a fresh single-threaded Python process for
each repetition, one after another, while another repetition fits in
``--seconds`` of host time (at least two).  A repetition sets a system
up, runs the population on it and checks every burst's checksum, a
sample of the data left behind and the workload's property.  The run
checks that every repetition's simulated results are identical and
prints its metrics.  Host times are scaled to a reference host speed
(``hostspeed.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends
half the budget on untraced repetitions, then runs one repetition with
wrappers around each layer's public calls (``tracing.py``) and reports
the per-layer metrics; it writes the spans as a Chrome trace and the
layer table as JSON under ``perfbench/out/``.  ``--workload all`` runs
every workload in turn.  The exit status is 0 only when every check
passed.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import ChecksumModel, simulated_digest
from hostspeed import FRAMES, OBJECTS, HostClock
from tracing import LAYERS, LayerTracer
from workloads import N_CPUS, WORKLOADS, property_violations

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 1975
#: Untraced repetitions per run, at least (the digest must repeat).
MIN_REPS = 2
#: Set-ups per run, at least; ``setup_s`` is their median.
MIN_SETUPS = 5
#: Words the workload driver stores at the start of each user's data
#: segment.
SEED_WORDS = 8

END_TO_END_UNITS = {
    "users_per_s": "users/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_cycles": "cycles",
    "sim_latency_p50_cycles": "cycles",
    "sim_latency_p99_cycles": "cycles",
    "ok_share": "fraction",
}


class ChildFailed(Exception):
    """A repetition's process crashed or printed no result."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it; exit
    non-zero when the checkout has no program beside the benchmark."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {package}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {package}")


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile, as ``WorkloadReport`` computes it."""
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1) + 0.5)]


class BatchTap:
    """Stands in for the workload driver's SMP complex: forwards each
    batch, keeps its jobs so every returned checksum can be checked
    after the run, and marks the host clock on either side of it."""

    def __init__(self, complex_, clock: HostClock) -> None:
        self.complex = complex_
        self.clock = clock
        self.jobs: list = []

    def run_jobs(self, jobs, quantum=None, on_round=None):
        self.jobs.extend(jobs)
        self.clock.mark()
        result = self.complex.run_jobs(jobs, quantum=quantum,
                                       on_round=on_round)
        self.clock.mark()
        return result


def new_system(workload, seed: int, clock: HostClock):
    """Build and boot the system, construct the driver and generate the
    population: the work ``setup_s`` times.  The clock is marked before,
    between and after the stages."""
    from repro import MulticsSystem, kernel_config
    from repro.workloads import WorkloadDriver
    from repro.workloads import driver as driver_module

    clock.mark()
    system = MulticsSystem(kernel_config(**copy.deepcopy(workload.config)))
    clock.mark()
    system.boot()
    clock.mark()
    driver = WorkloadDriver(system, n_cpus=N_CPUS,
                            batch_size=workload.batch_size,
                            seed_words=SEED_WORDS)
    # Looked up at call time so a traced run sees the wrapped function.
    population = driver_module.generate_population(
        workload.users, seed=seed, **workload.population
    )
    clock.mark()
    return system, driver, population


def run_rep(workload, seed: int, model: ChecksumModel,
            tracer: LayerTracer | None = None) -> dict:
    """One repetition: set up, run, check.  ``tracer``, when given, is
    installed around the set-up and the run only, and the clocks do not
    probe."""
    setup_clock = HostClock(FRAMES if tracer is None else None)
    run_clock = HostClock(OBJECTS if tracer is None else None)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        system, driver, population = new_system(workload, seed, setup_clock)
        tap = BatchTap(driver.complex, run_clock)
        driver.complex = tap
        run_clock.mark()
        report = driver.run(population)
        run_clock.mark()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_raw_s, setup_s = setup_clock.seconds()
    run_raw_s, run_s = run_clock.seconds()

    jobs = tap.jobs
    snapshot_json = system.metrics.to_json()
    counters = json.loads(snapshot_json)["counters"]
    # Everything simulated is read before the read-back check below
    # pages evicted data in and moves the counters.
    digest = simulated_digest(report, snapshot_json, jobs)
    counts = layer_counts(counters, jobs, tap.complex, population)
    wrong = model.wrong(jobs)
    wrong_data = model.wrong_readback(jobs, system.services.read_word)
    problems = property_violations(workload.name, counters)
    if report.admitted != workload.users:
        problems.append(f"{report.admitted} of {workload.users} users "
                        "admitted")
    if report.jobs_completed != workload.users:
        problems.append(f"{report.jobs_completed} of {workload.users} "
                        "bursts completed")
    if wrong:
        problems.append(f"{wrong} bursts returned a wrong checksum")
    if wrong_data:
        problems.append(f"{wrong_data} sampled data segments read back "
                        "wrong")
    return {
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "run_s": run_s, "run_raw_s": run_raw_s,
        "speed": run_clock.speed() if tracer is None else None,
        "admitted": report.admitted,
        "failed": report.login_failures + report.jobs_failed + wrong
        + wrong_data,
        "problems": problems, "digest": digest,
        "sim": {
            "sim_cycles": report.elapsed_cycles,
            "sim_latency_p50_cycles": report.latency_percentile(0.50),
            "sim_latency_p99_cycles": report.latency_percentile(0.99),
            "latency_samples": len(report.latencies),
        },
        "counts": counts,
    }


def layer_counts(counters: dict, jobs, complex_, population) -> dict:
    """The per-layer counts and ratios a run computes in simulated time
    (identical for a seed, traced or not)."""
    arrival = {f"{s.person}:{s.profile.name}": s.arrival
               for s in population}
    waits = [job.started - arrival[job.label] for job in jobs]
    services = [job.finished - job.started for job in jobs]
    busy = counters.get("smp.busy_cycles", 0)
    stall = counters.get("smp.stall_cycles", 0)
    hits = counters.get("smp.am_hits", 0)
    misses = counters.get("smp.am_misses", 0)
    faults = counters.get("pc.faults_serviced", 0)
    core = counters.get("pc.core_evictions", 0)
    bulk = counters.get("pc.bulk_evictions", 0)
    polls = counters.get("timeline.polls", 0)
    samples = counters.get("timeline.samples", 0)
    return {
        "hw.smp.instructions": sum(job.instructions for job in jobs),
        "hw.smp.rounds": counters.get("smp.rounds", 0),
        "hw.smp.busy_cycles": busy,
        "hw.smp.stall_cycles": stall,
        "hw.smp.stall_share": stall / (busy + stall) if busy + stall else 0,
        "hw.smp.sim_wait_p50_cycles": percentile(waits, 0.50),
        "hw.smp.sim_wait_p99_cycles": percentile(waits, 0.99),
        "hw.smp.sim_service_p50_cycles": percentile(services, 0.50),
        "hw.smp.sim_service_p99_cycles": percentile(services, 0.99),
        "hw.assoc.hit_ratio": hits / (hits + misses) if hits + misses else 0,
        "hw.assoc.invalidations": sum(
            cpu.private_am.invalidations for cpu in complex_.cpus
            if cpu.private_am is not None
        ),
        "vm.page_control.faults": faults,
        "vm.page_control.core_evictions": core,
        "vm.page_control.bulk_evictions": bulk,
        "vm.page_control.evictions_per_fault":
            (core + bulk) / faults if faults else 0,
        "kernel.locks.ptl_contention_cycles":
            counters.get("lock.ptl.contention_cycles", 0),
        "kernel.locks.ptl_contentions":
            counters.get("lock.ptl.contentions", 0),
        "kernel.locks.tc_contention_cycles":
            counters.get("lock.tc.contention_cycles", 0),
        "kernel.gates.rejections": counters.get("gate.rejections", 0),
        "security.audit.seen": counters.get("audit.seen", 0),
        "security.audit.dropped": counters.get("audit.dropped", 0),
        "security.audit.denials": counters.get("audit.denials", 0),
        "obs.timeline.samples": samples,
        "obs.timeline.samples_per_poll": samples / polls if polls else 0,
        "obs.timeline.dropped": counters.get("timeline.dropped", 0),
        "obs.health.breaches": counters.get("health.breaches", 0),
        "workloads.driver.code_rebinds":
            counters.get("workload.code_rebinds", 0),
    }


def layer_metrics(rep: dict, tracer: LayerTracer) -> dict:
    """The traced repetition's per-layer values, all but
    ``bench.trace_overhead``, which needs the untraced repetitions."""
    times = tracer.layer_times()
    wall = rep["setup_raw_s"] + rep["run_raw_s"]
    counts = rep["counts"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        row = times[layer]
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.share"] = row["self_s"] / wall
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.us_per_call"] = (
            row["self_s"] * 1e6 / row["calls"] if row["calls"] else 0
        )
    values.update(counts)
    values["hw.smp.ns_per_instruction"] = (
        times["hw.smp"]["self_s"] * 1e9 / counts["hw.smp.instructions"]
    )
    samples = counts["obs.timeline.samples"]
    # A poll that records a sample also runs the health rules on it.
    values["obs.timeline.us_per_sample"] = (
        times["obs.timeline"]["incl_s"] * 1e6 / samples if samples else 0
    )
    return values


PER_LAYER_UNITS = {
    "self_s": "s", "share": "fraction", "calls": "count",
    "us_per_call": "us", "instructions": "count",
    "ns_per_instruction": "ns", "rounds": "count", "stall_share": "fraction",
    "hit_ratio": "fraction", "invalidations": "count", "faults": "count",
    "core_evictions": "count", "bulk_evictions": "count",
    "evictions_per_fault": "ratio", "ptl_contentions": "count",
    "rejections": "count", "seen": "count", "dropped": "count",
    "denials": "count", "samples": "count", "samples_per_poll": "ratio",
    "us_per_sample": "us", "breaches": "count", "code_rebinds": "count",
    "trace_overhead": "ratio",
}


def per_layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    return "cycles" if leaf.endswith("cycles") else PER_LAYER_UNITS[leaf]


def child(kind: str, name: str, seed: int, trace: bool) -> int:
    """The body of one repetition's process (``kind`` "rep") or of one
    extra set-up's (``kind`` "setup"); prints its result as JSON."""
    import_program()
    workload = WORKLOADS[name]
    if kind == "setup":
        clock = HostClock(FRAMES)
        gc.collect()
        new_system(workload, seed, clock)
        result = {"setup_s": clock.seconds()[1]}
    else:
        from repro.workloads import generate_population

        population = generate_population(workload.users, seed=seed,
                                         **workload.population)
        model = ChecksumModel(sorted(population, key=lambda s: s.arrival),
                              workload.config["page_size"], SEED_WORDS)
        del population
        tracer = LayerTracer() if trace else None
        result = run_rep(workload, seed, model, tracer)
        if tracer is not None:
            result["layers"] = layer_metrics(result, tracer)
            result["spans"] = len(tracer.spans)
            out = trace_dir(name, seed)
            out.mkdir(parents=True, exist_ok=True)
            tracer.write_chrome_trace(out / "trace.json",
                                      f"perfbench {name} seed {seed}")
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(result))
    return 0


def spawn(kind: str, name: str, seed: int, trace: bool = False) -> dict:
    """Run ``child`` in a fresh process and wait for its result."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, "--workload", name,
         "--seed", str(seed), "--trace", str(int(trace))],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{kind} process exited {proc.returncode}")
    return json.loads(lines[-1])


def trace_dir(name: str, seed: int) -> Path:
    return OUT / f"{name}-seed{seed}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    budget = seconds / 2 if trace else seconds
    reps: list[dict] = []
    try:
        start = time.perf_counter()
        while True:
            reps.append(spawn("rep", name, seed))
            spent = time.perf_counter() - start
            if (len(reps) >= (1 if trace else MIN_REPS)
                    and spent * (1 + 1 / len(reps)) > budget):
                break
        measured = list(reps)
        if trace:
            traced = spawn("rep", name, seed, trace=True)
            measured.append(traced)
        else:
            setups = [r["setup_s"] for r in reps]
            while len(setups) < MIN_SETUPS:
                setups.append(spawn("setup", name, seed)["setup_s"])
    except ChildFailed as failure:
        print(f"perfbench {name}: FAILED: {failure}")
        return 1
    problems = sorted({p for r in measured for p in r["problems"]})
    digests = {r["digest"] for r in measured}
    if len(digests) > 1:
        problems.append(f"simulated results differ between repetitions "
                        f"({len(digests)} digests)")
    attempted = workload.users * len(measured)
    failed = sum(r["failed"] for r in measured)
    samples = reps[0]["sim"]["latency_samples"]
    print(f"perfbench {name}: seed {seed}, {workload.users} users, "
          f"{len(reps)} untraced repetitions"
          + (", 1 traced" if trace else ""))
    print(f"  latency samples per repetition: {samples} "
          f"({samples // 100} beyond p99)")
    print(f"  simulated digest: {reps[0]['digest'][:16]}")
    print("  users/s per repetition, raw @ host speed -> scaled: "
          + ", ".join(f"{r['admitted'] / r['run_raw_s']:.1f} @ "
                      f"{r['speed']:.2f} -> "
                      f"{r['admitted'] / r['run_s']:.1f}"
                      for r in reps))
    if trace:
        values = dict(traced["layers"])
        values["bench.trace_overhead"] = traced["run_raw_s"] / (
            statistics.mean(r["run_raw_s"] for r in reps))
        units = {key: per_layer_unit(key) for key in values}
    else:
        values = {
            # Host speed swings over tens of seconds, longer than one
            # repetition, so the rate is taken over the whole run.
            "users_per_s": sum(r["admitted"] for r in reps)
            / sum(r["run_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
            **{key: reps[0]["sim"][key] for key in END_TO_END_UNITS
               if key.startswith("sim_")},
            "ok_share": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    if trace:
        out = trace_dir(name, seed)
        (out / "layers.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "spans": traced["spans"],
             "metrics": metrics}, indent=2) + "\n")
        print(f"  {traced['spans']} spans written to "
              f"{out.relative_to(ROOT)}/trace.json")
    for key, value in values.items():
        print(f"  {key:<40} {value:>14.6g} {units[key]}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def measure_all(args) -> int:
    """Every workload, each in a fresh process, one after another."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench {name}: no result (exit {child.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulated Multics on seeded workloads.")
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="population seed (default %(default)s; 2718 is held out: no "
             "tuning used it, and every workload's property holds under it)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--child", choices=["rep", "setup"],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        return child(args.child, args.workload, args.seed, bool(args.trace))
    import_program()
    if args.workload == "all":
        return measure_all(args)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
