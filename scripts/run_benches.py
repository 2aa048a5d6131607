#!/usr/bin/env python
"""Run the dynamic benches headlessly and export ``BENCH_<pr>.json``.

Collects the numbers a CI job or a reviewer wants without the pytest
benchmark machinery: wall-clock seconds, simulated cycles,
associative-memory hit rates, metering/audit attribution, SMP
throughput, chaos-storm containment, and workload-engine throughput
for the hot-path workloads (E4 ring crossings, E5 page-fault storm,
E15 associative memory, E16 metering & audit, E17 SMP lockstep, E18
workload engine, E19 sharded runs, E20 timeline plane, E21
specialized kernels, R2 chaos storm).  The document is the *merged*
export — a real metrics snapshot (schema ``repro.obs/v1``) plus a
``bench`` section of derived numbers — validated as written, and
written to ``benchmarks/results/BENCH_<pr>.json`` so
``scripts/check_bench_schema.py`` guards it like every other export.

The export name defaults to ``BENCH_{DEFAULT_PR}.json``; override the
PR tag with ``--pr prN`` or the ``BENCH_PR`` environment variable, or
give an explicit output path.

``--only`` selects a subset by experiment id (comma-separated) — the
same workloads pytest selects with the ``bench`` marker
(``pytest -m bench benchmarks/``); this runner just skips the
collection machinery.  An unknown or empty id list is an error that
names the known ids, never a silent no-op run.  ``--list`` prints the
known ids and exits; ``--quick`` skips the 10k/100k-user legs of E18,
E19, and E20 and trains E21's specialized kernels on a smaller
population, so a local full sweep stays interactive (quick runs never
assert the scale-dependent speedup floors).

Usage::

    python scripts/run_benches.py [output.json] [--pr pr8]
                                  [--only E16[,E5,...]] [--quick]
    python scripts/run_benches.py --list
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "benchmarks"))

from repro.config import PageControlKind, RingMode  # noqa: E402
from repro.obs import validate_snapshot  # noqa: E402

from test_e4_ring_cost import measure_call_cost  # noqa: E402
from test_e5_page_control import run_storm, summarize  # noqa: E402
from test_e15_assoc_memory import (  # noqa: E402
    _locality_workload,
    _paging_workload,
)
from test_e16_metering import combined_workload, denial_books  # noqa: E402
from test_e17_smp import bench_numbers as smp_bench_numbers  # noqa: E402
from test_e18_workload import bench_numbers as workload_bench_numbers  # noqa: E402
from test_e19_sharded import bench_numbers as sharded_bench_numbers  # noqa: E402
from test_e20_timeline import bench_numbers as timeline_bench_numbers  # noqa: E402
from test_e21_specialize import bench_numbers as specialize_bench_numbers  # noqa: E402
from test_r2_chaos import bench_numbers as chaos_bench_numbers  # noqa: E402

#: Experiment ids this runner knows, in execution order.  These are the
#: same workloads pytest runs under the ``bench`` marker.
BENCH_IDS = ("E4", "E5", "E15", "E16", "E17", "E18", "E19", "E20", "E21",
             "R2")

#: The PR tag this checkout exports by default — the one place to bump
#: per PR (``--pr`` / ``BENCH_PR`` override it at run time).
DEFAULT_PR = "pr10"


def bench_e4() -> dict:
    return {
        "in_ring_645": measure_call_cost(RingMode.SOFTWARE_645, 2),
        "cross_ring_645": measure_call_cost(RingMode.SOFTWARE_645, 3),
        "in_ring_6180": measure_call_cost(RingMode.HARDWARE_6180, 2),
        "cross_ring_6180": measure_call_cost(RingMode.HARDWARE_6180, 3),
    }


def bench_e5() -> dict:
    out = {}
    for kind in (PageControlKind.SEQUENTIAL, PageControlKind.PARALLEL):
        t0 = time.perf_counter()
        summary = summarize(run_storm(kind))
        out[kind.value] = {
            "wall_seconds": round(time.perf_counter() - t0, 4),
            "faults": summary["faults"],
            "mean_latency_cycles": summary["mean_latency"],
            "elapsed_cycles": summary["elapsed"],
        }
    return out


def bench_e15() -> tuple[dict, dict]:
    """(derived numbers, final metrics snapshot of the AM-on system)."""
    on = _locality_workload(am_enabled=True)
    off = _locality_workload(am_enabled=False)
    paging = _paging_workload(am_enabled=True)
    derived = {
        "am_hit_rate": round(on["hit_rate"], 4),
        "am_hits": on["hits"],
        "am_misses": on["misses"],
        "cycles_am_on": on["cycles"],
        "cycles_am_off": off["cycles"],
        "cycle_speedup": round(off["cycles"] / on["cycles"], 3),
        "wall_seconds_am_on": round(on["wall"], 6),
        "wall_seconds_am_off": round(off["wall"], 6),
        "wall_speedup": round(off["wall"] / on["wall"], 3),
        "paging_faults": paging["faults"],
        "paging_invalidations": paging["invalidations"],
    }
    return derived, on["system"].metrics.snapshot()


def bench_e16() -> tuple[dict, dict]:
    """(derived numbers, final metrics snapshot of the metered system)."""
    t0 = time.perf_counter()
    system = combined_workload(metering=True)
    unmetered = combined_workload(metering=False)
    meters = system.meters
    derived = {
        "wall_seconds": round(time.perf_counter() - t0, 4),
        "coverage": round(meters.coverage(), 4),
        "attributed_cycles": meters.attributed_cycles(),
        "total_cycles": meters.total_cycles(),
        "simulated_clock_metered": system.clock.now,
        "simulated_clock_unmetered": unmetered.clock.now,
        **denial_books(system),
    }
    return derived, system.metrics.snapshot()


def _boot_snapshot() -> dict:
    """Fallback snapshot when no snapshot-producing bench is selected."""
    from repro import kernel_config
    from repro.system import MulticsSystem

    return MulticsSystem(kernel_config()).boot().metrics.snapshot()


def main(argv: list[str]) -> int:
    args = list(argv[1:])
    if "--list" in args:
        for bench_id in BENCH_IDS:
            print(bench_id)
        return 0
    quick = "--quick" in args
    if quick:
        args.remove("--quick")
    pr = os.environ.get("BENCH_PR", DEFAULT_PR)
    if "--pr" in args:
        at = args.index("--pr")
        if at + 1 >= len(args) or not args[at + 1].strip():
            print("run_benches: --pr needs a tag (e.g. pr7)",
                  file=sys.stderr)
            return 2
        pr = args[at + 1].strip()
        del args[at:at + 2]
    only: set[str] | None = None
    if "--only" in args:
        at = args.index("--only")
        if at + 1 >= len(args):
            print("run_benches: --only needs an id list (e.g. E16)",
                  file=sys.stderr)
            return 2
        only = {part.strip().upper()
                for part in args[at + 1].split(",") if part.strip()}
        del args[at:at + 2]
        if not only:
            print("run_benches: --only selected no benches "
                  f"(known: {', '.join(BENCH_IDS)})", file=sys.stderr)
            return 2
        unknown = only - set(BENCH_IDS)
        if unknown:
            print(f"run_benches: unknown bench ids {sorted(unknown)} "
                  f"(known: {', '.join(BENCH_IDS)})", file=sys.stderr)
            return 2

    default = _ROOT / "benchmarks" / "results" / f"BENCH_{pr}.json"
    out_path = pathlib.Path(args[0]) if args else default
    selected = [b for b in BENCH_IDS if only is None or b in only]

    t0 = time.perf_counter()
    bench: dict = {}
    snapshot: dict | None = None
    e15 = e16 = e17 = e18 = e19 = e20 = e21 = r2 = None
    if "E4" in selected:
        bench["e4_ring_cost"] = bench_e4()
    if "E5" in selected:
        bench["e5_page_storm"] = bench_e5()
    if "E15" in selected:
        e15, snapshot = bench_e15()
        bench["e15_assoc_memory"] = e15
    if "E16" in selected:
        e16, snapshot = bench_e16()
        bench["e16_metering_audit"] = e16
    if "E17" in selected:
        e17, snapshot = smp_bench_numbers()
        bench["e17_smp"] = e17
    if "E18" in selected:
        e18, snapshot = workload_bench_numbers(quick=quick)
        bench["e18_workload"] = e18
    if "E19" in selected:
        e19, snapshot = sharded_bench_numbers(quick=quick)
        bench["e19_sharded"] = e19
    if "E20" in selected:
        e20, snapshot = timeline_bench_numbers(quick=quick)
        bench["e20_timeline"] = e20
    if "E21" in selected:
        e21, snapshot = specialize_bench_numbers(quick=quick)
        bench["e21_specialize"] = e21
    if "R2" in selected:
        r2, snapshot = chaos_bench_numbers()
        bench["r2_chaos"] = r2
    if snapshot is None:
        snapshot = _boot_snapshot()
    bench["total_wall_seconds"] = round(time.perf_counter() - t0, 3)

    doc = dict(snapshot)
    doc["bench"] = bench
    # Validate the document actually written (snapshot + bench
    # section), not just the snapshot half of it.
    errors = validate_snapshot(doc)
    if errors:
        for error in errors:
            print(f"run_benches: invalid export: {error}", file=sys.stderr)
        return 1
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"run_benches: wrote {out_path} ({', '.join(selected)})")
    if e15 is not None:
        hit = e15["am_hit_rate"] * 100
        print(f"  AM hit rate {hit:.1f}%  "
              f"cycles x{e15['cycle_speedup']}  wall x{e15['wall_speedup']}")
    if e16 is not None:
        print(f"  metering coverage {e16['coverage']:.2%}  "
              f"clock {e16['simulated_clock_metered']}/"
              f"{e16['simulated_clock_unmetered']}  "
              f"gate denials {e16['meter_gate_denials']}/"
              f"{e16['audit_gate_denials']} "
              f"(dropped {e16['audit_dropped']})")
    if e17 is not None:
        print(f"  SMP speedup x{e17['speedup_2cpu']} at 2 CPUs  "
              f"1-CPU identity {e17['one_cpu_identity']}  "
              f"replay identical {e17['deterministic_replay']}")
    if e18 is not None:
        scale = "10k" if "users_10k" in e18 else "1k"
        print(f"  workload: {e18.get('users_10k', e18['users_1k'])} users  "
              f"{e18[f'cycles_per_sec_{scale}']:.0f} cycles/s  "
              f"{e18[f'users_per_sec_{scale}']:.1f} users/s  "
              f"1k digest equivalent {e18['equivalent']}")
    if e19 is not None:
        big = (f"  100k-user leg: {e19['users_per_sec_100k']:.1f} users/s "
               f"over {e19['shards_100k']} shards ({e19['mode_100k']})"
               if "users_100k" in e19 else "  (quick: 100k leg skipped)")
        print(f"  sharded: x{e19['speedup_2shard']} at 2 shards, "
              f"x{e19['speedup_4shard']} at 4 "
              f"({e19['cores']} cores, floor "
              f"{'asserted' if e19['speedup_asserted'] else 'waived'})  "
              f"1-shard equivalent {e19['one_shard_equivalent']}  "
              f"deterministic {e19['deterministic_merge']}")
        print(big)
    if e20 is not None:
        print(f"  timeline: overhead x{e20['overhead_wall_overhead_ratio']} "
              f"wall (sim identical {e20['overhead_clock_identical']})  "
              f"{e20['chaos_breaches']} breaches confined "
              f"{e20['chaos_breaches_confined']}  "
              f"busy density {e20['chaos_busy_density_storm']} storm / "
              f"{e20['chaos_busy_density_after']} recovered")
        print(f"  timeline determinism: same-seed "
              f"{e20['same_seed_identical']}  sharded "
              f"{e20['sharded_identical']}  1-shard == driver "
              f"{e20['one_shard_matches_driver']}")
    if e21 is not None:
        print(f"  specialize: max gate cut "
              f"{e21['max_gate_reduction']:.0%} of "
              f"{e21['gates_total']} gates  "
              f"E11 {e21['pen_successes_total']}/"
              f"{e21['pen_attempted_total']} attacks  "
              f"identical {e21['all_identical']}  "
              f"deny-complete {e21['all_deny_complete']}")
    if r2 is not None:
        print(f"  chaos: {r2['chaos_events']} events / "
              f"{r2['faults_injected']} faults  "
              f"delivered {r2['messages_delivered']}/{r2['messages_sent']}  "
              f"salvage clean {r2['salvage_clean']}  "
              f"replay identical {r2['deterministic_replay']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
