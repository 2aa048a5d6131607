"""Metric-name lint: every name a booted system registers must match
the registry's grammar and be listed in the DESIGN.md "Metric name
table" — and the table must not list names nothing registers."""

import pathlib
import re

import pytest

from repro import kernel_config, legacy_config
from repro.config import SupervisorKind
from repro.faults.harness import harness_config
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import NAME_RE
from repro.system import MulticsSystem
from repro.workloads import WorkloadDriver
from repro.workloads.shards import MergeMetrics

DESIGN = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"

# One row per prefix: | `am.` | `cams`, `entries`, ... |
_ROW = re.compile(r"^\| `([a-z0-9_.]+\.)` \| (.+) \|$", re.MULTILINE)


def documented_names() -> set[str]:
    text = DESIGN.read_text()
    names = set()
    for prefix, cell in _ROW.findall(text):
        for leaf in re.findall(r"`([a-z0-9_.]+)`", cell):
            names.add(prefix + leaf)
    return names


def registered_names() -> set[str]:
    names = set()
    for config in (
        kernel_config(),
        kernel_config(timeline={}),  # timeline.* / health.* register
        legacy_config(),
        harness_config(
            fault_plan=FaultPlan(
                [FaultSpec("memory.transfer", "transfer_error", at_ops=(2,))],
                seed=3,
            )
        ),
    ):
        system = MulticsSystem(config).boot()
        system.register_user("Alice", "Crypto", "pw")
        session = system.login("Alice", "Crypto", "pw")
        session.make_cpu()  # cpu.* names register per-CPU
        cx = system.cpu_complex(n_cpus=2)  # smp.* names register per-complex
        system.chaos_engine(  # chaos.* names register per-engine
            {
                "name": "lint",
                "controllers": [
                    {
                        "type": "timed",
                        "events": [
                            {"at": 0, "site": "link.uplink", "kind": "drop"}
                        ],
                    }
                ],
            },
            complex_=cx,
        )
        if config.supervisor is not SupervisorKind.LEGACY:
            WorkloadDriver(system)  # workload.* names register per-driver
            # specialize.* names register when a specialized kernel is
            # built over the substrate.
            from repro.kernel.specialize import GateProfile, specialize

            specialize(system, GateProfile("lint", gates={"hcs_$get_root"}))
        names.update(system.metrics.names())
    # shard.* names live on the sharded merge layer's own registry, not
    # on any single booted system.
    names.update(MergeMetrics().registry.names())
    return names


@pytest.fixture(scope="module")
def live_names():
    return registered_names()


def test_table_parses_to_a_plausible_set():
    names = documented_names()
    assert len(names) > 50
    assert "gate.calls" in names
    assert "meter.coverage" in names


def test_every_registered_name_matches_grammar(live_names):
    bad = [n for n in live_names if not NAME_RE.match(n)]
    assert bad == []


def test_every_registered_name_is_documented(live_names):
    undocumented = sorted(live_names - documented_names())
    assert undocumented == [], (
        f"add to the DESIGN.md metric name table: {undocumented}"
    )


def test_no_stale_documented_names(live_names):
    stale = sorted(documented_names() - live_names)
    assert stale == [], (
        f"DESIGN.md metric name table lists unregistered names: {stale}"
    )
