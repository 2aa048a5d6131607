"""Regressions for scripts/run_benches.py: the export name derives
from the PR tag (``--pr`` flag, ``BENCH_PR`` env, baked default) rather
than a hardcoded filename, and the document written is the *merged*
export (snapshot + ``bench`` section) validated as a whole."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_benches.py"


@pytest.fixture(scope="module")
def rb():
    spec = importlib.util.spec_from_file_location("run_benches", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["run_benches"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("run_benches", None)


@pytest.fixture()
def sandbox(rb, tmp_path, monkeypatch):
    """Redirect the default export root and stub the one bench we run
    so the CLI paths are testable in milliseconds."""
    monkeypatch.setattr(rb, "_ROOT", tmp_path)
    monkeypatch.setattr(rb, "bench_e4", lambda: {"stub": True})
    monkeypatch.delenv("BENCH_PR", raising=False)
    return tmp_path


def test_default_name_derives_from_default_pr(rb, sandbox):
    assert rb.main(["run_benches", "--only", "E4"]) == 0
    out = sandbox / "benchmarks" / "results" / f"BENCH_{rb.DEFAULT_PR}.json"
    assert out.exists()  # parents were created, too
    doc = json.loads(out.read_text())
    assert doc["bench"]["e4_ring_cost"] == {"stub": True}
    assert doc["schema"].startswith("repro.obs/")


def test_current_default_pr_tag(rb):
    assert rb.DEFAULT_PR == "pr10"


def test_list_prints_known_ids_and_exits(rb, capsys):
    assert rb.main(["run_benches", "--list"]) == 0
    assert capsys.readouterr().out.split() == list(rb.BENCH_IDS)


def _scaled_bench_stubs(rb, monkeypatch, seen):
    """Replace the scale-aware benches with quick-recording stubs."""

    def fake_e18(quick=False):
        seen["E18"] = quick
        return {
            "users_1k": 1, "equivalent": True,
            "users_per_sec_1k": 1.0, "cycles_per_sec_1k": 1.0,
        }, rb._boot_snapshot()

    def fake_e19(quick=False):
        seen["E19"] = quick
        return {
            "cores": 1, "speedup_2shard": 1.0, "speedup_4shard": 1.0,
            "speedup_asserted": False, "one_shard_equivalent": True,
            "deterministic_merge": True,
        }, rb._boot_snapshot()

    def fake_e20(quick=False):
        seen["E20"] = quick
        return {
            "cores": 1,
            "overhead_wall_overhead_ratio": 1.0,
            "overhead_clock_identical": True,
            "chaos_breaches": 1, "chaos_breaches_confined": True,
            "chaos_busy_density_storm": 0.5,
            "chaos_busy_density_after": 0.9,
            "same_seed_identical": True, "sharded_identical": True,
            "one_shard_matches_driver": True,
        }, rb._boot_snapshot()

    def fake_e21(quick=False):
        seen["E21"] = quick
        return {
            "gates_total": 42, "max_gate_reduction": 0.8,
            "pen_successes_total": 0, "pen_attempted_total": 24,
            "all_identical": True, "all_deny_complete": True,
        }, rb._boot_snapshot()

    monkeypatch.setattr(rb, "workload_bench_numbers", fake_e18)
    monkeypatch.setattr(rb, "sharded_bench_numbers", fake_e19)
    monkeypatch.setattr(rb, "timeline_bench_numbers", fake_e20)
    monkeypatch.setattr(rb, "specialize_bench_numbers", fake_e21)


def test_quick_flag_reaches_the_scaled_benches(rb, sandbox, monkeypatch):
    seen = {}
    _scaled_bench_stubs(rb, monkeypatch, seen)
    assert rb.main(
        ["run_benches", "--only", "E18,E19,E20,E21", "--quick"]
    ) == 0
    assert seen == {"E18": True, "E19": True, "E20": True, "E21": True}


def test_without_quick_the_full_legs_run(rb, sandbox, monkeypatch):
    seen = {}
    _scaled_bench_stubs(rb, monkeypatch, seen)
    assert rb.main(["run_benches", "--only", "E18,E19,E20,E21"]) == 0
    assert seen == {"E18": False, "E19": False, "E20": False, "E21": False}


def test_pr_flag_overrides_default(rb, sandbox):
    assert rb.main(["run_benches", "--pr", "pr9", "--only", "E4"]) == 0
    assert (sandbox / "benchmarks" / "results" / "BENCH_pr9.json").exists()


def test_bench_pr_env_overrides_default(rb, sandbox, monkeypatch):
    monkeypatch.setenv("BENCH_PR", "pr8")
    assert rb.main(["run_benches", "--only", "E4"]) == 0
    assert (sandbox / "benchmarks" / "results" / "BENCH_pr8.json").exists()


def test_pr_flag_beats_env(rb, sandbox, monkeypatch):
    monkeypatch.setenv("BENCH_PR", "pr8")
    assert rb.main(["run_benches", "--pr", "pr10", "--only", "E4"]) == 0
    results = sandbox / "benchmarks" / "results"
    assert (results / "BENCH_pr10.json").exists()
    assert not (results / "BENCH_pr8.json").exists()


def test_explicit_output_path_still_wins(rb, sandbox, tmp_path):
    out = tmp_path / "deep" / "nested" / "custom.json"
    assert rb.main(["run_benches", str(out), "--only", "E4"]) == 0
    assert out.exists()


def test_pr_flag_requires_a_tag(rb, sandbox):
    assert rb.main(["run_benches", "--pr"]) == 2


def test_unknown_only_id_is_an_error(rb, sandbox):
    assert rb.main(["run_benches", "--only", "E99"]) == 2
    assert rb.main(["run_benches", "--only", ","]) == 2


def test_invalid_merged_document_refuses_to_write(rb, sandbox, monkeypatch):
    """Validation covers the document actually written: a snapshot that
    fails the schema aborts the export with nothing on disk."""
    monkeypatch.setattr(rb, "_boot_snapshot",
                        lambda: {"schema": "bogus/v0"})
    assert rb.main(["run_benches", "--only", "E4"]) == 1
    results = sandbox / "benchmarks" / "results"
    assert not results.exists() or not list(results.iterdir())
