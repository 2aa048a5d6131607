"""Guards for the code that drives the package from outside it.

``perfbench/run.py --trace 1`` wraps the program's public calls by
name, and the examples are the documented entry points.  Neither runs
in the tier-1 suite otherwise, so a rename under ``src/`` could break
them silently; these tests make it fail here instead.
"""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _traced_calls() -> list:
    """One ``pytest.param`` per call ``perfbench/tracing.py`` wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [
        pytest.param(module, owner, name, id=f"{owner or module}.{name}")
        for _, module, owner, names in tracing.LAYER_CALLS
        for name in names
    ]


@pytest.mark.parametrize("module_name, owner, name", _traced_calls())
def test_traced_layer_call_resolves(module_name, owner, name):
    """Resolve the call as ``LayerTracer.install`` does: import the
    module, take the owner, and find the name in its own namespace."""
    module = importlib.import_module(module_name)
    target = getattr(module, owner) if owner else module
    assert callable(vars(target).get(name))


@pytest.mark.parametrize(
    "example", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.stem
)
def test_example_runs(example):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(example)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _digest_checker():
    spec = importlib.util.spec_from_file_location(
        "check_perfbench_digests",
        ROOT / "scripts" / "check_perfbench_digests.py",
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def _perfbench_output(digests: dict) -> str:
    """What ``perfbench/run.py --workload all`` prints, trimmed."""
    lines = []
    for name, digest in digests.items():
        if digest is None:
            lines.append(f"perfbench {name}: FAILED: rep process exited 1")
            continue
        lines += [
            f"perfbench {name}: seed 1975, 2000 users, 3 untraced "
            "repetitions",
            "  latency samples per repetition: 2000 (20 beyond p99)",
            f"  simulated digest: {digest}",
            "  users_per_s                                    1234.5 users/s",
        ]
    lines.append('{"correct": true}')
    return "\n".join(lines) + "\n"


class TestPerfbenchDigestPins:
    def test_pinned_digests_pass(self):
        checker = _digest_checker()
        text = _perfbench_output(dict(checker.PINNED))
        assert checker.problems(text) == []

    def test_a_moved_digest_names_the_workload_and_both_digests(self):
        checker = _digest_checker()
        digests = dict(checker.PINNED, overcommit="0123456789abcdef")
        assert checker.problems(_perfbench_output(digests)) == [
            "overcommit: simulated digest 0123456789abcdef, pinned "
            f"{checker.PINNED['overcommit']}"
        ]

    @pytest.mark.parametrize("how", ["failed", "absent"])
    def test_a_missing_workload_fails(self, how):
        checker = _digest_checker()
        digests = dict(checker.PINNED)
        if how == "failed":
            digests["login_storm"] = None
        else:
            del digests["login_storm"]
        found = checker.problems(_perfbench_output(digests))
        assert len(found) == 1
        assert found[0].startswith("login_storm: no simulated digest")
