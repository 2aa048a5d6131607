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


def _perfbench_output(digests: dict, seed: int = 1975) -> str:
    """What ``perfbench/run.py --workload all`` prints, trimmed."""
    lines = []
    for name, digest in digests.items():
        if digest is None:
            lines.append(f"perfbench {name}: FAILED: rep process exited 1")
            continue
        lines += [
            f"perfbench {name}: seed {seed}, 2000 users, 3 untraced "
            "repetitions",
            "  latency samples per repetition: 2000 (20 beyond p99)",
            f"  simulated digest: {digest}",
            "  users_per_s                                    1234.5 users/s",
        ]
    lines.append('{"correct": true}')
    return "\n".join(lines) + "\n"


#: The default seed's digests and the held-out seed's, as CI pins them.
SEED_1975 = {"interactive": "337510b378089ce7",
             "overcommit": "cbe740c766a8ae23",
             "login_storm": "d972290684496b10"}
SEED_2718 = {"interactive": "cf5bc1add9910ead",
             "overcommit": "2e25e9db19312c6f",
             "login_storm": "b9aae65f61edee23"}


class TestPerfbenchDigestPins:
    def test_pinned_digests_pass(self):
        checker = _digest_checker()
        text = _perfbench_output(dict(checker.PINNED[1975]))
        assert checker.problems(text) == []

    def test_a_moved_digest_names_the_workload_and_both_digests(self):
        checker = _digest_checker()
        digests = dict(checker.PINNED[1975], overcommit="0123456789abcdef")
        assert checker.problems(_perfbench_output(digests)) == [
            "overcommit: simulated digest 0123456789abcdef, pinned "
            f"{checker.PINNED[1975]['overcommit']}"
        ]

    @pytest.mark.parametrize("how", ["failed", "absent"])
    def test_a_missing_workload_fails(self, how):
        checker = _digest_checker()
        digests = dict(checker.PINNED[1975])
        if how == "failed":
            digests["login_storm"] = None
        else:
            del digests["login_storm"]
        found = checker.problems(_perfbench_output(digests))
        assert len(found) == 1
        assert found[0].startswith("login_storm: no simulated digest")

    @pytest.mark.parametrize("seed, digests", [(1975, SEED_1975),
                                               (2718, SEED_2718)])
    def test_each_seed_checks_against_its_own_table(self, seed, digests):
        checker = _digest_checker()
        assert checker.problems(_perfbench_output(digests, seed)) == []
        other = SEED_2718 if seed == 1975 else SEED_1975
        assert len(checker.problems(_perfbench_output(other, seed))) == 3

    def test_an_unpinned_seed_fails(self):
        checker = _digest_checker()
        text = _perfbench_output(SEED_1975, seed=42)
        assert checker.problems(text) == [
            "no digests pinned for seed 42 (pinned: 1975, 2718)"
        ]

    def test_an_unpinned_seed_exits_non_zero(self):
        text = _perfbench_output(SEED_1975, seed=42)
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" /
                                 "check_perfbench_digests.py")],
            input=text, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == text + (
            "check_perfbench_digests: no digests pinned for seed 42 "
            "(pinned: 1975, 2718)\n")

    def test_a_run_must_name_one_seed(self):
        checker = _digest_checker()
        failed = _perfbench_output(dict.fromkeys(SEED_1975))
        assert checker.problems(failed) == [
            "expected one seed in the headers, found none"
        ]
        mixed = (_perfbench_output(SEED_1975)
                 + _perfbench_output(SEED_2718, seed=2718))
        assert checker.problems(mixed) == [
            "expected one seed in the headers, found [1975, 2718]"
        ]
