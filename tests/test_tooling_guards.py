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
