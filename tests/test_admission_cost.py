"""Guard: admitting a user costs a bounded amount of host work.

Admission (log in, create the data segment, write its seed words,
initiate the program) goes through the gate choke point, the reference
monitor and the kernel's word writes, and page moves go out through
the cam broadcast.  Each resolves its fixed work once: a gate's
validators and target rings, a pattern's specificity, a principal's
text, the process tracking of a write, one shared default for a
branch's brackets, and a broadcast index of plain dicts of weak
references.  A change that put that work back on every call, or a
``WeakSet`` back on every page move, fails these counts.
"""

import gc
import sys

import pytest

from repro import MulticsSystem, kernel_config
from repro.workloads import WorkloadDriver, generate_population

#: Admissions measured: the 500 after the first 100, on E18's hierarchy
#: (the ``interactive`` workload's), seed 1975.
FIRST, END = 100, 600

#: Python function calls per admitted user: about 369 under Python
#: 3.11, and about 475 with that fixed work done on every call.
MAX_CALLS = 420
#: GC-tracked objects retained per admitted user: about 44, and about
#: 51 with a ``WeakSet`` per uid and brackets per branch.
MAX_OBJECTS = 50


@pytest.fixture(scope="module")
def admission():
    """Python calls made inside ``_admit``, and GC-tracked objects
    retained, per admitted user over admissions ``FIRST``..``END``."""
    system = MulticsSystem(kernel_config(
        page_size=16, core_frames=16384, bulk_frames=32768,
        disk_frames=65536,
    )).boot()
    driver = WorkloadDriver(system, n_cpus=2)
    admit = driver._admit
    calls = 0
    objects = {}

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def profiled(spec, index):
        if not FIRST <= index < END:
            return admit(spec, index)
        if index == FIRST:
            gc.collect()
            objects["first"] = len(gc.get_objects())
        sys.setprofile(count)
        try:
            return admit(spec, index)
        finally:
            sys.setprofile(None)
            if index == END - 1:
                gc.collect()
                objects["end"] = len(gc.get_objects())

    driver._admit = profiled
    report = driver.run(generate_population(END, seed=1975))
    assert report.admitted == END
    n = END - FIRST
    return calls / n, (objects["end"] - objects["first"]) / n


def test_python_calls_per_admitted_user(admission):
    calls, _ = admission
    assert calls <= MAX_CALLS


def test_objects_retained_per_admitted_user(admission):
    _, objects = admission
    assert objects <= MAX_OBJECTS


def test_page_moves_run_no_weakset_code():
    """A run small enough to evict from core and bulk: every page in
    and out fires the cam broadcast, which runs no ``_weakrefset``
    code."""
    system = MulticsSystem(kernel_config(
        page_size=16, core_frames=64, bulk_frames=128, disk_frames=4096,
    )).boot()
    driver = WorkloadDriver(system, n_cpus=2)
    population = generate_population(80, seed=1975)
    weakset_frames = 0

    def watch(frame, event, arg):
        nonlocal weakset_frames
        if (event == "call"
                and frame.f_code.co_filename.endswith("_weakrefset.py")):
            weakset_frames += 1

    sys.setprofile(watch)
    try:
        report = driver.run(population)
    finally:
        sys.setprofile(None)
    counters = system.metrics.snapshot()["counters"]
    assert report.jobs_completed == 80
    assert counters["pc.core_evictions"] > 0
    assert counters["pc.bulk_evictions"] > 0
    assert weakset_frames == 0
