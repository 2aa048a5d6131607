"""A memory level that parity retirement empties is out of service.

Once a level has no free frame and page control has nothing left to
evict from it, every fault path that needs one of its frames must deny
use with :class:`DeviceError`: the synchronous path (the kernel's word
reads, the CPUs' missing-page handlers) on core and on the bulk store,
both discrete-event designs on core, and the E7 mechanism's
``move_to_bulk`` gate on the bulk store.  :class:`OutOfFrames` must
never reach a caller, and no path may spin or block forever waiting for
a frame that cannot come.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import MulticsSystem
from repro.config import PageControlKind, SystemConfig
from repro.errors import DeviceError, ReproError
from repro.faults.harness import harness_config
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.clock import Simulator
from repro.hw.memory import MemoryHierarchy
from repro.proc.process import Process
from repro.proc.scheduler import TrafficController
from repro.vm.page_control import make_page_control
from repro.vm.policy_mechanism import PageRemovalMechanism
from repro.vm.segment_control import ActiveSegmentTable

from tests.test_kernel_word_reads import _parity_run

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What page control says of a level it cannot free a frame on.
CORE_OUT = "core: out of service, no free frame and nothing to evict"
BULK_OUT = "bulk: out of service, no free frame and nothing to evict"


def _session(seed: int, n_pages: int, **overrides):
    """A harness system with a fault plan (so frames retire) and one
    segment of ``n_pages`` written with known words."""
    system = MulticsSystem(harness_config(
        fault_plan=FaultPlan([], seed=seed), **overrides)).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    alice = system.login("Alice", "Crypto", "alice-pw")
    page = system.config.page_size
    segno = alice.create_segment("scratch", n_pages=n_pages)
    alice.write_words(segno, [7 * k + 1 for k in range(n_pages * page)])
    return system, alice, segno


def test_sync_path_denies_when_core_is_retired():
    """Core parity at seed 2 retires all 8 core frames: the last three
    reads need a frame and are denied."""
    reads = [(0, 64), (100, 40), (170, 40), (188, 8), (0, 1)]
    run = _parity_run(2, 0.2, reads, new=True)
    assert run["outcomes"][2:] == [("DeviceError", CORE_OUT)] * 3


@pytest.mark.parametrize("seed", range(1, 8))
def test_sync_path_denies_when_bulk_is_retired(seed):
    """Bulk-store parity on a 60-page segment: a move to disk may free a
    bulk frame only to retire it, so the path keeps evicting until a
    frame is really free, and once every bulk frame is retired a fault
    that must evict core is denied.  Reads that succeed read the right
    word."""
    system, alice, segno = _session(seed, 60)
    page = system.config.page_size
    system.services.injector.plan.specs.append(
        FaultSpec("memory.bulk.read", "parity", rate=0.5))
    denials = set()
    for _pass in range(6):
        for pageno in range(60):
            try:
                words = alice.read_words(segno, 1, pageno * page)
            except ReproError as exc:
                assert isinstance(exc, DeviceError), exc
                denials.add(str(exc))
            else:
                assert words == [7 * pageno * page + 1]
    bulk = system.services.hierarchy.bulk
    assert len(bulk.retired) == bulk.n_frames
    assert BULK_OUT in denials


def des_fault_after_core_retired(kind: str) -> dict:
    """Retire every core frame as the seed-2 run does, then take one
    missing-page fault on the discrete-event path of design ``kind``."""
    system, alice, segno = _session(
        2, 12, page_control=PageControlKind[kind])
    services = system.services
    services.injector.plan.specs.append(
        FaultSpec("memory.core.read", "parity", rate=0.2))
    for offset, count in [(0, 64), (100, 40), (170, 40)]:
        try:
            alice.read_words(segno, count, offset)
        except ReproError:
            pass  # the synchronous path's denial is the test above
    core = services.hierarchy.core
    assert len(core.retired) == core.n_frames
    pc = services.page_control
    aseg = services.ast.get(alice.process.dseg.get(segno).uid)
    faulter = Process("faulter",
                      body=lambda proc: pc.touch(proc, aseg, 0))
    services.scheduler.add_process(faulter)
    system.run()
    return {"state": faulter.state.name,
            "failure": [type(faulter.failure).__name__,
                        str(faulter.failure)]}


@pytest.mark.parametrize("kind", ["SEQUENTIAL", "PARALLEL"])
def test_des_fault_denies_when_core_is_retired(kind):
    """Run in a child process under a time bound: a design that retries
    at once would spin inside one scheduler step, and one that waits for
    the core freer would block with no error at all."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    code = ("import json\n"
            "from tests.test_vm_out_of_service import "
            "des_fault_after_core_retired as run\n"
            f"print(json.dumps(run({kind!r})))")
    try:
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"the {kind.lower()} fault did not return in 60 s")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "state": "FAILED", "failure": ["DeviceError", CORE_OUT]}


@pytest.mark.parametrize("bad_frames", [1, 2])
def test_removal_gate_makes_bulk_room_past_retired_frames(bad_frames):
    """The E7 mechanism's ``move_to_bulk`` with core and the bulk store
    full, the oldest ``bad_frames`` bulk pages in frames that have taken
    the retirement threshold of parity hits: moving them to disk retires
    their frames, so the gate keeps moving bulk pages until a frame is
    free, and is denied once none can be."""
    config = SystemConfig(page_size=4, core_frames=4, bulk_frames=2,
                          disk_frames=64)
    sim = Simulator()
    hierarchy = MemoryHierarchy(
        config, injector=FaultInjector(FaultPlan([], seed=0)))
    ast = ActiveSegmentTable(hierarchy)
    pc = make_page_control(PageControlKind.SEQUENTIAL, sim,
                           TrafficController(sim, config), hierarchy, ast,
                           config)
    seg = ast.activate(uid=1, n_pages=6)
    for pageno in range(4):
        pc.service_sync(seg, pageno)
    for pageno in range(2):
        pc._evict_core_move(pc.resident[(1, pageno)])
    for pageno in range(4, 6):
        pc.service_sync(seg, pageno)
    assert hierarchy.core.free_count == hierarchy.bulk.free_count == 0
    for pageno in range(bad_frames):
        frame = seg.homes[pageno].frame
        hierarchy.bulk.fault_counts[frame] = config.frame_retire_threshold
    gates = PageRemovalMechanism(pc).gates()
    slot = gates.usage_info()[0].slot
    if bad_frames < hierarchy.bulk.n_frames:
        assert gates.move_to_bulk(slot) is True
        assert hierarchy.core.free_count == 1
    else:
        with pytest.raises(DeviceError, match=BULK_OUT):
            gates.move_to_bulk(slot)
    assert len(hierarchy.bulk.retired) == bad_frames
