"""The kernel's word reads on a process's behalf.

One path, ``KernelServices.read_words``, serves ``read_word``,
``read_segment_words`` and ``Session.read_words``: it tracks the
process once, translates each word with the process's own access and
AM, and reads each word's core through its own retry loop at the
``kernel.read_word`` site.  These tests pin its host cost and its
equivalence, under injected parity errors, with the per-word loop it
replaced.
"""

import sys

import pytest

from repro import MulticsSystem, kernel_config
from repro.errors import MissingPageFault
from repro.faults.harness import harness_config
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import retry_call
from repro.hw.segmentation import Intent, translate

from tests.test_superblocks import outcome_of

#: Python calls to read 64 words of a session's segment: 260 under
#: Python 3.11 (translate, the AM probe, retry_call and the core read
#: for each word), and 643 when every word went through ``read_word``,
#: re-tracked the process and built a lambda for its retry loop.
MAX_CALLS = 320


def _calls(thunk) -> tuple:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize("how", ["session", "segment"])
def test_reading_64_words_makes_a_few_calls_a_word(how):
    system = MulticsSystem(kernel_config()).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    alice = system.login("Alice", "Crypto", "alice-pw")
    segno = alice.create_segment("words")
    alice.write_words(segno, list(range(64)))
    services = system.services
    if how == "session":
        words, calls = _calls(lambda: alice.read_words(segno, 64))
    else:
        words, calls = _calls(lambda: services.read_segment_words(
            alice.process, segno, 64))
    assert words == list(range(64))
    assert calls <= MAX_CALLS, calls


def old_read_word(services, process, segno, offset):
    """The per-word read the multi-word path replaced, as it was."""
    services._track(process)
    am = process.dseg.am if services.config.am_enabled else None
    while True:
        try:
            frame, woff = translate(
                process.dseg, segno, offset, process.ring,
                Intent.READ, services.config.page_size, am=am,
            )
            break
        except MissingPageFault as fault:
            uid = process.dseg.get(segno).uid
            services.page_control.service_sync(
                services.ast.get(uid), fault.pageno)
    value, _ = retry_call(
        lambda: services.hierarchy.core.read(frame, woff),
        services.retry_policy, services.injector, "kernel.read_word",
        tracer=services.tracer,
    )
    return value


#: Pages of the segment read: more than the 8 core frames hold.
PAGES = 12


def _parity_run(seed: int, rate: float, reads, new: bool) -> dict:
    """Write a segment of more pages than core holds, then turn on
    parity errors on core reads and make ``reads``: each ``(offset,
    count)``, past the bound for some, faulting evicted pages back in.
    Returns every read's outcome and what the injector, the audit trail
    and page control recorded."""
    system = MulticsSystem(harness_config(
        fault_plan=FaultPlan([], seed=seed), audit_capacity=1 << 16,
    )).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    alice = system.login("Alice", "Crypto", "alice-pw")
    page = system.config.page_size
    segno = alice.create_segment("scratch", n_pages=PAGES)
    alice.write_words(segno, [7 * k + 1 for k in range(PAGES * page)])
    services = system.services
    injector = services.injector
    injector.plan.specs.append(
        FaultSpec("memory.core.read", "parity", rate=rate))
    outcomes = []
    for offset, count in reads:
        if new:
            outcomes.append(outcome_of(
                lambda: alice.read_words(segno, count, offset)))
        else:
            outcomes.append(outcome_of(lambda: [
                old_read_word(services, alice.process, segno, offset + i)
                for i in range(count)
            ]))
    return {
        "outcomes": outcomes,
        "injected": list(injector.injected),
        "counts": (injector.recovered, injector.degraded, injector.fatal),
        "ticks": list(injector.recovery_ticks),
        "audit": system.audit.records(),
        "paging": (services.page_control.faults_serviced,
                   services.page_control.core_evictions,
                   services.page_control.transfer_retries),
    }


@pytest.mark.parametrize("seed,rate", [
    (1, 0.05), (2, 0.2), (3, 0.4), (4, 0.7), (5, 1.0),
])
def test_the_path_matches_the_per_word_loop_under_parity(seed, rate):
    reads = [(0, 64), (100, 40), (170, 40), (188, 8), (0, 1)]
    new = _parity_run(seed, rate, reads, new=True)
    assert new == _parity_run(seed, rate, reads, new=False)
    assert new["injected"]
    kinds = [kind for kind, _ in new["outcomes"]]
    if rate == 1.0:
        assert kinds == ["DeviceError"] * len(reads)
    if rate == 0.05:
        # Every retry loop recovers; the two reads past the bound stop
        # at word 192.
        assert kinds == ["ok", "ok", "BoundsViolation", "BoundsViolation",
                         "ok"]
        assert new["outcomes"][0][1] == [7 * k + 1 for k in range(64)]
