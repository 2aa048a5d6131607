"""Output checks: every burst's checksum, and a sample of the data its
loop left behind, against a pure-Python model of the profile loop; and
a digest of the simulated results.

The model is the paper's "denial of use, never wrong data" invariant
made checkable: whatever page control, the associative memories or the
interpreter do to move words around, each burst must return the value
its loop computes over the words the workload driver stored.
"""

from __future__ import annotations

import hashlib


#: One burst in this many has its data words read back after the run.
READBACK_EVERY = 8


def model_run(profile, index: int, page_size: int,
              seed_words: int) -> tuple[int, list[int]]:
    """What a burst of ``profile`` computes for the user admitted
    ``index``-th: the value it returns and the first ``seed_words`` words
    of its data segment afterwards.

    The loop runs over a zeroed ``data_pages x page_size`` segment whose
    first ``seed_words`` words the workload driver set to
    ``(index*7+k) % 509 + 1``."""
    span = profile.data_pages * page_size
    memory = [0] * span
    for k in range(seed_words):
        memory[k] = (index * 7 + k) % 509 + 1
    acc = 0
    for i in range(profile.iters):
        offset = (i * profile.stride) % span
        acc += memory[offset]
        if profile.stores:
            memory[offset] = acc
        for _ in range(profile.alu):
            acc = acc * 3 % 8191
    return acc, memory[:seed_words]


class ChecksumModel:
    """Expected results, keyed by job label, for one population."""

    def __init__(self, ordered_population, page_size: int,
                 seed_words: int) -> None:
        # The workload driver seeds user ``index`` by its place in
        # arrival order and labels its burst "<person>:<profile>".
        self.expected = {
            f"{spec.person}:{spec.profile.name}":
                model_run(spec.profile, index, page_size, seed_words)
            for index, spec in enumerate(ordered_population)
        }

    def wrong(self, jobs) -> int:
        """Completed jobs whose result differs from the model."""
        return sum(
            1 for job in jobs
            if job.error is None
            and job.result != self.expected[job.label][0]
        )

    def wrong_readback(self, jobs, read_word) -> int:
        """Sampled jobs whose data words, read back through the kernel
        after the run, differ from the model.  Each user runs one burst,
        so nothing else reads an evicted page back into core; these
        reads do."""
        from repro.hw.cpu import Op

        wrong = 0
        for job in jobs[::READBACK_EVERY]:
            code = job.ctx.code_segments[job.segno]
            data = next(i.a for i in code.instructions if i.op is Op.LOADI)
            words = self.expected[job.label][1]
            if [read_word(job.ctx, data, k)
                    for k in range(len(words))] != words:
                wrong += 1
        return wrong


def simulated_digest(report, snapshot_json: str, jobs) -> str:
    """SHA-256 over everything a run computes in simulated time: the
    clocks, the latency list, the registry snapshot and each job's
    result and timing.  Host speed must never change it."""
    h = hashlib.sha256()
    h.update(repr((report.start_clock, report.end_clock,
                   report.latencies)).encode())
    h.update(snapshot_json.encode())
    h.update(repr([(j.label, j.result, j.started, j.finished, j.cycles,
                    j.stall_cycles, j.instructions) for j in jobs]).encode())
    return h.hexdigest()
