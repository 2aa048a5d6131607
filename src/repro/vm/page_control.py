"""Page control: servicing missing-page faults.

Two complete designs, matching the paper's description (experiment E5):

**Sequential** (:class:`SequentialPageControl`) — the current-Multics
design the paper criticizes.  The whole cascade runs *in the faulting
process*: if no core frame is free it must first move a page from core
to the bulk store; if the bulk store is full it must first move a page
from the bulk store (via primary memory) to disk; only then can it
bring in the wanted page.  The faulting process executes every step.

**Parallel** (:class:`ParallelPageControl`) — the paper's new design.
One dedicated kernel process (the *core freer*) "runs in a loop making
sure that some small number of free primary memory blocks always
exist"; a second (the *bulk freer*) "keeps space free on the bulk store
by moving pages to disk when required".  The faulting process "can just
wait until a primary memory block is free and then initiate the
transfer of the desired page into primary memory".

Both designs share the fault frame (:meth:`PageControl.fault`: the
count, the page-table lock, the trace span and the E5 record) and the
data-movement helpers; each keeps only its own move loop, so the
measured difference is purely structural: how many steps the *faulting
process* performs, and how long a fault takes under contention.

Victims are chosen in one place, :meth:`PageControl._choose_core_victims`,
through the policy's one call (:mod:`repro.vm.replacement`); a position
outside the census raises.  Every missing page the CPUs and the
kernel's word reads and writes meet enters through
:meth:`PageControl.service_missing`.

A memory level with no free frame and nothing left to evict (parity
retirement has taken every frame it could free) is out of service.  The
synchronous path, on core and on the bulk store, and both designs'
faulters on core deny the fault with :class:`DeviceError`;
:class:`OutOfFrames` never reaches a caller.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass

from repro.config import PageControlKind, SystemConfig
from repro.errors import DeviceError
from repro.faults.recovery import RetryPolicy, retry_call
from repro.hw.assoc import CamBroadcast
from repro.hw.clock import Simulator
from repro.hw.memory import MemoryHierarchy
from repro.hw.segmentation import PTW, DescriptorSegment
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.proc.ipc import Block, Charge, Now, Wakeup
from repro.proc.process import Process
from repro.proc.scheduler import TrafficController
from repro.vm.replacement import ReplacementPolicy, make_policy
from repro.vm.segment_control import ActiveSegment, ActiveSegmentTable, PageHome


@dataclass(slots=True)
class ResidentPage:
    """Page control's record of one page currently in a core frame."""

    aseg: ActiveSegment
    pageno: int
    loaded_at: int
    #: ``aseg.ptws[pageno]``, kept so a replacement round reads and
    #: clears a used bit with one attribute access.
    ptw: PTW


@dataclass
class FaultRecord:
    """Measurement of one serviced fault (consumed by experiment E5)."""

    process: str
    started: int
    finished: int
    #: Page-moving steps executed by the *faulting process itself*.
    steps_in_faulter: int

    @property
    def latency(self) -> int:
        return self.finished - self.started


class PageControl:
    """Shared state and data movement for both designs."""

    kind = "abstract"

    def __init__(
        self,
        sim: Simulator,
        scheduler: TrafficController,
        hierarchy: MemoryHierarchy,
        ast: ActiveSegmentTable,
        config: SystemConfig,
        policy: ReplacementPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        locks=None,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.hierarchy = hierarchy
        self.ast = ast
        self.config = config
        self.policy = policy or make_policy("clock")
        self.tracer = tracer or NULL_TRACER
        #: The global page-table lock (repro.kernel.locks): every fault
        #: service and frame move happens under it.  On the
        #: discrete-event path acquisitions are free (events are
        #: serial); the SMP complex passes a real timestamp and owner to
        #: :meth:`service_sync` so concurrent faulters serialize here —
        #: exactly where the paper's kernel serializes them.
        self.ptl = locks.ptl if locks is not None else None
        #: (uid, pageno) -> ResidentPage for every page in core, in
        #: load order: pages are inserted as they load and the clock
        #: never runs backwards, so ``loaded_at`` never decreases along
        #: the iteration.  Replacement rounds rely on that order.
        self.resident: dict[tuple[int, int], ResidentPage] = {}
        #: FIFO census of pages on the bulk store: (uid, pageno) -> the
        #: page's segment, oldest first.  An OrderedDict, because a
        #: plain dict's first key costs a scan past every key deleted
        #: from the front since its last resize.
        self._bulk_pages: OrderedDict[tuple[int, int], ActiveSegment] = (
            OrderedDict()
        )
        self._io_seq = itertools.count()
        #: This system's cam broadcast: page moves invalidate the
        #: translations cached by the AMs joined to it, and no others.
        self.am_broadcast = CamBroadcast()
        # Fault plane: the injector rides on the hierarchy.
        self.injector = getattr(hierarchy, "injector", None)
        self.retry_policy = RetryPolicy()
        # Metrics.
        self.faults_serviced = 0
        #: Total cycles processes spent waiting on faults (the metering
        #: plane's coverage denominator reads this; the same quantity
        #: is charged per-process in ``_record_fault``).
        self.fault_wait_total = 0
        self.core_evictions = 0
        self.bulk_evictions = 0
        self.transfer_retries = 0
        self.fault_records: list[FaultRecord] = []
        self._h_latency = None
        self._h_steps = None
        if metrics is not None:
            metrics.counter("pc.faults_serviced", "page faults serviced",
                            source=lambda: self.faults_serviced)
            metrics.counter("pc.core_evictions", "pages moved core -> bulk",
                            source=lambda: self.core_evictions)
            metrics.counter("pc.bulk_evictions", "pages moved bulk -> disk",
                            source=lambda: self.bulk_evictions)
            metrics.counter("pc.transfer_retries",
                            "transfers that needed the retry loop",
                            source=lambda: self.transfer_retries)
            metrics.gauge("pc.resident_pages", "pages in core now",
                          source=lambda: len(self.resident))
            self._h_latency = metrics.histogram(
                "pc.fault_latency", "fault service time, cycles")
            self._h_steps = metrics.histogram(
                "pc.fault_steps", "page-moves executed by the faulter")

    # ------------------------------------------------------------------
    # data movement primitives (no simulated waiting here)
    # ------------------------------------------------------------------

    def _retry(self, site: str, thunk):
        """Run a transfer with the bounded-retry policy.

        Returns ``(result, backoff_cycles)``; the backoff is folded into
        the cost the caller charges to simulated time, so recovery slows
        the workload down instead of sleeping the host.
        """
        result, spent = retry_call(
            thunk, self.retry_policy, self.injector, site, tracer=self.tracer
        )
        if spent:
            self.transfer_retries += 1
        return result, spent

    def _page_in_move(self, aseg: ActiveSegment, pageno: int) -> int:
        """Move a page from its home into a free core frame (callers
        make room first).  Returns the transfer cost."""
        home = aseg.homes[pageno]
        if home is None:
            return 0  # already in core (another faulter won the race)
        src = self.hierarchy.level(home.level)
        dst_frame, backoff = self._retry(
            "pc.page_in",
            lambda: self.hierarchy.transfer(src, home.frame, self.hierarchy.core),
        )
        aseg.homes[pageno] = None
        ptw = aseg.ptws[pageno]
        ptw.place(dst_frame)
        # The page may land in a different frame than any cached
        # translation remembers: cam it everywhere before anyone hits.
        self.am_broadcast.cam_uid(aseg.uid, pageno)
        if home.level == "bulk":
            self._bulk_pages.pop((aseg.uid, pageno), None)
        key = (aseg.uid, pageno)
        self.resident[key] = ResidentPage(aseg, pageno, self.sim.clock.now, ptw)
        self.policy.note_loaded(key, self.sim.clock.now)
        return self.hierarchy.transfer_cost(src, self.hierarchy.core) + backoff

    def _evict_core_move(self, rp: ResidentPage) -> int:
        """Move one resident page core -> bulk.  Bulk must have room."""
        ptw = rp.ptw
        assert ptw.in_core and ptw.frame is not None
        bulk_frame, backoff = self._retry(
            "pc.evict_core",
            lambda: self.hierarchy.transfer(
                self.hierarchy.core, ptw.frame, self.hierarchy.bulk
            ),
        )
        ptw.evict()
        # Broadcast cam: every process sharing this segment must stop
        # honouring its cached translation before the frame is reused.
        self.am_broadcast.cam_uid(rp.aseg.uid, rp.pageno)
        rp.aseg.homes[rp.pageno] = PageHome("bulk", bulk_frame)
        key = (rp.aseg.uid, rp.pageno)
        self._bulk_pages[key] = rp.aseg
        del self.resident[key]
        self.core_evictions += 1
        return (
            self.hierarchy.transfer_cost(self.hierarchy.core, self.hierarchy.bulk)
            + backoff
        )

    def _evict_bulk_move(self) -> int:
        """Move the oldest bulk-store page bulk -> disk.

        Historically this went *via primary memory*; the cost charged is
        the sum of both transfers even though the simulation moves the
        data directly.  Callers evict only from a full bulk store, so an
        empty census means it is out of service.
        """
        if not self._bulk_pages:
            raise self._out_of_service("bulk")
        # Peek first, pop only after the transfer lands: a fatal
        # transfer must not lose the page from the census.
        key = next(iter(self._bulk_pages))
        aseg = self._bulk_pages[key]
        pageno = key[1]
        home = aseg.homes[pageno]
        assert home is not None and home.level == "bulk"
        disk_frame, backoff = self._retry(
            "pc.evict_bulk",
            lambda: self.hierarchy.transfer(
                self.hierarchy.bulk, home.frame, self.hierarchy.disk
            ),
        )
        del self._bulk_pages[key]
        aseg.homes[pageno] = PageHome("disk", disk_frame)
        self.bulk_evictions += 1
        return self.hierarchy.transfer_cost(
            self.hierarchy.bulk, self.hierarchy.core
        ) + self.hierarchy.transfer_cost(
            self.hierarchy.core, self.hierarchy.disk
        ) + backoff

    def _make_bulk_room(self) -> int:
        """Move bulk pages to disk until a bulk frame is free, returning
        the cost: a bulk frame freed by a move may be retired instead of
        reused."""
        cost = 0
        while self.hierarchy.bulk.free_count == 0:
            cost += self._evict_bulk_move()
        return cost

    def deactivate_segment(self, aseg: ActiveSegment) -> int:
        """Write every resident page back to a disk home and evict it
        (segment deactivation, e.g. at process destruction).

        Returns the number of pages written back.  Note the written
        pages now live in disk frames; whether those frames are cleared
        when later freed is the residue question of experiment E11.
        """
        if self.ptl is not None:
            self.ptl.acquire(self.sim.clock.now)
        written = 0
        for pageno in aseg.resident_pages():
            ptw = aseg.ptws[pageno]
            # Read (retrying parity hits) before allocating the disk
            # frame, so a fatal read leaks no storage.
            data, _ = self._retry(
                "pc.writeback",
                lambda f=ptw.frame: self.hierarchy.core.read_page(f),
            )
            disk_frame = self.hierarchy.disk.allocate()
            self.hierarchy.disk.write_page(disk_frame, data)
            self.hierarchy.core.free(ptw.frame)
            ptw.evict()
            self.am_broadcast.cam_uid(aseg.uid, pageno)
            aseg.homes[pageno] = PageHome("disk", disk_frame)
            self.resident.pop((aseg.uid, pageno), None)
            written += 1
        return written

    def flush_segment(self, aseg: ActiveSegment) -> None:
        """Throw every page of a segment out of core and off the bulk
        store census (used when a segment is deleted)."""
        if self.ptl is not None:
            self.ptl.acquire(self.sim.clock.now)
        for pageno in aseg.resident_pages():
            ptw = aseg.ptws[pageno]
            self.hierarchy.core.free(ptw.frame)
            ptw.evict()
            self.resident.pop((aseg.uid, pageno), None)
        # Segment deletion invalidates everything cached for it,
        # including fetch-legality entries.
        self.am_broadcast.cam_uid(aseg.uid)
        for pageno in range(aseg.n_pages):
            self._bulk_pages.pop((aseg.uid, pageno), None)

    @staticmethod
    def _out_of_service(level: str) -> DeviceError:
        """The denial for a level with no free frame and nothing left
        to evict: parity retirement has taken every frame it could
        free."""
        return DeviceError(
            f"{level}: out of service, no free frame and nothing to evict"
        )

    def _choose_core_victim(self) -> ResidentPage:
        """Ask the replacement policy for a victim among resident pages."""
        return self._choose_core_victims(1)[0]

    def _choose_core_victims(self, want: int) -> list[ResidentPage]:
        """One replacement round choosing up to ``want`` victims.

        The policy picks the first victim from the census of resident
        pages, ``(key, used)`` in load order, reading no more of it than
        it needs, so the round costs the victims plus the sweep.  The
        clock-hand sweep then clears every used bit, after which any
        further choice this round degenerates to FIFO order, so the
        rest of the batch is the oldest other resident pages, at the
        head of ``resident``.  Callers ask only when core is full, so
        nothing resident means core is out of service.
        """
        resident = self.resident
        if not resident:
            raise self._out_of_service("core")
        index = self.policy.victim_position(
            (key, rp.ptw.used) for key, rp in resident.items()
        )
        if not 0 <= index < len(resident):
            raise ValueError(
                f"replacement policy {self.policy.name!r} chose position "
                f"{index} of a {len(resident)}-page census"
            )
        head = list(
            itertools.islice(resident.values(), max(index, want - 1) + 1)
        )
        victims = [head.pop(index)]
        victims += head[:want - 1]
        # Clock-hand sweep: passing over a page clears its used bit.
        for rp in resident.values():
            rp.ptw.used = False
        return victims

    def _core_eviction_batch(self) -> int:
        """How many frames one synchronous replacement round frees."""
        return max(self.config.free_core_target, self.config.core_frames // 256)

    def _record_fault(
        self, process: Process, started: int, finished: int, steps: int
    ) -> None:
        """Count a discrete-event fault, charge the wait, and feed the
        E5 measurement stream."""
        self.faults_serviced += 1
        process.fault_wait_cycles += finished - started
        self.fault_wait_total += finished - started
        record = FaultRecord(process.name, started, finished, steps)
        self.fault_records.append(record)
        if self._h_latency is not None:
            self._h_latency.observe(record.latency)
            self._h_steps.observe(steps)

    # ------------------------------------------------------------------
    # simulated I/O wait
    # ------------------------------------------------------------------

    def _io(self, cost: int):
        """Generator: wait ``cost`` cycles for an I/O transfer."""
        channel = self.scheduler.create_channel(f"pc.io.{next(self._io_seq)}")
        self.sim.schedule(
            cost, lambda: self.scheduler.send_wakeup(channel, sender=None)
        )
        yield Block(channel)

    # ------------------------------------------------------------------
    # the workload-facing reference helper
    # ------------------------------------------------------------------

    def touch(self, process: Process, aseg: ActiveSegment, pageno: int,
              write: bool = False):
        """Generator: one memory reference by ``process``; faults if the
        page is out of core."""
        ptw = aseg.ptws[pageno]
        if not ptw.in_core:
            yield from self.fault(process, aseg, pageno)
            ptw = aseg.ptws[pageno]
        ptw.used = True
        if write:
            ptw.modified = True
        yield Charge(self.config.costs.core_access)

    # ------------------------------------------------------------------
    # synchronous servicing (for CPU-driven execution outside the DES)
    # ------------------------------------------------------------------

    def service_missing(self, dseg: DescriptorSegment, segno: int,
                        pageno: int, now: int | None = None,
                        owner=None) -> int:
        """Service a missing-page fault on page ``pageno`` of segment
        number ``segno`` in ``dseg``: the one entry for the CPUs'
        missing-page handlers and the kernel's word reads and writes.
        Maps the segment number to its active segment, then
        :meth:`service_sync`; returns the cycle cost."""
        aseg = self.ast.get(dseg.get(segno).uid)
        return self.service_sync(aseg, pageno, now, owner)

    def service_sync(self, aseg: ActiveSegment, pageno: int,
                     now: int | None = None, owner=None) -> int:
        """Service a fault immediately, returning the cycle cost.

        Used by the CPU's missing-page callback, where execution is
        synchronous.  Both designs do the same data movement here; the
        structural difference between them is only observable in the
        discrete-event path.

        ``now``/``owner`` are the SMP complex's concurrency handles: the
        fault is serialized under the global page-table lock at virtual
        time ``now``, any wait for another CPU's hold window is added to
        the returned cycles, and the service cost extends the hold so
        later faulters on other CPUs wait in turn.  Without them
        (uniprocessor / discrete-event callers) the lock is acquired for
        accounting only and the cost is unchanged.
        """
        wait = 0
        if self.ptl is not None:
            wait = self.ptl.acquire(
                self.sim.clock.now if now is None else now, owner
            )
        sid = -1
        if self.tracer.enabled:
            sid = self.tracer.begin(
                "page_fault", design=self.kind, sync=True,
                segment=aseg.uid, page=pageno,
            )
        cost = 0
        try:
            while True:
                if aseg.ptws[pageno].in_core:
                    return cost + wait
                if self.hierarchy.core.free_count == 0:
                    # Synchronous path: free a whole batch per policy
                    # round.  The faulter that hits the full core pays
                    # the batch's transfer cycles; the next batch-many
                    # faulters find free frames.  (The discrete-event
                    # designs keep their one-page-per-step structure —
                    # that structure is what E5 measures.)
                    for rp in self._choose_core_victims(
                        self._core_eviction_batch()
                    ):
                        cost += self._make_bulk_room()
                        cost += self._evict_core_move(rp)
                    continue
                cost += self._page_in_move(aseg, pageno)
                self.faults_serviced += 1
                return cost + wait
        finally:
            if owner is not None and self.ptl is not None:
                # Only a real (SMP) owner extends the hold window: the
                # serialized discrete-event path must never manufacture
                # contention for later callers.
                self.ptl.hold(cost)
            self.tracer.end(sid, cost=cost)

    # ------------------------------------------------------------------
    # the discrete-event fault path
    # ------------------------------------------------------------------

    def fault(self, process: Process, aseg: ActiveSegment, pageno: int):
        """Generator servicing one missing-page fault for ``process``.

        The frame both designs share; the design's ``_moves`` makes the
        page moves.  It yields the cost of each move the faulter makes,
        waited out here as one step, and any wakeup or block the design
        needs in between.
        """
        process.page_faults += 1
        started = yield Now()
        if self.ptl is not None:
            # Discrete-event faulters run serially, so the acquisition
            # is free; it still counts toward the lock discipline.
            self.ptl.acquire(started)
        sid = -1
        if self.tracer.enabled:
            sid = self.tracer.begin(
                "page_fault", design=self.kind,
                process=process.name, segment=aseg.uid, page=pageno,
            )
        steps = 0
        # The generator can be dropped at any yield (fatal injected
        # fault, process destruction): close the span as aborted rather
        # than leaking it with end=None.
        try:
            for item in self._moves(aseg, pageno):
                if isinstance(item, (Wakeup, Block)):
                    yield item
                else:
                    steps += 1
                    yield from self._io(item)
            finished = yield Now()
        except BaseException:
            self.tracer.abort(sid, steps=steps)
            raise
        self.tracer.end(sid, steps=steps)
        self._record_fault(process, started, finished, steps)

    def _moves(self, aseg: ActiveSegment, pageno: int):
        """Generator: the design's page moves for one fault."""
        raise NotImplementedError

    def install(self) -> None:
        """Create any dedicated kernel processes the design needs."""


class SequentialPageControl(PageControl):
    """The old design: the whole cascade runs in the faulting process."""

    kind = "sequential"

    def _moves(self, aseg: ActiveSegment, pageno: int):
        core, bulk = self.hierarchy.core, self.hierarchy.bulk
        # Another process may bring the page in meanwhile.
        while not aseg.ptws[pageno].in_core:
            if core.free_count:
                yield self._page_in_move(aseg, pageno)
                return
            # Make room — and possibly make room to make room.
            if bulk.free_count:
                yield self._evict_core_move(self._choose_core_victim())
            else:
                yield self._evict_bulk_move()


#: Low-water mark of free bulk-store frames kept by the bulk freer.
FREE_BULK_TARGET = 8


class ParallelPageControl(PageControl):
    """The new design: dedicated freer processes keep space available."""

    kind = "parallel"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.core_needed = self.scheduler.create_channel("pc.core_needed")
        self.core_freed = self.scheduler.create_channel("pc.core_freed")
        self.bulk_needed = self.scheduler.create_channel("pc.bulk_needed")
        self.bulk_freed = self.scheduler.create_channel("pc.bulk_freed")
        self.core_freer: Process | None = None
        self.bulk_freer: Process | None = None

    def install(self) -> None:
        """Admit the two dedicated kernel processes."""
        self.core_freer = Process(
            "core_freer", body=self._core_freer_body, ring=0, dedicated=True
        )
        self.bulk_freer = Process(
            "bulk_freer", body=self._bulk_freer_body, ring=0, dedicated=True
        )
        self.scheduler.add_process(self.core_freer)
        self.scheduler.add_process(self.bulk_freer)

    # -- the dedicated processes ----------------------------------------

    def _core_freer_body(self, proc: Process):
        """Keep at least ``free_core_target`` core frames free."""
        target = self.config.free_core_target
        while True:
            if self.hierarchy.core.free_count >= target or not self.resident:
                yield Block(self.core_needed)
                continue
            if self.hierarchy.bulk.free_count == 0:
                # Drive the bulk freer, then wait for it.
                yield Wakeup(self.bulk_needed)
                yield Block(self.bulk_freed)
                continue
            try:
                cost = self._evict_core_move(self._choose_core_victim())
            except DeviceError:
                # Retries exhausted on this eviction; the page stays in
                # core and the daemon keeps serving (degraded, not dead).
                continue
            yield from self._io(cost)
            # Tell one waiting faulter a frame is available.
            yield Wakeup(self.core_freed)

    def _bulk_freer_body(self, proc: Process):
        """Keep at least :data:`FREE_BULK_TARGET` bulk frames free."""
        while True:
            if (self.hierarchy.bulk.free_count >= FREE_BULK_TARGET
                    or not self._bulk_pages):
                yield Block(self.bulk_needed)
                continue
            try:
                cost = self._evict_bulk_move()
            except DeviceError:
                continue  # page stays on the bulk census; keep serving
            yield from self._io(cost)
            yield Wakeup(self.bulk_freed)

    # -- the faulting path -------------------------------------------------

    def _moves(self, aseg: ActiveSegment, pageno: int):
        """The greatly simplified path: wait for a frame, transfer."""
        core = self.hierarchy.core
        while not aseg.ptws[pageno].in_core:
            if core.free_count:
                cost = self._page_in_move(aseg, pageno)
                # Falling below the low-water mark pre-arms the freer.
                if core.free_count < self.config.free_core_target:
                    yield Wakeup(self.core_needed)
                yield cost
                return
            if not self.resident:
                # Nothing for the core freer to evict, ever.
                raise self._out_of_service("core")
            yield Wakeup(self.core_needed)
            yield Block(self.core_freed)


def make_page_control(
    kind: PageControlKind,
    sim: Simulator,
    scheduler: TrafficController,
    hierarchy: MemoryHierarchy,
    ast: ActiveSegmentTable,
    config: SystemConfig,
    policy: ReplacementPolicy | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    locks=None,
) -> PageControl:
    """Build (and for the parallel design, install) page control."""
    cls = {
        PageControlKind.SEQUENTIAL: SequentialPageControl,
        PageControlKind.PARALLEL: ParallelPageControl,
    }[kind]
    control = cls(sim, scheduler, hierarchy, ast, config, policy,
                  metrics=metrics, tracer=tracer, locks=locks)
    control.install()
    return control
