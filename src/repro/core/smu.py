"""The Storage Management Unit (paper §III-C, Figure 7).

The SMU is the hardware that turns a page miss into a completed page-table
update without any OS involvement.  One instance per socket; the MMU routes
a miss here via the socket ID in the LBA-augmented PTE.  Pipeline for one
miss (Figure 7's circled steps, with Figure 11(b)'s timings):

1. MMU sends ``(PUD-entry addr, PMD-entry addr, PTE addr, device ID, LBA)``
   (two register writes);
2. PMSHR CAM lookup (5 cycles) — a hit coalesces the request: the walk goes
   *pending* until the completion broadcast;
3. the free-page fetcher pops a frame from the free-page queue (free when
   the prefetch buffer is warm; one memory read, 90 ns, when cold).  An
   empty queue aborts the miss: the PMSHR entry is invalidated and the MMU
   raises a normal page-fault exception (the OS also refills the queue);
4. the entry is finalised with the PFN;
5. the NVMe host controller builds and submits the command (77.16 ns +
   1.60 ns doorbell);
6. device I/O; the completion unit snoops the CQ write (2 cycles);
7. the page-table updater writes PTE/PMD/PUD (97 cycles);
8. completion broadcast wakes all pending walks; the PMSHR entry retires
   (2 cycles notify).

The *pipeline stalls* of the faulting core are pure hardware time — no
kernel instructions, no pollution — which is precisely the paper's point.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.config import SystemConfig
from repro.core.host_controller import SmuHostController
from repro.core.page_table_updater import PageTableUpdater
from repro.core.pmshr import Pmshr
from repro.core.prefetcher import create_prefetcher
from repro.errors import SmuError
from repro.obs import trace as obs
from repro.sim import (
    Completion,
    Signal,
    Simulator,
    StatAccumulator,
    first_of,
    timer,
)
from repro.storage.nvme import NVMeCommand
from repro.vm.page_table import WalkResult
from repro.vm.pte import ANON_FIRST_TOUCH_LBA


class Smu:
    """One socket's Storage Management Unit."""

    def __init__(self, sim: Simulator, config: SystemConfig, kernel: Any, socket_id: int = 0):
        self.sim = sim
        self.config = config
        self.kernel = kernel
        self.socket_id = socket_id
        smu_config = config.smu
        self.pmshr = Pmshr(sim, smu_config.pmshr_entries)
        self.host = SmuHostController(sim, smu_config, self._on_completion)
        self.updater = PageTableUpdater()
        # Per-miss stall durations are configuration constants; computing
        # them once (with the same expressions) keeps the values bit-equal.
        self._request_cam_ns = self._cycles_ns(
            smu_config.request_reg_write_cycles + smu_config.cam_lookup_cycles
        )
        self._notify_ns = self._cycles_ns(smu_config.notify_cycles)
        # Completion labels are debugging aids only; minting them here
        # keeps the per-miss I/O registration free of string formatting.
        self._io_names = tuple(
            f"smu-io-{index}" for index in range(smu_config.pmshr_entries)
        )
        self._completion_update_ns = (
            self._cycles_ns(
                smu_config.completion_unit_cycles + smu_config.entry_update_cycles
            )
            + smu_config.doorbell_write_ns  # CQ doorbell
        )
        if not kernel.iter_free_queues():
            raise SmuError("HWDP kernel must provide a free-page queue")
        #: cid (PMSHR index) → in-flight context for completion routing.
        self._inflight_by_tag: Dict[int, Any] = {}
        #: Per-process outstanding-miss counts, for the munmap SMU barrier.
        self._outstanding_by_pid: Dict[int, int] = {}
        self._barrier_signal = Signal(sim, "smu-barrier")
        #: §V extensions (inactive unless configured).  The prefetch block
        #: is pluggable (``SmuConfig.prefetcher``); ``readahead`` keeps its
        #: historical name for the default sequential policy.
        self.readahead = create_prefetcher(
            smu_config.prefetcher, self, smu_config.readahead_degree
        )
        # -- statistics ---------------------------------------------------
        self.misses_handled = 0
        self.misses_failed = 0
        self.anon_zero_fills = 0
        self.io_timeouts = 0
        #: NVMe error completions observed by the completion unit (each
        #: retry that fails counts once).
        self.io_errors = 0
        #: Misses abandoned after the retry budget: the PMSHR entry is
        #: released unfilled and the OS fault handler takes over.
        self.io_error_failures = 0
        self.before_device_stat = StatAccumulator("smu-before-device")
        self.after_device_stat = StatAccumulator("smu-after-device")

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def _cycles_ns(self, cycles: float) -> float:
        return self.config.cpu.cycles_to_ns(cycles)

    # ------------------------------------------------------------------
    # the page-miss handler pipeline (called from the MMU walker)
    # ------------------------------------------------------------------
    def handle_miss(
        self, walk: WalkResult, decoded: Any, thread: Any
    ) -> Generator[Any, Any, Optional[int]]:
        """Handle one hardware page miss; returns the PFN or None on failure.

        Runs in the faulting thread's coroutine: every ``yield`` is a
        pipeline stall of that core, never kernel work.
        """
        sink = self.sim.trace
        if sink is None:
            pfn = yield from self._handle_miss(walk, decoded, thread, None)
            return pfn
        span = sink.begin_span(
            thread.name,
            obs.PATH_HWDP,
            smu=self.socket_id,
            pte_addr=f"{walk.pte_addr:#x}",
            lba=decoded.lba,
        )
        previous_span = thread.active_span
        thread.active_span = span
        try:
            pfn = yield from self._handle_miss(walk, decoded, thread, span)
        except BaseException as exc:
            sink.end_span(span, obs.FAILED, error=type(exc).__name__)
            raise
        finally:
            thread.active_span = previous_span
        if pfn is None:
            # Failed back to the MMU: the OS fault handler opens its own
            # hwdp-fallback span when the exception is taken.
            sink.end_span(span, obs.FAILED)
        else:
            sink.end_span(span, span.outcome or obs.COMPLETED, pfn=pfn)
        return pfn

    # repro: hot-path
    def _handle_miss(
        self, walk: WalkResult, decoded: Any, thread: Any, span: Any
    ) -> Generator[Any, Any, Optional[int]]:
        smu_config = self.config.smu
        counters = self.kernel.counters
        if decoded.socket_id != self.socket_id:
            raise SmuError(
                f"miss routed to SMU {self.socket_id} but PTE names socket "
                f"{decoded.socket_id}"
            )

        # Step 1-2: request registers + CAM lookup.
        if span is not None:
            segment_start = self.sim.now
        yield from thread.stall(self._request_cam_ns)
        if span is not None:
            span.event(segment_start, "request_cam_lookup", self.sim.now - segment_start)
        # One atomic probe-then-claim per attempt, all through a single
        # call site (see Pmshr.lookup_or_allocate).  The paper does not
        # spell out full-PMSHR behaviour; like an MSHR, the walk stalls
        # until an entry frees.
        while True:
            entry, created = self.pmshr.lookup_or_allocate(
                walk.pte_addr,
                walk.pmd_entry_addr,
                walk.pud_entry_addr,
                decoded.device_id,
                decoded.lba,
            )
            if entry is not None:
                break
            if span is not None:
                segment_start = self.sim.now
            yield from thread.mwait(self.pmshr.slot_freed)
            if span is not None:
                span.event(segment_start, "pmshr_full_wait", self.sim.now - segment_start)
        if not created:
            # Coalesced: the page-table walk goes pending until broadcast.
            if span is not None:
                span.outcome = obs.COALESCED
                segment_start = self.sim.now
            pfn = yield from thread.mwait(entry.completion)
            if span is not None:
                span.event(segment_start, "coalesced_wait", self.sim.now - segment_start)
            if pfn is not None:
                yield from thread.stall(self._notify_ns)
            return pfn

        if span is not None:
            span.event(self.sim.now, "pmshr_allocate")
        pid = thread.process.pid
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note(f"smu[{self.socket_id}].outstanding_by_pid", "write")
        self._outstanding_by_pid[pid] = self._outstanding_by_pid.get(pid, 0) + 1
        started = self.sim.now

        try:
            # Step 3: free-page fetch (per-core queue under the §V extension).
            free_queue = self.kernel.free_queue_for(thread.core.core_id)
            pop = free_queue.pop()
            if pop.empty:
                # Invalidate the entry and fail the miss back to the MMU;
                # the OS fault handler takes over and refills (§IV-D).
                self.misses_failed += 1
                counters.add("smu.queue_empty_failures")
                self.pmshr.release(entry, None)
                if span is not None:
                    span.attrs["reason"] = "queue_empty"
                return None
            if span is not None:
                segment_start = self.sim.now
            if not pop.from_prefetch:
                yield from thread.stall(smu_config.free_page_fetch_ns)
            if span is not None:
                span.event(segment_start, "free_page_fetch", self.sim.now - segment_start)

            # §V anonymous-page extension: the reserved LBA constant means
            # "first touch" — bypass I/O, hand back a zero-filled frame.
            if decoded.lba == ANON_FIRST_TOUCH_LBA:
                entry.pfn = pop.pfn
                self.before_device_stat.add(self.sim.now - started)
                if span is not None:
                    segment_start = self.sim.now
                yield from thread.stall(smu_config.anon_zero_fill_ns)
                if span is not None:
                    span.event(
                        segment_start, "anon_zero_fill", self.sim.now - segment_start
                    )
                after_start = self.sim.now
                yield from self._finish_update(thread, entry, pop.pfn)
                self.after_device_stat.add(self.sim.now - after_start)
                self.anon_zero_fills += 1
                self.misses_handled += 1
                counters.add("smu.anon_zero_fills")
                self.pmshr.release(entry, pop.pfn)
                return pop.pfn

            # Step 4-5: finalise the entry, build + submit the command.
            # A full SQ applies backpressure (wait for a slot) rather than
            # overflowing; an NVMe error completion is retried with linear
            # backoff up to the resilience budget, after which the miss is
            # failed back to the OS handler like a dry free-page queue.
            entry.pfn = pop.pfn
            resilience = self.config.resilience
            command = None
            for attempt in range(1 + resilience.smu_io_retries):
                if span is not None:
                    segment_start = self.sim.now
                yield from self.host.await_sq_slot(thread, decoded.device_id)
                yield from thread.stall(self.host.issue_latency_ns)
                if attempt == 0:
                    self.before_device_stat.add(self.sim.now - started)
                io_done = self._register_io(entry)
                self.host.issue_read(
                    decoded.device_id, decoded.lba, pop.pfn, entry.index, claimed=True
                )
                if span is not None:
                    span.event(segment_start, "sq_submit", self.sim.now - segment_start)
                if attempt == 0:
                    self.readahead.observe_demand_miss(
                        walk, decoded, thread.process.page_table, thread.core.core_id
                    )
                    # Step 6: device I/O, completion snooped by the host
                    # controller.  The prefetch buffer is eagerly re-warmed
                    # during the device time.
                    free_queue.prefetch_now()
                if span is not None:
                    segment_start = self.sim.now
                yield from self._wait_for_io(thread, io_done)
                if span is not None:
                    span.event(segment_start, "nvme_service", self.sim.now - segment_start)
                command = io_done.value
                if command is None or command.ok:
                    break
                self.io_errors += 1
                counters.add("smu.io_errors")
                if attempt < resilience.smu_io_retries:
                    counters.add("smu.io_retries")
                    if span is not None:
                        segment_start = self.sim.now
                    yield from thread.stall(
                        resilience.smu_retry_backoff_ns * (attempt + 1)
                    )
                    if span is not None:
                        span.event(
                            segment_start, "io_retry_backoff", self.sim.now - segment_start
                        )
            if command is not None and not command.ok:
                # Retry budget exhausted: return the frame, invalidate the
                # entry (waking coalesced walks with None), fail the miss.
                self.misses_failed += 1
                self.io_error_failures += 1
                counters.add("smu.io_error_failures")
                self.kernel.frame_pool.free(pop.pfn)
                self.pmshr.release(entry, None)
                if span is not None:
                    span.attrs["reason"] = "io_error"
                return None
            after_start = self.sim.now
            yield from self._finish_update(thread, entry, pop.pfn)
            self.after_device_stat.add(self.sim.now - after_start)
            self.misses_handled += 1
            self.pmshr.release(entry, pop.pfn)
            return pop.pfn
        finally:
            sanitizer = self.sim.sanitizer
            if sanitizer is not None:
                sanitizer.note(f"smu[{self.socket_id}].outstanding_by_pid", "write")
            remaining = self._outstanding_by_pid.get(pid, 0) - 1
            if remaining <= 0:
                self._outstanding_by_pid.pop(pid, None)
            else:
                self._outstanding_by_pid[pid] = remaining
            self._barrier_signal.fire()

    # ------------------------------------------------------------------
    def _finish_update(self, thread: Any, entry, pfn: int):
        """Steps 6-8 after the data is in memory: completion protocol,
        PTE/PMD/PUD write-back (LBA bit stays set for kpted), broadcast."""
        span = thread.active_span
        if span is not None:
            segment_start = self.sim.now
        yield from thread.stall(self._completion_update_ns)
        self.updater.apply(
            thread.process.page_table,
            entry.pte_addr,
            entry.pmd_entry_addr,
            entry.pud_entry_addr,
            pfn,
        )
        self.kernel.counters.add("install.hw_pending")
        if span is not None:
            span.event(segment_start, "completion_snoop", self.sim.now - segment_start)
            span.event(self.sim.now, "page_table_update")
            segment_start = self.sim.now
        yield from thread.stall(self._notify_ns)
        if span is not None:
            span.event(segment_start, "notify_broadcast", self.sim.now - segment_start)

    def _wait_for_io(self, thread: Any, io_done: Completion):
        """Wait for the device, optionally bounded by the §V I/O timeout.

        Without a timeout the pipeline stalls for the whole device time:
        the wait is ``thread.mwait`` itself, returned rather than wrapped.
        With one, a read outstanding past the deadline raises a timeout
        exception and the OS context-switches the thread out — trading the
        fault-path kernel cost for freed issue slots during very long I/O.
        """
        timeout_ns = self.config.smu.long_io_timeout_ns
        if timeout_ns is None:
            return thread.mwait(io_done)
        return self._wait_for_io_bounded(thread, io_done, timeout_ns)

    def _wait_for_io_bounded(self, thread: Any, io_done: Completion, timeout_ns: float):
        deadline = timer(self.sim, timeout_ns, "smu-io-timeout")
        index, _ = yield from thread.mwait(first_of(self.sim, io_done, deadline))
        if index == 0 or io_done.done:
            return
        # Timeout fired first: exception + switch out; the SMU still
        # completes the miss in hardware while the thread is parked.
        self.io_timeouts += 1
        self.kernel.counters.add("smu.io_timeouts")
        costs = self.kernel.config.osdp_costs
        yield from thread.kernel_phase(costs.exception_walk_ns, "timeout_exception")
        yield from thread.kernel_phase(costs.context_switch_out_ns, "timeout_switch_out")
        yield from thread.block(io_done)
        yield from thread.kernel_phase(costs.context_switch_in_ns, "timeout_switch_in")

    # ------------------------------------------------------------------
    # repro: hot-path
    def _register_io(self, entry) -> Completion:
        done = Completion(self.sim, self._io_names[entry.index])
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note(f"smu[{self.socket_id}].inflight_tags", "write")
        self._inflight_by_tag[entry.index] = done
        return done

    def _on_completion(self, command: NVMeCommand) -> None:
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note(f"smu[{self.socket_id}].inflight_tags", "write")
        done = self._inflight_by_tag.pop(command.cid, None)
        if done is None:
            raise SmuError(f"completion for unknown PMSHR tag {command.cid}")
        done.fire(command)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def outstanding_for(self, process: Any) -> int:
        return self._outstanding_by_pid.get(process.pid, 0)

    def barrier(self, process: Any) -> Generator[Any, Any, None]:
        """The munmap SMU barrier (§IV-C): wait out this process's misses."""
        while self.outstanding_for(process) > 0:
            yield self._barrier_signal

    @property
    def outstanding(self) -> int:
        return self.pmshr.outstanding


class SmuComplex:
    """All the SMUs of a multi-socket machine (3-bit SID → up to eight).

    The MMU holds one of these: each LBA-augmented PTE names its *home SMU*
    via the socket-ID field (§III-B), and the complex routes the miss there.
    Single-socket machines get a complex of one; the interface is the same.
    """

    def __init__(self, smus):
        if not smus:
            raise SmuError("an SMU complex needs at least one SMU")
        if len(smus) > 8:
            raise SmuError("the 3-bit socket ID supports at most 8 SMUs")
        self.smus = list(smus)
        for expected, smu in enumerate(self.smus):
            if smu.socket_id != expected:
                raise SmuError(
                    f"SMU at position {expected} carries socket ID {smu.socket_id}"
                )

    def __len__(self) -> int:
        return len(self.smus)

    def __getitem__(self, socket_id: int) -> Smu:
        return self.smus[socket_id]

    def smu_for(self, socket_id: int) -> Smu:
        if not 0 <= socket_id < len(self.smus):
            raise SmuError(f"no SMU for socket {socket_id}")
        return self.smus[socket_id]

    def handle_miss(
        self, walk: WalkResult, decoded: Any, thread: Any
    ) -> Generator[Any, Any, Optional[int]]:
        """Route the miss to the PTE's home SMU (the MMU's entry point).

        Returns that SMU's miss generator itself rather than wrapping it.
        """
        return self.smu_for(decoded.socket_id).handle_miss(walk, decoded, thread)

    def barrier(self, process: Any) -> Generator[Any, Any, None]:
        """munmap barrier across every socket's SMU."""
        for smu in self.smus:
            yield from smu.barrier(process)

    # -- aggregate statistics -------------------------------------------
    @property
    def misses_handled(self) -> int:
        return sum(smu.misses_handled for smu in self.smus)

    @property
    def misses_failed(self) -> int:
        return sum(smu.misses_failed for smu in self.smus)
