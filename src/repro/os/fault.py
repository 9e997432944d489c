"""The page-fault handler: OSDP, SWDP-emulation, and HWDP-fallback paths.

This module is the *data plane of the baseline* and the heart of the
latency comparison:

**OSDP major fault** (Figures 3/10/11a) — exception → handler entry → frame
allocation → I/O-stack submission → context switch out (overlapped with the
device) → blocked → interrupt delivery → I/O-stack completion → context
switch in → OS metadata update → PTE update and return.  Every phase
charges kernel time to the faulting thread per :class:`repro.config.OsdpCosts`.

**SWDP fault** (§VI-A) — the exception is taken, an early LBA-bit check
jumps to the software SMU emulation: PMSHR-in-memory ops and direct NVMe
command construction on an isolated queue, then an mwait-style stall until
the CQ write, then PTE installation *without* inline metadata updates
(kpted synchronises later).  No block layer, no context switch.

**HWDP fallback** — when the SMU finds the free-page queue empty it raises
a normal exception; the OS handles the fault conventionally *and* refills
the queue, overlapping the refill with the device time as in AIOS (§IV-D).

Concurrent faults coalesce: the OS paths on an in-flight table (Linux
serialises on the page lock), the SWDP path in its emulated PMSHR exactly
like the hardware does.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.config import PagingMode
from repro.errors import IoError, SegmentationFault
from repro.mem.address import PAGE_SHIFT
from repro.obs import trace as obs
from repro.sim import Completion
from repro.vm.page_table import WalkResult
from repro.vm.pte import (
    ANON_FIRST_TOUCH_LBA,
    LBA_BIT,
    PFN_MASK,
    PFN_SHIFT,
    PRESENT_BIT,
    STATE_MASK,
    PteStatus,
    decode_pte,
)


class PageFaultHandler:
    """All exception-entered fault handling for one kernel."""

    def __init__(self, kernel: Any):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.config.osdp_costs
        self.sw_costs = kernel.config.swdp_costs
        #: (pid, vpn) → Completion firing with the installed PFN.
        self._inflight: Dict[Tuple[int, int], Completion] = {}
        #: Emulated PMSHR (SWDP mode only; lives in kernel memory).
        #: Imported lazily: repro.core's package init reaches back into
        #: repro.os, so a module-level import would be circular.
        self.sw_pmshr = None
        if kernel.config.mode is PagingMode.SWDP:
            from repro.core.pmshr import Pmshr

            self.sw_pmshr = Pmshr(self.sim, kernel.config.smu.pmshr_entries)

    # ------------------------------------------------------------------
    # entry point (installed as every MMU's fault handler)
    # ------------------------------------------------------------------
    def handle(
        self, thread: Any, vaddr: int, walk: WalkResult, is_write: bool
    ) -> Generator[Any, Any, int]:
        sink = self.sim.trace
        if sink is None:
            pfn = yield from self._dispatch(thread, vaddr, walk, is_write)
            return pfn
        # Open the miss span at fault entry; inner paths retag the path
        # (swdp / hwdp-fallback) and pre-set non-default outcomes, and every
        # kernel phase charged below lands in the span via active_span.
        span = sink.begin_span(
            thread.name,
            obs.PATH_OSDP,
            vaddr=f"{vaddr:#x}",
            pid=thread.process.pid,
            write=is_write,
        )
        previous_span = thread.active_span
        thread.active_span = span
        try:
            pfn = yield from self._dispatch(thread, vaddr, walk, is_write)
        except BaseException as exc:
            sink.end_span(span, obs.FAILED, error=type(exc).__name__)
            raise
        finally:
            thread.active_span = previous_span
        sink.end_span(span, span.outcome or obs.COMPLETED, pfn=pfn)
        return pfn

    # repro: hot-path
    def _dispatch(
        self, thread: Any, vaddr: int, walk: WalkResult, is_write: bool
    ) -> Generator[Any, Any, int]:
        kernel = self.kernel
        kernel.counters.add("fault.exceptions")
        yield from thread.kernel_phase(self.costs.exception_walk_ns, "exception_walk")

        process = thread.process
        vma = process.find_vma(vaddr)
        if vma is None:
            raise SegmentationFault(
                f"{process.name}/{thread.name}: no VMA maps {vaddr:#x}"
            )

        # Re-read the PTE: the page may have been installed while the
        # exception was delivered (e.g. the SMU completing a racing miss).
        current = process.page_table.get_pte(vaddr)
        if current & PRESENT_BIT:
            kernel.counters.add("fault.spurious")
            span = thread.active_span
            if span is not None:
                span.outcome = obs.SPURIOUS
            yield from thread.kernel_phase(self.costs.pte_update_return_ns, "return")
            return (current & PFN_MASK) >> PFN_SHIFT

        # PRESENT clear and LBA set: NON_RESIDENT_HW.
        refill = current & STATE_MASK == LBA_BIT
        if refill and self.sw_pmshr is not None and vma.is_fastmap:
            # Early LBA-bit check (§VI-A): jump to the SMU emulation, which
            # coalesces in the emulated PMSHR rather than the in-flight map.
            pfn = yield from self._swdp_fault(thread, vaddr, vma, decode_pte(current))
            return pfn

        if refill:
            span = thread.active_span
            if span is not None:
                # The SMU bounced this miss to the OS (free queue empty).
                span.path = obs.PATH_HWDP_FALLBACK
        pfn = yield from self._coalesced_os_fault(thread, vaddr, vma, refill)
        return pfn

    # ------------------------------------------------------------------
    # page-lock style coalescing wrapper for the OS-handled paths
    # ------------------------------------------------------------------
    # repro: hot-path
    def _coalesced_os_fault(
        self, thread: Any, vaddr: int, vma: Any, refill_queue: bool
    ) -> Generator[Any, Any, int]:
        kernel = self.kernel
        key = (thread.process.pid, vaddr >> PAGE_SHIFT)
        pending = self._inflight.get(key)
        if pending is not None:
            # Another thread is already faulting this page in: sleep on the
            # page lock and return its frame.
            kernel.counters.add("fault.coalesced")
            span = thread.active_span
            if span is not None:
                span.outcome = obs.COALESCED
                waited_from = self.sim.now
            pfn = yield from thread.block(pending)
            if span is not None:
                span.event(waited_from, "page_lock_wait", self.sim.now - waited_from)
            if pfn is None:
                # The leader's I/O failed terminally; every sleeper on the
                # page lock gets the same SIGBUS.
                kernel.counters.add("fault.coalesced_io_errors")
                raise IoError(
                    f"{thread.name}: coalesced fault at {vaddr:#x} failed "
                    "with the leader's I/O error"
                )
            yield from thread.kernel_phase(self.costs.pte_update_return_ns, "return")
            return pfn

        # A constant label: the (pid, vpn) identity lives in the
        # ``_inflight`` key, and formatting it per fault would put a
        # string build on every uncontended page-lock acquisition.
        completion = Completion(self.sim, "fault-page-lock")
        self._inflight[key] = completion
        pfn = None
        try:
            swap_lba = None
            if vma.file is None:
                swap_lba = self._anon_swap_lba(
                    decode_pte(thread.process.page_table.get_pte(vaddr))
                )
            if vma.file is not None or swap_lba is not None:
                pfn = yield from self._major_fault(
                    thread, vaddr, vma, refill_queue, swap_lba=swap_lba
                )
            else:
                pfn = yield from self._minor_fault(thread, vaddr, vma)
        finally:
            # Fire inside the finally so sleepers are woken (with None)
            # even when the fault path raises — a hung page lock would
            # deadlock every coalesced walker.
            del self._inflight[key]
            completion.fire(pfn)
        return pfn

    def _anon_swap_lba(self, decoded: Any):
        """LBA backing a swapped-out anonymous page, or None.

        Two encodings exist: LBA-augmented PTEs (the §V hardware extension)
        and conventional swap PTEs (the OSDP path, swap offset biased by
        one in the PFN field).
        """
        if (
            decoded.status is PteStatus.NON_RESIDENT_HW
            and decoded.lba != ANON_FIRST_TOUCH_LBA
        ):
            return decoded.lba
        if decoded.status is PteStatus.NON_RESIDENT_OS and decoded.pfn > 0:
            return self.kernel.swap_file.lba_of_page(decoded.pfn - 1)
        return None

    # ------------------------------------------------------------------
    # conventional OS-handled major fault (OSDP; also the HWDP fallback)
    # ------------------------------------------------------------------
    # repro: hot-path
    def _major_fault(
        self,
        thread: Any,
        vaddr: int,
        vma: Any,
        refill_queue: bool = False,
        swap_lba: Optional[int] = None,
    ) -> Generator[Any, Any, int]:
        kernel = self.kernel
        costs = self.costs
        counters = kernel.counters
        counters.add("fault.major")
        yield from thread.kernel_phase(costs.handler_entry_ns, "handler_entry")

        file = vma.file
        if file is not None:
            file_page = vma.file_page_of(vaddr)
            cached = kernel.page_cache.lookup(file, file_page)
            if cached is not None:
                # Minor fault on a cached file page: map it, no device I/O.
                counters.add("fault.minor_cached")
                yield from thread.kernel_phase(costs.pte_update_return_ns, "return")
                kernel.map_cached_page(thread.process, vma, vaddr, cached)
                return cached
            nsid = file.nsid
            lba = file.lba_of_page(file_page)
        else:
            # Swapped-out anonymous page: read it back from swap space;
            # no page cache is involved.
            if swap_lba is None:
                raise SegmentationFault(
                    f"anonymous major fault at {vaddr:#x} without a swap LBA"
                )
            nsid = kernel.swap_file.nsid
            lba = swap_lba
            counters.add("fault.anon_swapin")

        pfn = yield from kernel.alloc_frame(thread)
        resilience = kernel.config.resilience
        command = None
        for attempt in range(1 + resilience.os_io_retries):
            yield from thread.kernel_phase(costs.io_submit_ns, "io_submit")
            io_done = kernel.blockio.submit_read(nsid, lba, pfn)

            # The switch-out overlaps the device I/O (it happens after the
            # doorbell), as does the fallback path's queue refill (§IV-D).
            yield from thread.kernel_phase(
                costs.context_switch_out_ns, "context_switch_out"
            )
            if refill_queue and attempt == 0:
                counters.add("fault.sync_refill")
                yield from kernel.refill_free_page_queue(
                    thread, reason="sync", core_id=thread.core.core_id
                )
            span = thread.active_span
            if span is not None:
                waited_from = self.sim.now
            command = yield from thread.block(io_done)
            if span is not None:
                span.event(waited_from, "device_service", self.sim.now - waited_from)

            yield from thread.kernel_phase(
                costs.interrupt_delivery_ns, "interrupt_delivery"
            )
            yield from thread.kernel_phase(costs.io_completion_ns, "io_completion")
            if command is None or command.ok:
                break
            counters.add("fault.io_errors")
            if attempt < resilience.os_io_retries:
                counters.add("fault.io_retries")
                yield from thread.kernel_phase(
                    resilience.os_retry_backoff_ns * (attempt + 1), "io_retry_backoff"
                )
        if command is not None and not command.ok:
            # Retry budget exhausted: free the frame and deliver the error
            # to the faulting thread (SIGBUS / -EIO).
            counters.add("fault.io_errors_delivered")
            kernel.frame_pool.free(pfn)
            raise IoError(
                f"{thread.name}: read of LBA {lba} on nsid {nsid} failed after "
                f"{1 + resilience.os_io_retries} attempts ({command.status.value})"
            )
        yield from thread.kernel_phase(costs.context_switch_in_ns, "context_switch_in")
        yield from thread.kernel_phase(costs.metadata_update_ns, "metadata_update")
        kernel.install_resident_page(thread.process, vma, vaddr, pfn)
        yield from thread.kernel_phase(costs.pte_update_return_ns, "return")
        return pfn

    # ------------------------------------------------------------------
    # anonymous minor fault
    # ------------------------------------------------------------------
    # repro: hot-path
    def _minor_fault(self, thread: Any, vaddr: int, vma: Any) -> Generator[Any, Any, int]:
        kernel = self.kernel
        kernel.counters.add("fault.minor_anon")
        yield from thread.kernel_phase(self.costs.handler_entry_ns, "handler_entry")
        pfn = yield from kernel.alloc_frame(thread)
        yield from thread.kernel_phase(self.costs.metadata_update_ns, "metadata_update")
        kernel.install_resident_page(thread.process, vma, vaddr, pfn)
        yield from thread.kernel_phase(self.costs.pte_update_return_ns, "return")
        return pfn

    # ------------------------------------------------------------------
    # software-emulated SMU (SWDP, §VI-A)
    # ------------------------------------------------------------------
    # repro: hot-path
    def _swdp_fault(
        self, thread: Any, vaddr: int, vma: Any, decoded: Any
    ) -> Generator[Any, Any, int]:
        kernel = self.kernel
        pmshr = self.sw_pmshr
        kernel.counters.add("fault.swdp")
        span = thread.active_span
        if span is not None:
            span.path = obs.PATH_SWDP
        walk = thread.process.page_table.walk(vaddr)

        # Atomic probe-then-claim through one call site (the emulated PMSHR
        # is the same structure the hardware fuses into one CAM cycle).
        while True:
            entry, created = pmshr.lookup_or_allocate(
                walk.pte_addr,
                walk.pmd_entry_addr,
                walk.pud_entry_addr,
                decoded.device_id,
                decoded.lba,
            )
            if entry is not None:
                break
            kernel.counters.add("fault.swdp_pmshr_full")
            if span is not None:
                waited_from = self.sim.now
            yield from thread.mwait(pmshr.slot_freed)
            if span is not None:
                span.event(waited_from, "pmshr_full_wait", self.sim.now - waited_from)

        if not created:
            kernel.counters.add("fault.swdp_coalesced")
            if span is not None:
                span.outcome = obs.COALESCED
                waited_from = self.sim.now
            pfn = yield from thread.mwait(entry.completion)
            if span is not None:
                span.event(waited_from, "coalesced_wait", self.sim.now - waited_from)
            if pfn is None:  # leader failed over to the OS path
                pfn = yield from self._coalesced_os_fault(
                    thread, vaddr, vma, refill_queue=True
                )
                return pfn
            yield from thread.kernel_phase(self.sw_costs.emu_complete_ns / 2, "emu_tail")
            return pfn
        pop = kernel.free_queue_for(thread.core.core_id).pop()
        if pop.empty:
            # Paper §IV-D: fail to the OS handler, which also refills.
            kernel.counters.add("fault.swdp_queue_empty")
            pmshr.release(entry, None)
            pfn = yield from self._coalesced_os_fault(
                thread, vaddr, vma, refill_queue=True
            )
            return pfn
        entry.pfn = pop.pfn

        # The memory-table PMSHR suffers cache-line contention with many
        # outstanding faults — the paper's own SW-model limitation (§VI-C).
        contention = self.sw_costs.contention_ns_per_outstanding * max(
            0, pmshr.outstanding - 1
        )
        yield from thread.kernel_phase(
            self.sw_costs.emu_submit_ns + contention, "emu_submit"
        )
        if decoded.lba == ANON_FIRST_TOUCH_LBA and not vma.is_file_backed:
            # §V anonymous extension, emulated: zero-fill, no I/O.
            kernel.counters.add("fault.swdp_anon_zero_fill")
            yield from thread.kernel_phase(
                kernel.config.smu.anon_zero_fill_ns, "emu_zero_fill"
            )
        else:
            resilience = kernel.config.resilience
            command = None
            for attempt in range(1 + resilience.smu_io_retries):
                io_done = kernel.smu_blockio.submit_read(
                    kernel.nsid_for_vma(vma), decoded.lba, dma_addr=pop.pfn
                )
                if span is not None:
                    waited_from = self.sim.now
                command = yield from thread.mwait(io_done)
                if span is not None:
                    span.event(waited_from, "device_service", self.sim.now - waited_from)
                if command is None or command.ok:
                    break
                kernel.counters.add("fault.swdp_io_errors")
                if attempt < resilience.smu_io_retries:
                    # Re-driving the emulated submission costs another
                    # software submit pass.
                    yield from thread.kernel_phase(
                        self.sw_costs.emu_submit_ns, "emu_retry"
                    )
            if command is not None and not command.ok:
                # Same degradation as the hardware SMU: give the frame
                # back, wake coalesced walks with None, fail over to the
                # conventional OS path (which does its own retries and
                # ultimately delivers IoError).
                kernel.counters.add("fault.swdp_io_error_failures")
                kernel.frame_pool.free(pop.pfn)
                pmshr.release(entry, None)
                pfn = yield from self._coalesced_os_fault(
                    thread, vaddr, vma, refill_queue=False
                )
                return pfn
        yield from thread.kernel_phase(self.sw_costs.emu_complete_ns, "emu_complete")
        kernel.hw_install_page(thread.process, vma, vaddr, walk, pop.pfn)
        pmshr.release(entry, pop.pfn)
        return pop.pfn

    # ------------------------------------------------------------------
    @property
    def inflight_faults(self) -> int:
        return len(self._inflight)
