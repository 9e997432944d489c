"""Background kernel threads: kpted and kpoold (paper §IV-C, §IV-D).

**kpted** periodically scans the page tables of processes with fast-mmap
areas, pruned by the LBA bits in PUD/PMD entries, and batch-updates the OS
metadata (LRU insertion, rmap, page-cache insertion) of hardware-handled
pages, finally clearing each PTE's LBA bit.  Batching makes the per-page
update cheaper than the inline OSDP update (``kpted_batch_factor``).

**kpoold** periodically tops up the SMU's free-page queue so the
synchronous-refill fallback (an OS-handled fault) stays rare — the paper
reports kpoold cuts those faults by 44.3–78.4 %.

Both run as kernel-context threads on their own logical cores, so their
instructions and cycles are attributable (Figure 15 reports them
separately).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.cpu.thread import ThreadContext

#: Charge kernel time in slices of this many pages to bound event counts.
_CHARGE_BATCH = 64


class Kpted:
    """The OS-metadata synchronisation daemon."""

    def __init__(self, kernel: Any, thread: ThreadContext):
        self.kernel = kernel
        self.thread = thread
        self.config = kernel.config.control_plane
        self.passes = 0
        self.pages_synced = 0

    def run(self) -> Generator[Any, Any, None]:
        """Main loop: sleep one period, then scan-and-sync."""
        while not self.kernel.shutdown:
            yield self.config.kpted_period_ns
            if self.kernel.shutdown:
                return
            yield from self.sync_pass()

    def sync_pass(self) -> Generator[Any, Any, int]:
        """One full scan over every process with fast-mmap areas."""
        self.passes += 1
        synced = 0
        for process in list(self.kernel.processes):
            if process.terminated or not process.layout.fastmap_vmas():
                continue
            report = process.page_table.collect_pending_sync()
            scan_ns = self.config.kpted_scan_entry_ns * (
                report.upper_visited + report.ptes_visited / 8.0
            )
            yield from self.thread.kernel_phase(scan_ns, "kpted_scan")
            update_ns = (
                self.kernel.config.osdp_costs.metadata_update_ns
                * self.config.kpted_batch_factor
            )
            for start in range(0, len(report.pending), _CHARGE_BATCH):
                batch = report.pending[start : start + _CHARGE_BATCH]
                for vpn, pte_addr in batch:
                    if self.kernel.sync_hw_page(process, vpn << 12, pte_addr):
                        synced += 1
                yield from self.thread.kernel_phase(
                    update_ns * len(batch), "kpted_update"
                )
        self.pages_synced += synced
        self.kernel.counters.add("kpted.pages_synced", synced)
        return synced


class Kswapd:
    """Background page reclaim (vanilla-Linux behaviour, every mode).

    Wakes when an allocation path signals memory pressure (free frames
    below the low watermark) — or on a fallback poll — and reclaims LRU
    victims until the high watermark is restored, keeping direct reclaim
    off the fault paths' critical path.
    """

    #: Victims evicted per cost-charging slice.
    BATCH = 32

    def __init__(self, kernel: Any, thread: ThreadContext):
        self.kernel = kernel
        self.thread = thread
        self.config = kernel.config.control_plane
        self.wakeups = 0
        self.pages_reclaimed = 0

    def run(self) -> Generator[Any, Any, None]:
        kernel = self.kernel
        while not kernel.shutdown:
            # Purely pressure-driven: every allocation below the low
            # watermark fires the signal, so there is no missed-wake
            # window that a fallback timer would need to cover (and no
            # perpetual timer to keep an idle simulation alive).
            yield kernel.memory_pressure
            if kernel.shutdown:
                return
            if not kernel.frame_pool.below_low_watermark:
                continue
            self.wakeups += 1
            yield from self._reclaim_to_high_watermark()

    def _reclaim_to_high_watermark(self) -> Generator[Any, Any, None]:
        kernel = self.kernel
        while kernel.frame_pool.below_high_watermark and not kernel.shutdown:
            target = (
                kernel.config.memory.high_watermark - kernel.frame_pool.free_frames
            )
            victims = kernel.reclaim.select_victims(min(self.BATCH, target))
            if not victims:
                return  # nothing reclaimable; direct reclaim/OOM will decide
            for page in victims:
                kernel.evict_page(page)
            self.pages_reclaimed += len(victims)
            kernel.counters.add("reclaim.kswapd_pages", len(victims))
            yield from self.thread.kernel_phase(
                self.config.kswapd_page_reclaim_ns * len(victims), "kswapd"
            )


class Kpoold:
    """The free-page-queue refill daemon."""

    def __init__(self, kernel: Any, thread: ThreadContext):
        self.kernel = kernel
        self.thread = thread
        self.config = kernel.config.control_plane
        self.refill_passes = 0

    def run(self) -> Generator[Any, Any, None]:
        while not self.kernel.shutdown:
            yield self.config.kpoold_period_ns
            if self.kernel.shutdown:
                return
            queues = self.kernel.iter_free_queues()
            if not queues or all(queue.space == 0 for queue in queues):
                continue
            self.refill_passes += 1
            yield from self.kernel.refill_free_page_queue(self.thread, reason="kpoold")
