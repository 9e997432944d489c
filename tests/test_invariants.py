"""System-wide invariants under randomized operation sequences.

The strongest correctness property the model has: physical frames are
conserved.  At any quiescent point (no in-flight misses or I/O), every
allocated frame is accounted for by exactly one owner:

* a resident page the OS tracks (LRU/page-info),
* a hardware-installed page awaiting kpted sync (present PTE with the LBA
  bit set),
* or a free-page queue slot (memory ring or SRAM prefetch buffer).

A leak (eviction forgetting to free, double-installed frames, queue drops)
breaks the equality immediately.
"""

import numpy as np
import pytest

from repro.config import PagingMode
from repro.mem.address import PAGE_SHIFT
from repro.vm import PteStatus, decode_pte, pte_status

from tests.helpers import build_mapped_system, touch_pages


def accounted_frames(system):
    """Count every frame with a known owner at quiescence."""
    kernel = system.kernel
    tracked = set(kernel._page_info.keys())
    pending = set()
    for process in kernel.processes:
        for vpn, value in process.page_table.iter_populated():
            decoded = decode_pte(value)
            if decoded.present and decoded.lba_bit and decoded.pfn not in tracked:
                pending.add(decoded.pfn)
    queued = sum(queue.occupancy for queue in kernel.iter_free_queues())
    return len(tracked) + len(pending) + queued


def assert_conservation(system):
    used = system.kernel.frame_pool.used_frames
    assert used == accounted_frames(system), (
        f"frame leak: pool says {used} in use, "
        f"owners account for {accounted_frames(system)}"
    )


def quiesce(system, extra_ns=2_000_000.0):
    system.sim.run(until=system.sim.now + extra_ns)


@pytest.mark.parametrize("mode", [PagingMode.OSDP, PagingMode.SWDP, PagingMode.HWDP])
class TestFrameConservation:
    def test_after_simple_touches(self, mode):
        system, thread, vma = build_mapped_system(mode, file_pages=64)
        touch_pages(system, thread, vma, list(range(32)))
        quiesce(system)
        assert_conservation(system)

    def test_under_memory_pressure(self, mode):
        system, thread, vma = build_mapped_system(
            mode,
            total_frames=128,
            file_pages=512,
            free_queue_depth=16,
            kpted_period_ns=30_000.0,
            kpoold_period_ns=10_000.0,
        )
        touch_pages(system, thread, vma, list(range(300)))
        quiesce(system)
        assert_conservation(system)

    def test_after_munmap(self, mode):
        system, thread, vma = build_mapped_system(mode, file_pages=32)
        touch_pages(system, thread, vma, list(range(32)))

        def unmap():
            yield from system.kernel.sys_munmap(thread, vma)

        proc = system.spawn(unmap(), "unmap")
        while not proc.finished:
            system.sim.step()
        quiesce(system)
        assert_conservation(system)

    def test_randomized_mixed_operations(self, mode):
        """A seeded storm of touches, writes, msyncs, and re-touches."""
        system, thread, vma = build_mapped_system(
            mode,
            total_frames=256,
            file_pages=512,
            free_queue_depth=32,
            kpted_period_ns=40_000.0,
            kpoold_period_ns=15_000.0,
        )
        rng = np.random.default_rng(1234)

        def storm():
            for _ in range(300):
                action = rng.random()
                page = int(rng.integers(0, 512))
                vaddr = vma.start + (page << PAGE_SHIFT)
                if action < 0.7:
                    yield from thread.mem_access(vaddr)
                elif action < 0.85:
                    yield from thread.mem_access(vaddr, is_write=True)
                elif action < 0.95:
                    yield from system.kernel.file_write(thread, vma.file, page)
                else:
                    yield from system.kernel.sys_msync(thread, vma)

        proc = system.spawn(storm(), "storm")
        while not proc.finished:
            if not system.sim.step():
                raise RuntimeError("storm stalled")
        quiesce(system)
        assert_conservation(system)
        # The machine is still healthy: another touch works.
        results = touch_pages(system, thread, vma, [0])
        assert results[0].pfn is not None


class TestMetadataConsistency:
    def test_every_lru_page_matches_its_pte(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            total_frames=128,
            file_pages=256,
            kpted_period_ns=20_000.0,
        )
        touch_pages(system, thread, vma, list(range(200)))
        quiesce(system)
        kernel = system.kernel
        for pfn, page in kernel._page_info.items():
            pte = decode_pte(page.process.page_table.get_pte(page.vaddr))
            assert pte.present, f"LRU-tracked PFN {pfn} has non-present PTE"
            assert pte.pfn == pfn

    def test_page_cache_entries_are_resident(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=32)
        touch_pages(system, thread, vma, list(range(16)))
        quiesce(system)
        kernel = system.kernel
        for index in range(16):
            pfn = kernel.page_cache.lookup(vma.file, index)
            if pfn is not None:
                assert kernel.reclaim.contains(pfn)

    def test_no_pte_points_at_free_frame(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, total_frames=128, file_pages=256,
            kpted_period_ns=20_000.0, kpoold_period_ns=8_000.0,
        )
        touch_pages(system, thread, vma, list(range(200)))
        quiesce(system)
        free = set(system.kernel.frame_pool._free)
        for vpn, value in thread.process.page_table.iter_populated():
            decoded = decode_pte(value)
            if decoded.present:
                assert decoded.pfn not in free, (
                    f"PTE for vpn {vpn:#x} maps freed frame {decoded.pfn}"
                )


# ----------------------------------------------------------------------
# the checker's raw-bit page-table pass against a decode_pte reference
# ----------------------------------------------------------------------
def _reference_page_table_check(system):
    """Invariant 4 written over ``decode_pte``: its violations and counts."""
    kernel = system.kernel
    notes = []
    tracked = set(kernel._page_info)
    pending = set()
    free = set(kernel.frame_pool._free)
    for process in kernel.processes:
        for vpn, value in process.page_table.iter_populated():
            decoded = decode_pte(value)
            if not decoded.present:
                continue
            if decoded.pfn in free:
                notes.append(f"{process.name}: PTE for vpn {vpn:#x} maps freed frame "
                             f"{decoded.pfn}")
            if decoded.lba_bit and decoded.pfn not in tracked:
                pending.add(decoded.pfn)
    for pfn in sorted(kernel._page_info):
        page = kernel._page_info[pfn]
        pte = decode_pte(page.process.page_table.get_pte(page.vaddr))
        if not pte.present or pte.pfn != pfn:
            notes.append(f"OS tracks PFN {pfn} at {page.vaddr:#x} but the PTE does not "
                         f"map it (present={pte.present} pfn={pte.pfn})")
    queued = sum(queue.occupancy for queue in kernel.iter_free_queues())
    used = kernel.frame_pool.used_frames
    accounted = len(tracked) + len(pending) + queued
    if used != accounted:
        notes.append(
            f"frame leak: pool says {used} frames in use, owners account for "
            f"{accounted} (resident={len(tracked)} pending-sync={len(pending)} "
            f"queued={queued}; resident sample {sorted(tracked)[:8]} "
            f"pending sample {sorted(pending)[:8]})"
        )
    return notes, sorted(pending)


@pytest.mark.parametrize("seed", [3, 11])
def test_checker_report_matches_decode_reference_on_corrupt_state(seed):
    """Seeded corruption (a freed mapped frame, a cleared PTE, a PTE moved
    to another frame, a pending-sync PTE turned conventional, a leaked
    frame) gives the report the decode-based reference gives, line for
    line."""
    from repro.faults.invariants import check_invariants

    system, thread, vma = build_mapped_system(
        PagingMode.HWDP, total_frames=128, file_pages=256, kpted_period_ns=10**9
    )
    touch_pages(system, thread, vma, list(range(80)))
    sync = system.spawn(system.kpted.sync_pass(), "sync")
    while not sync.finished:
        system.sim.step()
    touch_pages(system, thread, vma, list(range(80, 120)))  # left pending
    quiesce(system)
    kernel = system.kernel
    table = thread.process.page_table
    rng = np.random.default_rng(seed)
    tracked = sorted(kernel._page_info)
    freed, cleared, moved = (int(p) for p in rng.choice(tracked, 3, replace=False))
    kernel.frame_pool.free(freed)
    table.set_pte(kernel._page_info[cleared].vaddr, 0)
    moved_vaddr = kernel._page_info[moved].vaddr
    table.set_pte(moved_vaddr, table.get_pte(moved_vaddr) ^ (1 << 12))
    pending = [
        vpn for vpn, value in table.iter_populated()
        if pte_status(value) is PteStatus.RESIDENT_PENDING_SYNC
    ]
    assert pending, "the scenario needs hardware installs kpted has not synced"
    vaddr = int(rng.choice(pending)) << PAGE_SHIFT
    table.set_pte(vaddr, table.get_pte(vaddr) & ~(1 << 10))
    kernel.frame_pool.alloc()  # owned by nobody

    report = check_invariants(system)
    notes, pending_pfns = _reference_page_table_check(system)
    assert len(notes) == 4 and notes[-1].startswith("frame leak: ")
    assert report.violations == notes
    assert report.observed["pending_sync"] == len(pending_pfns)
    assert report.observed["pending_pfns"] == pending_pfns
