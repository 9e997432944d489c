"""Tests for kernel internals: reclaim, refill, writes, remaps, swap."""

import pytest

from repro.config import PagingMode
from repro.errors import KernelError, OutOfMemoryError, SegmentationFault
from repro.mem.address import PAGE_SHIFT
from repro.os.vma import MmapFlags
from repro.vm import PteStatus, pte_status

from tests.helpers import build_mapped_system, tiny_config, touch_pages
from repro.core.system import build_system


def run_coroutine(system, body):
    holder = {}

    def wrapper():
        holder["result"] = yield from body

    proc = system.spawn(wrapper(), "aux")
    while not proc.finished:
        if not system.sim.step():
            raise RuntimeError("coroutine stalled")
    return holder["result"]


class TestFrameAllocation:
    def test_alloc_frame_charges_page_alloc_phase(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP)
        before = thread.perf.kernel_instructions
        run_coroutine(system, system.kernel.alloc_frame(thread))
        expected = system.config.cpu.kernel_ns_to_instructions(
            system.config.osdp_costs.page_alloc_ns
        )
        assert thread.perf.kernel_instructions - before >= expected * 0.99

    def test_direct_reclaim_noop_above_watermark(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP)
        reclaimed = run_coroutine(system, system.kernel.direct_reclaim(thread))
        assert reclaimed == 0

    def test_oom_when_nothing_reclaimable(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP, total_frames=64)
        # Exhaust the pool without registering anything on the LRU.
        while system.kernel.frame_pool.try_alloc() >= 0:
            pass
        with pytest.raises(OutOfMemoryError):
            run_coroutine(system, system.kernel.alloc_frame(thread))

    def test_evict_requires_consistent_pte(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, [0])
        page = next(iter(system.kernel.reclaim.select_victims(1)))
        thread.process.page_table.set_pte(page.vaddr, 0)  # corrupt
        with pytest.raises(KernelError):
            system.kernel.evict_page(page)


class TestRefill:
    def test_refill_bounded_by_queue_space(self):
        system, thread, _ = build_mapped_system(PagingMode.HWDP, free_queue_depth=16)
        # At boot the memory ring was filled and the prefetch buffer drained
        # it into SRAM, so the ring has exactly that much space again.
        queue = system.kernel.free_page_queue
        assert queue.space == queue.prefetch_entries
        added = run_coroutine(
            system, system.kernel.refill_free_page_queue(thread)
        )
        assert added == queue.prefetch_entries
        assert queue.space == 0

    def test_refill_after_consumption(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, free_queue_depth=16, kpoold_enabled=False
        )
        touch_pages(system, thread, vma, list(range(8)))
        queue = system.kernel.free_page_queue
        space_before = queue.space
        assert space_before > 0
        added = run_coroutine(
            system, system.kernel.refill_free_page_queue(thread)
        )
        assert added == min(space_before, 512)

    def test_refill_respects_low_watermark(self):
        system, thread, _ = build_mapped_system(
            PagingMode.HWDP, total_frames=128, free_queue_depth=64,
            kpoold_enabled=False,
        )
        queue = system.kernel.free_page_queue
        queue.drain()  # empty it; frames intentionally leaked for this test
        added = run_coroutine(
            system, system.kernel.refill_free_page_queue(thread)
        )
        pool = system.kernel.frame_pool
        assert pool.free_frames >= system.config.memory.low_watermark

    def test_refill_noop_in_osdp(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP)
        assert run_coroutine(
            system, system.kernel.refill_free_page_queue(thread)
        ) == 0


class TestMmapVariants:
    def test_mmap_beyond_eof_rejected(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP)
        file = system.kernel.fs.create_file("small", 4)
        with pytest.raises(KernelError):
            run_coroutine(
                system, system.kernel.sys_mmap(thread, file, 8, MmapFlags.NONE)
            )

    def test_mmap_offset_window(self):
        system, thread, _ = build_mapped_system(PagingMode.HWDP)
        file = system.kernel.fs.create_file("windowed", 16)
        vma = run_coroutine(
            system,
            system.kernel.sys_mmap(
                thread, file, 4, MmapFlags.FASTMAP, file_page_offset=8
            ),
        )
        from repro.vm import decode_pte

        pte = thread.process.page_table.get_pte(vma.start)
        assert decode_pte(pte).lba == file.lba_of_page(8)

    def test_mmap_readonly_protection(self):
        from repro.errors import ProtectionFault

        system, thread, _ = build_mapped_system(PagingMode.HWDP)
        file = system.kernel.fs.create_file("ro", 4)
        vma = run_coroutine(
            system,
            system.kernel.sys_mmap(thread, file, 4, MmapFlags.FASTMAP, writable=False),
        )

        def write_body():
            yield from thread.mem_access(vma.start, is_write=True)

        system.spawn(write_body(), "writer")
        with pytest.raises(ProtectionFault):
            system.sim.run()

    def test_mmap_cached_page_links_immediately(self):
        """§IV-B: mmap checks the page cache and maps cached pages."""
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        touch_pages(system, thread, vma, [2])
        # Sync metadata so the page is in the page cache.
        run_coroutine(system, system.kernel.sys_msync(thread, vma))
        second = run_coroutine(
            system, system.kernel.sys_mmap(thread, vma.file, 8, MmapFlags.FASTMAP)
        )
        pte = thread.process.page_table.get_pte(second.start + (2 << PAGE_SHIFT))
        assert pte_status(pte) is PteStatus.RESIDENT

    def test_segfault_outside_vmas(self):
        system, thread, _ = build_mapped_system(PagingMode.OSDP)

        def body():
            yield from thread.mem_access(0xDEAD000)

        system.spawn(body(), "wild")
        with pytest.raises(SegmentationFault):
            system.sim.run()


class TestWrites:
    def test_file_write_submits_async(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)

        def body():
            yield from system.kernel.file_write(thread, vma.file, 0)

        proc = system.spawn(body(), "writer")
        while not proc.finished:
            system.sim.step()
        assert system.kernel.counters["write.submitted"] == 1
        system.sim.run(until=system.sim.now + 100_000.0)
        assert system.device.writes_completed == 1

    def test_dirty_page_written_back_on_eviction(self):
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, total_frames=128, file_pages=256
        )
        touch_pages(system, thread, vma, list(range(64)), is_write=True)
        touch_pages(system, thread, vma, list(range(64, 220)))
        assert system.kernel.counters["reclaim.writebacks"] > 0


class TestRemapHook:
    def test_remap_ignored_for_resident_page(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        touch_pages(system, thread, vma, [1])  # page 1 resident
        system.kernel.fs.remap_page(vma.file, 1)
        # Resident PTE untouched (the cached copy stays valid).
        assert system.kernel.counters["remap.pte_updates"] == 0

    def test_remap_outside_window_ignored(self):
        system, thread, _ = build_mapped_system(PagingMode.HWDP)
        file = system.kernel.fs.create_file("windowed", 16)
        run_coroutine(
            system,
            system.kernel.sys_mmap(
                thread, file, 4, MmapFlags.FASTMAP, file_page_offset=8
            ),
        )
        system.kernel.fs.remap_page(file, 0)  # before the window
        assert system.kernel.counters["remap.pte_updates"] == 0


class TestSwapSpace:
    def test_swap_allocation_is_monotone(self):
        system, _, _ = build_mapped_system(PagingMode.HWDP)
        kernel = system.kernel
        assert kernel._alloc_swap_page() == 0
        assert kernel._alloc_swap_page() == 1

    def test_swap_exhaustion(self):
        system, _, _ = build_mapped_system(PagingMode.HWDP)
        kernel = system.kernel
        kernel._next_swap_page = kernel.swap_file.num_pages
        with pytest.raises(OutOfMemoryError):
            kernel._alloc_swap_page()

    def test_nsid_for_vma(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        kernel = system.kernel
        assert kernel.nsid_for_vma(vma) == vma.file.nsid
        from repro.os.vma import Vma

        anon = Vma(start=0, num_pages=1, file=None)
        assert kernel.nsid_for_vma(anon) == kernel.swap_file.nsid
