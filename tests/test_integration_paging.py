"""End-to-end integration tests: one machine per mode, real fault paths.

These tests assert the latency *structure* the whole reproduction rests on:
OSDP pays the Figure 3 overhead around the device time, SWDP pays ~1.9 µs,
HWDP pays ~0.12 µs, and the control-plane machinery (kpted, kpoold,
fallback, eviction) keeps the system consistent.
"""

import pytest

from repro.config import PagingMode
from repro.mem.address import PAGE_SHIFT
from repro.vm import PteStatus, decode_pte, pte_status
from repro.vm.mmu import TranslationKind

from tests.helpers import build_mapped_system, touch_pages

DEVICE_NS = 10_000.0


class TestOsdpPath:
    def test_single_fault_latency_structure(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        results = touch_pages(system, thread, vma, [0])
        assert results[0].kind is TranslationKind.OS_FAULT
        costs = system.config.osdp_costs
        expected = DEVICE_NS + costs.critical_path_ns
        assert results[0].miss_latency_ns == pytest.approx(expected, rel=0.02)

    def test_second_access_hits_tlb(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        results = touch_pages(system, thread, vma, [0, 0])
        assert results[1].kind is TranslationKind.TLB_HIT

    def test_fault_charges_kernel_instructions(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, [0, 1, 2])
        assert thread.perf.kernel_instructions > 0
        assert system.kernel.counters["fault.major"] == 3

    def test_fastmap_flag_ignored_in_osdp(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        # PTEs are unpopulated: the vanilla kernel does not LBA-augment.
        assert system.kernel.processes[0].page_table.populated_ptes == 0

    def test_faulted_page_registered_in_metadata(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, [5])
        kernel = system.kernel
        assert len(kernel.reclaim) == 1
        assert kernel.page_cache.lookup(vma.file, 5) is not None
        pte = thread.process.page_table.get_pte(vma.start + (5 << PAGE_SHIFT))
        assert pte_status(pte) is PteStatus.RESIDENT


class TestHwdpPath:
    def test_mmap_lba_augments_all_ptes(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=64)
        table = thread.process.page_table
        assert table.populated_ptes == 64
        for index in range(64):
            pte = table.get_pte(vma.start + (index << PAGE_SHIFT))
            decoded = decode_pte(pte)
            assert decoded.status is PteStatus.NON_RESIDENT_HW
            assert decoded.lba == vma.file.lba_of_page(index)

    def test_single_miss_latency_near_device_time(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        results = touch_pages(system, thread, vma, [0])
        assert results[0].kind is TranslationKind.HW_MISS
        overhead = results[0].miss_latency_ns - DEVICE_NS
        # Figure 11(b): ~0.12 µs of hardware time around the device I/O.
        assert 50.0 < overhead < 400.0

    def test_no_kernel_instructions_on_hw_miss(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        after_mmap = thread.perf.kernel_instructions  # mmap population cost
        touch_pages(system, thread, vma, [0, 1, 2, 3])
        assert thread.perf.kernel_instructions == after_mmap
        assert system.kernel.counters["fault.exceptions"] == 0
        assert system.smu.misses_handled == 4

    def test_pte_left_pending_sync_and_upper_bits_set(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [7])
        table = thread.process.page_table
        vaddr = vma.start + (7 << PAGE_SHIFT)
        assert pte_status(table.get_pte(vaddr)) is PteStatus.RESIDENT_PENDING_SYNC
        report = table.collect_pending_sync()
        assert report.found == 1

    def test_kpted_eventually_syncs_metadata(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0, 1, 2])
        # Let kpted run a few periods.
        system.kernel.shutdown = False
        system.sim.run(until=system.sim.now + 1_000_000.0)
        table = thread.process.page_table
        for index in range(3):
            vaddr = vma.start + (index << PAGE_SHIFT)
            assert pte_status(table.get_pte(vaddr)) is PteStatus.RESIDENT
        assert len(system.kernel.reclaim) == 3
        assert system.kpted.pages_synced >= 3

    def test_stall_not_block_during_miss(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0])
        assert thread.perf.stall_cycles > 0
        assert thread.perf.blocked_cycles == 0

    def test_fallback_when_queue_empty(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            free_queue_depth=2,
            kpoold_enabled=False,
            file_pages=16,
        )
        results = touch_pages(system, thread, vma, list(range(8)))
        kinds = [r.kind for r in results]
        assert TranslationKind.HW_FALLBACK_FAULT in kinds
        assert system.kernel.counters["smu.queue_empty_failures"] > 0
        # The fallback path refilled the queue, so later misses succeed.
        assert TranslationKind.HW_MISS in kinds[3:]

    def test_kpoold_keeps_queue_topped_up(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, free_queue_depth=4, file_pages=32,
            kpoold_period_ns=20_000.0,
        )
        results = touch_pages(system, thread, vma, list(range(32)))
        fallbacks = sum(
            1 for r in results if r.kind is TranslationKind.HW_FALLBACK_FAULT
        )
        # kpoold refills between misses, so most are pure hardware misses.
        assert fallbacks < 8
        assert system.kernel.counters["refill.kpoold_pages"] > 0


class TestSwdpPath:
    def test_single_fault_latency_structure(self):
        system, thread, vma = build_mapped_system(PagingMode.SWDP)
        results = touch_pages(system, thread, vma, [0])
        assert results[0].kind is TranslationKind.OS_FAULT
        overhead = results[0].miss_latency_ns - DEVICE_NS
        expected = system.config.swdp_costs.critical_path_ns
        assert overhead == pytest.approx(expected, rel=0.1)

    def test_swdp_cheaper_than_osdp_but_dearer_than_hwdp(self):
        latencies = {}
        for mode in (PagingMode.OSDP, PagingMode.SWDP, PagingMode.HWDP):
            system, thread, vma = build_mapped_system(mode)
            results = touch_pages(system, thread, vma, [0])
            latencies[mode] = results[0].miss_latency_ns
        assert latencies[PagingMode.HWDP] < latencies[PagingMode.SWDP]
        assert latencies[PagingMode.SWDP] < latencies[PagingMode.OSDP]

    def test_swdp_uses_pmshr_and_defers_metadata(self):
        system, thread, vma = build_mapped_system(PagingMode.SWDP)
        touch_pages(system, thread, vma, [0, 1])
        assert system.kernel.counters["fault.swdp"] == 2
        table = thread.process.page_table
        assert (
            pte_status(table.get_pte(vma.start))
            is PteStatus.RESIDENT_PENDING_SYNC
        )

    def test_swdp_charges_kernel_instructions(self):
        system, thread, vma = build_mapped_system(PagingMode.SWDP)
        touch_pages(system, thread, vma, [0])
        assert thread.perf.kernel_instructions > 0


class TestEviction:
    def test_memory_pressure_triggers_reclaim_and_lba_eviction(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            total_frames=128,
            file_pages=256,
            free_queue_depth=16,
            kpted_period_ns=30_000.0,
            kpoold_period_ns=10_000.0,
        )
        touch_pages(system, thread, vma, list(range(200)))
        kernel = system.kernel
        assert kernel.counters["reclaim.evicted"] > 0
        assert kernel.counters["reclaim.lba_augmented"] > 0
        # Evicted fast-mmap pages are LBA-augmented again.
        table = thread.process.page_table
        statuses = [
            pte_status(table.get_pte(vma.start + (i << PAGE_SHIFT)))
            for i in range(200)
        ]
        assert PteStatus.NON_RESIDENT_HW in statuses

    def test_evicted_page_faults_again_via_hardware(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            total_frames=128,
            file_pages=256,
            free_queue_depth=16,
            kpted_period_ns=30_000.0,
            kpoold_period_ns=10_000.0,
        )
        touch_pages(system, thread, vma, list(range(200)))
        table = thread.process.page_table
        evicted = next(
            i
            for i in range(200)
            if pte_status(table.get_pte(vma.start + (i << PAGE_SHIFT)))
            is PteStatus.NON_RESIDENT_HW
        )
        results = touch_pages(system, thread, vma, [evicted])
        assert results[0].kind in (
            TranslationKind.HW_MISS,
            TranslationKind.HW_FALLBACK_FAULT,
        )

    def test_osdp_eviction_under_pressure(self):
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, total_frames=128, file_pages=256,
        )
        touch_pages(system, thread, vma, list(range(220)))
        kernel = system.kernel
        assert kernel.counters["reclaim.evicted"] > 0
        assert kernel.frame_pool.free_frames > 0


class TestSyscalls:
    def test_munmap_frees_everything(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=16)
        touch_pages(system, thread, vma, list(range(16)))
        used_before = system.kernel.frame_pool.used_frames

        def unmap():
            yield from system.kernel.sys_munmap(thread, vma)

        proc = system.spawn(unmap(), "munmap")
        while not proc.finished:
            system.sim.step()
        kernel = system.kernel
        assert kernel.frame_pool.used_frames == used_before - 16
        assert len(kernel.reclaim) == 0
        assert thread.process.find_vma(vma.start) is None

    def test_msync_synchronises_pending_metadata(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        touch_pages(system, thread, vma, [0, 1])

        synced = {}

        def msync():
            synced["n"] = yield from system.kernel.sys_msync(thread, vma)

        proc = system.spawn(msync(), "msync")
        while not proc.finished:
            system.sim.step()
        assert synced["n"] == 2
        assert (
            pte_status(thread.process.page_table.get_pte(vma.start))
            is PteStatus.RESIDENT
        )

    def test_fork_reverts_lba_ptes(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)

        def fork():
            yield from system.kernel.sys_fork(thread)

        proc = system.spawn(fork(), "fork")
        while not proc.finished:
            system.sim.step()
        table = thread.process.page_table
        for index in range(8):
            status = pte_status(table.get_pte(vma.start + (index << PAGE_SHIFT)))
            assert status is PteStatus.NON_RESIDENT_OS
        assert not vma.is_fastmap

    def test_block_remap_updates_lba_pte(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        file = vma.file
        old_lba = file.lba_of_page(3)
        new_lba = system.kernel.fs.remap_page(file, 3)
        assert new_lba != old_lba
        pte = thread.process.page_table.get_pte(vma.start + (3 << PAGE_SHIFT))
        assert decode_pte(pte).lba == new_lba
        assert system.kernel.counters["remap.pte_updates"] == 1


class TestCoalescing:
    def test_concurrent_hw_misses_same_page_coalesce(self):
        system, thread0, vma = build_mapped_system(PagingMode.HWDP, file_pages=8)
        thread1 = system.workload_thread(thread0.process, index=1)
        results = {}

        def toucher(thread, tag):
            translation = yield from thread.mem_access(vma.start)
            results[tag] = translation

        p0 = system.spawn(toucher(thread0, "a"), "a")
        p1 = system.spawn(toucher(thread1, "b"), "b")
        system.run([p0, p1])
        assert results["a"].pfn == results["b"].pfn
        # Only one I/O went to the device.
        assert system.device.reads_completed == 1
        assert system.smu.pmshr.stats["coalesced"] >= 1

    def test_concurrent_osdp_faults_same_page_coalesce(self):
        system, thread0, vma = build_mapped_system(PagingMode.OSDP, file_pages=8)
        thread1 = system.workload_thread(thread0.process, index=1)
        results = {}

        def toucher(thread, tag):
            translation = yield from thread.mem_access(vma.start)
            results[tag] = translation

        p0 = system.spawn(toucher(thread0, "a"), "a")
        p1 = system.spawn(toucher(thread1, "b"), "b")
        system.run([p0, p1])
        assert results["a"].pfn == results["b"].pfn
        assert system.device.reads_completed == 1
        assert system.kernel.counters["fault.coalesced"] == 1
