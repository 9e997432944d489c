"""Tests for intra-process shared file mappings and the reverse map.

The paper's scheme does not share pages *across* address spaces (§V), but
a single process can map the same file twice; the page cache then serves
the second mapping, and the kernel's reverse map must keep every PTE
coherent through eviction and unmap.
"""

import pytest

from repro.config import PagingMode
from repro.mem.address import PAGE_SHIFT
from repro.os.vma import MmapFlags
from repro.vm import PteStatus, decode_pte, pte_status

from tests.helpers import build_mapped_system, touch_pages


def run_coroutine(system, body):
    holder = {}

    def wrapper():
        holder["result"] = yield from body

    proc = system.spawn(wrapper(), "aux")
    while not proc.finished:
        system.sim.step()
    return holder["result"]


def dual_map(mode=PagingMode.OSDP, **kwargs):
    system, thread, vma1 = build_mapped_system(mode, file_pages=32, **kwargs)
    # Make the page resident + synced via the first mapping.
    touch_pages(system, thread, vma1, [3])
    run_coroutine(system, system.kernel.sys_msync(thread, vma1))
    vma2 = run_coroutine(
        system,
        system.kernel.sys_mmap(thread, vma1.file, 32, MmapFlags.NONE),
    )
    return system, thread, vma1, vma2


class TestSharedMappings:
    def test_second_mapping_served_from_page_cache(self):
        system, thread, vma1, vma2 = dual_map()
        reads_before = system.device.reads_completed
        results = touch_pages(system, thread, vma2, [3])
        assert system.device.reads_completed == reads_before  # no new I/O
        assert system.kernel.counters["fault.minor_cached"] == 1
        # Both VMAs map the same frame.
        pte1 = decode_pte(thread.process.page_table.get_pte(
            vma1.start + (3 << PAGE_SHIFT)))
        pte2 = decode_pte(thread.process.page_table.get_pte(
            vma2.start + (3 << PAGE_SHIFT)))
        assert pte1.pfn == pte2.pfn == results[0].pfn

    def test_rmap_tracks_both_mappings(self):
        system, thread, vma1, vma2 = dual_map()
        touch_pages(system, thread, vma2, [3])
        pfn = decode_pte(
            thread.process.page_table.get_pte(vma1.start + (3 << PAGE_SHIFT))
        ).pfn
        page = system.kernel._page_info[pfn]
        assert page.mapcount == 2

    def test_eviction_clears_every_mapping(self):
        system, thread, vma1, vma2 = dual_map()
        touch_pages(system, thread, vma2, [3])
        pfn = decode_pte(
            thread.process.page_table.get_pte(vma1.start + (3 << PAGE_SHIFT))
        ).pfn
        page = system.kernel._page_info[pfn]
        system.kernel.reclaim.remove(pfn)
        system.kernel.evict_page(page)
        table = thread.process.page_table
        for vma in (vma1, vma2):
            value = table.get_pte(vma.start + (3 << PAGE_SHIFT))
            assert not decode_pte(value).present, "dangling PTE after eviction"

    def test_unmapping_one_vma_keeps_the_frame(self):
        system, thread, vma1, vma2 = dual_map()
        touch_pages(system, thread, vma2, [3])
        used_before = system.kernel.frame_pool.used_frames
        run_coroutine(system, system.kernel.sys_munmap(thread, vma2))
        # Frame still owned by vma1's mapping.
        assert system.kernel.frame_pool.used_frames == used_before
        pte1 = decode_pte(
            thread.process.page_table.get_pte(vma1.start + (3 << PAGE_SHIFT))
        )
        assert pte1.present
        assert system.kernel.reclaim.contains(pte1.pfn)

    def test_unmapping_primary_promotes_extra(self):
        system, thread, vma1, vma2 = dual_map()
        touch_pages(system, thread, vma2, [3])
        pfn = decode_pte(
            thread.process.page_table.get_pte(vma1.start + (3 << PAGE_SHIFT))
        ).pfn
        run_coroutine(system, system.kernel.sys_munmap(thread, vma1))
        page = system.kernel._page_info[pfn]
        assert page.vma is vma2
        assert page.mapcount == 1
        # Unmapping the second VMA finally frees the frame.
        used_before = system.kernel.frame_pool.used_frames
        run_coroutine(system, system.kernel.sys_munmap(thread, vma2))
        assert system.kernel.frame_pool.used_frames == used_before - 1

    def test_no_dangling_pte_under_pressure_with_dual_maps(self):
        system, thread, vma1 = build_mapped_system(
            PagingMode.HWDP,
            total_frames=128,
            file_pages=256,
            kpted_period_ns=20_000.0,
            kpoold_period_ns=8_000.0,
        )
        touch_pages(system, thread, vma1, list(range(0, 40)))
        run_coroutine(system, system.kernel.sys_msync(thread, vma1))
        vma2 = run_coroutine(
            system, system.kernel.sys_mmap(thread, vma1.file, 256, MmapFlags.NONE)
        )
        touch_pages(system, thread, vma2, list(range(0, 40)))
        # Force heavy eviction.
        touch_pages(system, thread, vma1, list(range(40, 240)))
        system.sim.run(until=system.sim.now + 1_000_000.0)
        free = set(system.kernel.frame_pool._free)
        table = thread.process.page_table
        for vma in (vma1, vma2):
            for index in range(40):
                value = table.get_pte(vma.start + (index << PAGE_SHIFT))
                decoded = decode_pte(value)
                if decoded.present:
                    assert decoded.pfn not in free
