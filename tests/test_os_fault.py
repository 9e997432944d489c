"""Focused tests for fault-handler internals across the three paths."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PagingMode, SystemConfig
from repro.mem.address import PAGE_SHIFT
from repro.os.fault import PageFaultHandler
from repro.sim import Counter, Simulator
from repro.vm import PageTable, PteStatus, decode_pte, make_present_pte, pte_status
from repro.vm.mmu import TranslationKind
from repro.vm.pte import ANON_FIRST_TOUCH_LBA

from tests.helpers import build_mapped_system, touch_pages


class TestSpuriousAndCoalesced:
    def test_spurious_fault_counter(self):
        """A PTE installed between exception and handler re-check."""
        system, thread, vma = build_mapped_system(PagingMode.OSDP, file_pages=8)
        handler = system.kernel.fault_handler
        original = handler.handle

        def racing_handle(thread_, vaddr, walk, is_write):
            # Simulate a racing install right as the exception is taken.
            pfn = system.kernel.frame_pool.alloc()
            thread_.process.page_table.set_pte(vaddr, make_present_pte(pfn))
            result = yield from original(thread_, vaddr, walk, is_write)
            return result

        for core in system.cpu_complex.logical_cores:
            core.mmu.fault_handler = racing_handle
        results = touch_pages(system, thread, vma, [0])
        assert system.kernel.counters["fault.spurious"] == 1
        assert system.kernel.counters["fault.major"] == 0
        # Quick return: no device I/O happened.
        assert system.device.reads_completed == 0

    def test_coalesced_followers_share_one_io_many_threads(self):
        system, thread0, vma = build_mapped_system(PagingMode.OSDP, file_pages=8)
        threads = [thread0] + [
            system.workload_thread(thread0.process, index=i) for i in (1, 2, 3)
        ]
        results = {}

        def toucher(thread, tag):
            translation = yield from thread.mem_access(vma.start)
            results[tag] = translation

        procs = [
            system.spawn(toucher(thread, i), f"t{i}")
            for i, thread in enumerate(threads)
        ]
        system.run(procs)
        assert system.device.reads_completed == 1
        assert system.kernel.counters["fault.coalesced"] == 3
        pfns = {t.pfn for t in results.values()}
        assert len(pfns) == 1

    def test_follower_latency_close_to_leader(self):
        system, thread0, vma = build_mapped_system(PagingMode.OSDP, file_pages=8)
        thread1 = system.workload_thread(thread0.process, index=1)
        latencies = {}

        def toucher(thread, tag):
            before = system.sim.now
            yield from thread.mem_access(vma.start)
            latencies[tag] = system.sim.now - before

        p0 = system.spawn(toucher(thread0, "leader"), "l")
        p1 = system.spawn(toucher(thread1, "follower"), "f")
        system.run([p0, p1])
        assert latencies["follower"] <= latencies["leader"] * 1.1


class TestSwdpInternals:
    def test_pmshr_coalescing_in_swdp(self):
        system, thread0, vma = build_mapped_system(PagingMode.SWDP, file_pages=8)
        thread1 = system.workload_thread(thread0.process, index=1)
        results = {}

        def toucher(thread, tag):
            results[tag] = yield from thread.mem_access(vma.start)

        p0 = system.spawn(toucher(thread0, "a"), "a")
        p1 = system.spawn(toucher(thread1, "b"), "b")
        system.run([p0, p1])
        assert system.kernel.counters["fault.swdp_coalesced"] == 1
        assert system.device.reads_completed == 1
        assert results["a"].pfn == results["b"].pfn

    def test_swdp_pmshr_capacity_blocks_excess_faults(self):
        system, thread0, vma = build_mapped_system(
            PagingMode.SWDP, file_pages=16, pmshr_entries=2
        )
        threads = [thread0] + [
            system.workload_thread(thread0.process, index=i) for i in (1, 2, 3)
        ]

        def toucher(thread, page):
            yield from thread.mem_access(vma.start + (page << PAGE_SHIFT))

        procs = [
            system.spawn(toucher(thread, i), f"t{i}")
            for i, thread in enumerate(threads)
        ]
        system.run(procs)
        assert system.kernel.counters["fault.swdp_pmshr_full"] > 0
        # All four pages are resident in the end.
        for page in range(4):
            status = pte_status(
                thread0.process.page_table.get_pte(vma.start + (page << PAGE_SHIFT))
            )
            assert status is PteStatus.RESIDENT_PENDING_SYNC

    def test_swdp_queue_empty_falls_over_to_os_path(self):
        system, thread, vma = build_mapped_system(
            PagingMode.SWDP,
            file_pages=32,
            free_queue_depth=2,
            kpoold_enabled=False,
        )
        results = touch_pages(system, thread, vma, list(range(12)))
        kernel = system.kernel
        assert kernel.counters["fault.swdp_queue_empty"] > 0
        assert kernel.counters["fault.major"] > 0
        assert kernel.counters["fault.sync_refill"] > 0
        # Every page is resident regardless of which path served it.
        assert all(r.pfn is not None for r in results)

    def test_swdp_contention_cost_grows_with_outstanding(self):
        """The paper's SW-model artifact: PMSHR cache-line contention."""
        def mean_fault(threads_count):
            system, thread0, vma = build_mapped_system(
                PagingMode.SWDP, file_pages=4096
            )
            threads = [thread0] + [
                system.workload_thread(thread0.process, index=i)
                for i in range(1, threads_count)
            ]
            done = []

            def toucher(thread, base):
                for page in range(base, base + 20):
                    yield from thread.mem_access(vma.start + (page << PAGE_SHIFT))
                done.append(thread)

            procs = [
                system.spawn(toucher(thread, 512 * i), f"t{i}")
                for i, thread in enumerate(threads)
            ]
            system.run(procs)
            stats = [
                t.perf.miss_latency["os-fault"].mean
                for t in threads
                if "os-fault" in t.perf.miss_latency
            ]
            return sum(stats) / len(stats)

        assert mean_fault(4) > mean_fault(1)


class TestHwdpFallbackDetails:
    def test_fallback_installs_conventional_pte(self):
        """The OS fallback does the full job: metadata inline, LBA clear."""
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            file_pages=16,
            free_queue_depth=2,
            kpoold_enabled=False,
        )
        results = touch_pages(system, thread, vma, list(range(8)))
        fallback_index = next(
            i
            for i, r in enumerate(results)
            if r.kind is TranslationKind.HW_FALLBACK_FAULT
        )
        vaddr = vma.start + (fallback_index << PAGE_SHIFT)
        status = pte_status(thread.process.page_table.get_pte(vaddr))
        assert status is PteStatus.RESIDENT  # not pending-sync
        pfn = results[fallback_index].pfn
        assert system.kernel.reclaim.contains(pfn)

    def test_fallback_overlaps_refill_with_device_io(self):
        """§IV-D: the refill happens during the device wait, so the
        fallback fault's latency stays near one OSDP fault."""
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            file_pages=16,
            free_queue_depth=2,
            kpoold_enabled=False,
        )
        results = touch_pages(system, thread, vma, list(range(8)))
        fallbacks = [
            r for r in results if r.kind is TranslationKind.HW_FALLBACK_FAULT
        ]
        assert fallbacks
        osdp_total = 10_000.0 + system.config.osdp_costs.critical_path_ns
        for result in fallbacks:
            # Small extra: the aborted SMU attempt + re-walk; far below a
            # serialised refill (which would add ~hundreds of µs).
            assert result.miss_latency_ns < osdp_total * 1.25


# ----------------------------------------------------------------------
# raw-bit branch tests against decode_pte
# ----------------------------------------------------------------------
_ANY_PTE = st.integers(min_value=0, max_value=(1 << 64) - 1)
_VADDR = 0x10_0000_0000


def _bare_handler(mode):
    """A fault handler over a stub kernel, its inner paths recorded."""
    kernel = SimpleNamespace(
        sim=Simulator(),
        config=SystemConfig(mode=mode),
        counters=Counter(),
        swap_file=SimpleNamespace(lba_of_page=lambda page: 1000 + page),
    )
    handler = PageFaultHandler(kernel)
    calls = []

    def recorder(name, result):
        def path(*args, **kwargs):
            calls.append((name, args[2:], kwargs))
            return result
            yield

        return path

    handler._swdp_fault = recorder("swdp", 1)
    handler._coalesced_os_fault = recorder("os", 2)
    handler._major_fault = recorder("major", 3)
    handler._minor_fault = recorder("minor", 4)
    return handler, calls


def _stub_thread(value, vma):
    table = PageTable()
    table.set_pte(_VADDR, value)
    process = SimpleNamespace(pid=1, name="p", page_table=table,
                              find_vma=lambda vaddr: vma)
    return SimpleNamespace(
        process=process, name="t", active_span=None,
        kernel_phase=lambda ns, name="": iter(()),
    )


def _finish(generator):
    with pytest.raises(StopIteration) as stop:
        next(generator)
    return stop.value.value


@given(value=_ANY_PTE, swdp=st.booleans(), fastmap=st.booleans())
@settings(max_examples=300, deadline=None)
def test_dispatch_branch_matches_decode(value, swdp, fastmap):
    """The exception entry's raw-bit tests pick the branch that
    ``decode_pte`` selects: spurious (present), SWDP emulation, or the OS
    path with the refill flag set exactly for NON_RESIDENT_HW."""
    handler, calls = _bare_handler(PagingMode.SWDP if swdp else PagingMode.OSDP)
    vma = SimpleNamespace(is_fastmap=fastmap)
    result = _finish(handler._dispatch(_stub_thread(value, vma), _VADDR, None, False))
    decoded = decode_pte(value)
    hardware = decoded.status is PteStatus.NON_RESIDENT_HW
    if decoded.present:
        assert (result, calls) == (decoded.pfn, [])
    elif swdp and fastmap and hardware:
        assert result == 1
        [(name, (_, passed), _)] = calls
        assert name == "swdp"
        assert dataclasses.astuple(passed) == dataclasses.astuple(decoded)
    else:
        assert (result, calls) == (2, [("os", (vma, hardware), {})])


@given(value=_ANY_PTE, file_backed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_coalesced_fault_swap_lba_matches_decode(value, file_backed):
    """A file-backed fault is major without reading the PTE; an anonymous
    one takes its swap LBA from either encoding, as decode_pte reads it."""
    handler, calls = _bare_handler(PagingMode.OSDP)
    vma = SimpleNamespace(file=object() if file_backed else None)
    coalesced = PageFaultHandler._coalesced_os_fault  # the real one, not the stub
    _finish(coalesced(handler, _stub_thread(value, vma), _VADDR, vma, False))
    decoded = decode_pte(value)
    swap_lba = None
    if not file_backed:
        if (decoded.status is PteStatus.NON_RESIDENT_HW
                and decoded.lba != ANON_FIRST_TOUCH_LBA):
            swap_lba = decoded.lba
        elif decoded.status is PteStatus.NON_RESIDENT_OS and decoded.pfn > 0:
            swap_lba = 1000 + decoded.pfn - 1
    if file_backed or swap_lba is not None:
        assert calls == [("major", (vma, False), {"swap_lba": swap_lba})]
    else:
        assert calls == [("minor", (vma,), {})]
    assert handler.inflight_faults == 0
