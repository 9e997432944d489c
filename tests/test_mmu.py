"""Tests for the extended MMU walker and kthread behaviour."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CpuConfig, PagingMode
from repro.cpu import CpuComplex, ThreadContext
from repro.errors import ProtectionFault, SimulationError
from repro.mem.address import PAGE_SHIFT
from repro.sim import Simulator, spawn
from repro.vm import (
    PageTable,
    PteStatus,
    decode_pte,
    make_lba_pte,
    make_present_pte,
    pte_status,
)
from repro.vm.mmu import Mmu, TranslationKind

from tests.helpers import build_mapped_system, touch_pages


class FakeProcess:
    def __init__(self):
        self.page_table = PageTable()
        self.kernel = None


def make_thread():
    sim = Simulator()
    cpu = CpuConfig(physical_cores=2)
    complex_ = CpuComplex(sim, cpu)
    thread = ThreadContext(sim, "t", FakeProcess(), complex_.logical_core(0), cpu)
    return sim, thread


def run_access(sim, thread, vaddr, is_write=False):
    result = {}

    def body():
        result["t"] = yield from thread.mem_access(vaddr, is_write)

    spawn(sim, body())
    sim.run()
    return result["t"]


class TestWalkerPaths:
    def test_present_page_walk_then_tlb_hit(self):
        sim, thread = make_thread()
        thread.process.page_table.set_pte(0x5000, make_present_pte(9))
        first = run_access(sim, thread, 0x5000)
        assert first.kind is TranslationKind.WALK
        assert first.pfn == 9
        second = run_access(sim, thread, 0x5123)
        assert second.kind is TranslationKind.TLB_HIT

    def test_walk_charges_latency(self):
        sim, thread = make_thread()
        thread.process.page_table.set_pte(0x5000, make_present_pte(9))
        before = sim.now
        run_access(sim, thread, 0x5000)
        assert sim.now - before == pytest.approx(thread.core.mmu.WALK_LATENCY_NS)

    def test_write_to_readonly_rejected_on_walk(self):
        sim, thread = make_thread()
        thread.process.page_table.set_pte(0x5000, make_present_pte(9, writable=False))

        def body():
            yield from thread.mem_access(0x5000, is_write=True)

        spawn(sim, body())
        with pytest.raises(ProtectionFault):
            sim.run()

    def test_write_to_readonly_rejected_on_tlb_hit(self):
        sim, thread = make_thread()
        thread.process.page_table.set_pte(0x5000, make_present_pte(9, writable=False))
        run_access(sim, thread, 0x5000)  # fill TLB

        def body():
            yield from thread.mem_access(0x5000, is_write=True)

        spawn(sim, body())
        with pytest.raises(ProtectionFault):
            sim.run()

    def test_fault_without_handler_raises(self):
        sim, thread = make_thread()

        def body():
            yield from thread.mem_access(0x9000)

        spawn(sim, body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_lba_pte_without_smu_goes_to_os(self):
        sim, thread = make_thread()
        thread.process.page_table.set_pte(0x5000, make_lba_pte(55))
        calls = []

        def handler(thread_, vaddr, walk, is_write):
            calls.append(vaddr)
            thread_.process.page_table.set_pte(vaddr, make_present_pte(3))
            return 3
            yield  # pragma: no cover

        thread.core.mmu.fault_handler = handler
        result = run_access(sim, thread, 0x5000)
        assert result.kind is TranslationKind.OS_FAULT
        assert calls == [0x5000]

    def test_spurious_fault_returns_quickly(self):
        """A racing install makes the re-check in the handler return early."""
        system, thread0, vma = build_mapped_system(PagingMode.OSDP, file_pages=8)
        thread1 = system.workload_thread(thread0.process, index=1)
        order = []

        def racer(thread, tag):
            translation = yield from thread.mem_access(vma.start)
            order.append((tag, translation.kind))

        p0 = system.spawn(racer(thread0, "a"), "a")
        p1 = system.spawn(racer(thread1, "b"), "b")
        system.run([p0, p1])
        assert system.kernel.counters["fault.coalesced"] == 1


class TestKpted:
    def test_sync_pass_charges_kernel_time_to_kpted(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0, 1, 2, 3])
        kpted_thread = next(
            t for t in system.kthread_threads if t.name == "kpted"
        )
        before = kpted_thread.perf.kernel_instructions
        system.sim.run(until=system.sim.now + 1_000_000.0)
        assert kpted_thread.perf.kernel_instructions > before
        assert system.kpted.passes >= 1

    def test_kpted_skips_processes_without_fastmap(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        # OSDP systems never start kpted at all.
        assert system.kpted is None

    def test_kpted_batched_update_cheaper_than_inline(self):
        """The §IV-C batching claim: per-page kpted cost < inline cost."""
        system, thread, vma = build_mapped_system(PagingMode.HWDP, file_pages=64)
        touch_pages(system, thread, vma, list(range(64)))
        kpted_thread = next(t for t in system.kthread_threads if t.name == "kpted")
        before = kpted_thread.perf.kernel_cycles
        system.sim.run(until=system.sim.now + 1_000_000.0)
        synced = system.kpted.pages_synced
        assert synced >= 64
        cycles_per_page = (kpted_thread.perf.kernel_cycles - before) / synced
        inline_cycles = system.config.cpu.ns_to_cycles(
            system.config.osdp_costs.metadata_update_ns
        )
        assert cycles_per_page < inline_cycles


class TestKpoold:
    def test_kpoold_refills_periodically(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, free_queue_depth=16, kpoold_period_ns=10_000.0
        )
        touch_pages(system, thread, vma, list(range(12)))
        system.sim.run(until=system.sim.now + 100_000.0)
        assert system.kpoold.refill_passes >= 1
        assert system.kernel.counters["refill.kpoold_pages"] > 0

    def test_kpoold_idle_when_queue_full(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, kpoold_period_ns=5_000.0
        )
        system.sim.run(until=200_000.0)
        # Apart from the one-time top-up of the boot-drained SRAM staging
        # entries, the daemon woke many times but never refilled.
        queue = system.kernel.free_page_queue
        assert system.kernel.counters["refill.kpoold_pages"] <= queue.prefetch_entries
        assert system.kpoold.refill_passes <= 1

    def test_daemons_stop_on_shutdown(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        system.kernel.stop()
        system.sim.run(until=system.sim.now + 10_000_000.0)
        assert all(process.finished for process in system._kthread_processes)


# ----------------------------------------------------------------------
# raw-bit branch tests against decode_pte
# ----------------------------------------------------------------------
_ANY_PTE = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(value=_ANY_PTE, installed=_ANY_PTE, smu_attached=st.booleans(),
       is_write=st.booleans())
@settings(max_examples=300, deadline=None)
def test_translate_branch_matches_decode(value, installed, smu_attached, is_write):
    """For any leaf value, the walker's raw-bit tests pick the branch that
    ``decode_pte(value).present``/``.status`` select, hand the SMU the same
    decoded fields, and fill the TLB with the same permission bit."""
    mmu = Mmu(Simulator(), 0)
    process = FakeProcess()
    vaddr = 0x10_0000_0000
    process.page_table.set_pte(vaddr, value)
    calls = []

    def os_handler(thread, va, walk, write):
        calls.append(("os", walk.pte))
        process.page_table.set_pte(va, installed)
        return 77
        yield  # a generator, like the kernel's handler

    class FakeSmu:
        def handle_miss(self, walk, decoded, thread):
            calls.append(("smu", dataclasses.astuple(decoded)))
            return 55
            yield

    mmu.fault_handler = os_handler
    mmu.smu = FakeSmu() if smu_attached else None
    translate = mmu.translate(SimpleNamespace(process=process), vaddr, is_write)
    assert next(translate) == Mmu.WALK_LATENCY_NS
    decoded = decode_pte(value)
    hardware = decoded.status is PteStatus.NON_RESIDENT_HW and smu_attached
    if (decoded.present or hardware) and is_write and not decoded.writable:
        with pytest.raises(ProtectionFault):
            translate.send(None)
        assert calls == []
        return
    with pytest.raises(StopIteration) as stop:
        translate.send(None)
    translation = stop.value.value
    vpn = vaddr >> PAGE_SHIFT
    if decoded.present:
        assert calls == []
        assert translation.kind is TranslationKind.WALK
        assert mmu.tlb.lookup(vpn) == (decoded.pfn, decoded.writable)
    elif hardware:
        assert calls == [("smu", dataclasses.astuple(decoded))]
        assert translation.kind is TranslationKind.HW_MISS
        assert mmu.tlb.lookup(vpn) == (55, decoded.writable)
    else:
        assert calls == [("os", value)]
        assert translation.kind is TranslationKind.OS_FAULT
        after = decode_pte(installed)
        assert mmu.tlb.lookup(vpn) == (77, after.writable if after.present else True)
