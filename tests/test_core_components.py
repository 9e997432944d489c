"""Unit tests for the SMU's building blocks: PMSHR, free-page queue, host
controller, page-table updater, and the area model."""

import pytest

from repro.config import SmuConfig, DeviceConfig
from repro.core.area import XEON_E5_2640V3_DIE_MM2, estimate_area
from repro.core.free_page_queue import FreePageQueue
from repro.core.host_controller import SmuHostController
from repro.core.page_table_updater import PageTableUpdater
from repro.core.pmshr import Pmshr
from repro.errors import SmuError
from repro.sim import Simulator, spawn
from repro.storage.nvme import NVMeDevice, NVMeOpcode
from repro.vm import PageTable, PteStatus, decode_pte, make_lba_pte, pte_status
from repro.vm.pte import LBA_BIT

import numpy as np


class TestPmshr:
    def test_allocate_lookup_release(self):
        sim = Simulator()
        pmshr = Pmshr(sim, entries=4)
        entry = pmshr.allocate(0x1000, 0x2000, 0x3000, device_id=1, lba=99)
        assert pmshr.outstanding == 1
        assert pmshr.lookup(0x1000) is entry
        pmshr.release(entry, 42)
        assert pmshr.outstanding == 0
        assert entry.completion.done
        assert entry.completion.value == 42

    def test_lookup_miss(self):
        pmshr = Pmshr(Simulator(), entries=4)
        assert pmshr.lookup(0xABC) is None

    def test_capacity_limit(self):
        pmshr = Pmshr(Simulator(), entries=2)
        pmshr.allocate(0x1000, 0, 0, 0, 1)
        pmshr.allocate(0x2000, 0, 0, 0, 2)
        assert pmshr.is_full
        assert pmshr.allocate(0x3000, 0, 0, 0, 3) is None
        assert pmshr.stats["full"] == 1

    def test_double_allocation_rejected(self):
        pmshr = Pmshr(Simulator(), entries=4)
        pmshr.allocate(0x1000, 0, 0, 0, 1)
        with pytest.raises(SmuError):
            pmshr.allocate(0x1000, 0, 0, 0, 1)

    def test_release_unknown_rejected(self):
        sim = Simulator()
        pmshr = Pmshr(sim, entries=4)
        entry = pmshr.allocate(0x1000, 0, 0, 0, 1)
        pmshr.release(entry, 1)
        with pytest.raises(SmuError):
            pmshr.release(entry, 1)

    def test_indices_recycled(self):
        pmshr = Pmshr(Simulator(), entries=2)
        a = pmshr.allocate(0x1000, 0, 0, 0, 1)
        pmshr.release(a, 1)
        b = pmshr.allocate(0x2000, 0, 0, 0, 2)
        assert b.index == a.index

    def test_slot_freed_broadcast(self):
        sim = Simulator()
        pmshr = Pmshr(sim, entries=1)
        entry = pmshr.allocate(0x1000, 0, 0, 0, 1)
        woken = []

        def waiter():
            yield pmshr.slot_freed
            woken.append(sim.now)

        spawn(sim, waiter())
        sim.schedule(10.0, pmshr.release, entry, 5)
        sim.run()
        assert woken == [10.0]

    def test_needs_at_least_one_entry(self):
        with pytest.raises(SmuError):
            Pmshr(Simulator(), entries=0)


class TestFreePageQueue:
    def test_refill_and_pop(self):
        queue = FreePageQueue(depth=8, prefetch_entries=2)
        assert queue.refill([1, 2, 3]) == 3
        pop = queue.pop()
        assert pop.pfn == 1
        # Eager prefetch had staged the first entries into SRAM.
        assert pop.from_prefetch or queue.stats["pop_cold"] == 1

    def test_fifo_order(self):
        queue = FreePageQueue(depth=8, prefetch_entries=4)
        queue.refill(list(range(6)))
        assert [queue.pop().pfn for _ in range(6)] == list(range(6))

    def test_empty_pop(self):
        queue = FreePageQueue(depth=4)
        pop = queue.pop()
        assert pop.empty
        assert pop.pfn is None
        assert queue.stats["pop_empty"] == 1

    def test_refill_truncated_at_depth(self):
        queue = FreePageQueue(depth=4, prefetch_entries=0)
        accepted = queue.refill(list(range(10)))
        assert accepted == 4
        assert queue.occupancy == 4

    def test_prefetch_hides_latency(self):
        queue = FreePageQueue(depth=8, prefetch_entries=4)
        queue.refill(list(range(8)))
        queue.prefetch_now()
        first = queue.pop()
        assert first.from_prefetch

    def test_no_prefetch_buffer_pops_cold(self):
        queue = FreePageQueue(depth=8, prefetch_entries=0)
        queue.refill([1])
        assert not queue.pop().from_prefetch

    def test_drain(self):
        queue = FreePageQueue(depth=8, prefetch_entries=2)
        queue.refill([1, 2, 3])
        queue.prefetch_now()
        frames = queue.drain()
        assert sorted(frames) == [1, 2, 3]
        assert queue.is_empty

    def test_bad_sizes_rejected(self):
        with pytest.raises(SmuError):
            FreePageQueue(depth=0)
        with pytest.raises(SmuError):
            FreePageQueue(depth=1, prefetch_entries=-1)


class TestHostController:
    def _make(self, sim=None):
        sim = sim or Simulator()
        device = NVMeDevice(
            sim,
            DeviceConfig(name="d", read_latency_ns=5_000.0, latency_sigma=0.0),
            np.random.default_rng(0),
        )
        device.create_namespace(1 << 16)
        completions = []
        controller = SmuHostController(sim, SmuConfig(), completions.append)
        return sim, device, controller, completions

    def test_install_assigns_sequential_ids(self):
        sim, device, controller, _ = self._make()
        assert controller.install_device(device, nsid=1) == 0
        assert controller.install_device(device, nsid=1) == 1

    def test_descriptor_limit(self):
        sim, device, controller, _ = self._make()
        for _ in range(8):
            controller.install_device(device, nsid=1)
        with pytest.raises(SmuError):
            controller.install_device(device, nsid=1)

    def test_unprogrammed_descriptor_rejected(self):
        _, _, controller, _ = self._make()
        with pytest.raises(SmuError):
            controller.descriptor(0)
        with pytest.raises(SmuError):
            controller.descriptor(9)

    def test_issue_and_snoop_completion(self):
        sim, device, controller, completions = self._make()
        device_id = controller.install_device(device, nsid=1)
        controller.issue_read(device_id, lba=64, dma_addr=7, tag=3)
        sim.run()
        assert controller.commands_issued == 1
        assert controller.completions_snooped == 1
        assert len(completions) == 1
        assert completions[0].cid == 3
        assert completions[0].opcode is NVMeOpcode.READ

    def test_issue_latency_matches_paper(self):
        _, _, controller, _ = self._make()
        assert controller.issue_latency_ns == pytest.approx(77.16 + 1.60)

    def test_smu_queues_have_interrupts_disabled(self):
        sim, device, controller, _ = self._make()
        device_id = controller.install_device(device, nsid=1)
        qp = controller.descriptor(device_id).qp
        assert not qp.interrupt_enabled
        assert qp.owner == "smu"


class TestPageTableUpdater:
    def test_apply_installs_and_marks_uppers(self):
        table = PageTable()
        walk = table.set_pte(0x5000, make_lba_pte(123))
        updater = PageTableUpdater()
        installed = updater.apply(
            table, walk.pte_addr, walk.pmd_entry_addr, walk.pud_entry_addr, pfn=77
        )
        decoded = decode_pte(installed)
        assert decoded.status is PteStatus.RESIDENT_PENDING_SYNC
        assert decoded.pfn == 77
        assert table.read_entry(walk.pmd_entry_addr) & LBA_BIT
        assert table.read_entry(walk.pud_entry_addr) & LBA_BIT
        assert updater.updates_applied == 1

    def test_apply_requires_complete_addresses(self):
        table = PageTable()
        walk = table.set_pte(0x5000, make_lba_pte(123))
        with pytest.raises(SmuError):
            PageTableUpdater().apply(table, walk.pte_addr, None, walk.pud_entry_addr, 1)

    def test_apply_rejects_present_pte(self):
        from repro.errors import PageTableError
        from repro.vm import make_present_pte

        table = PageTable()
        walk = table.set_pte(0x5000, make_present_pte(1))
        with pytest.raises(PageTableError):
            PageTableUpdater().apply(
                table, walk.pte_addr, walk.pmd_entry_addr, walk.pud_entry_addr, 2
            )


class TestAreaModel:
    def test_default_matches_paper(self):
        breakdown = estimate_area(SmuConfig())
        assert breakdown.total_mm2 == pytest.approx(0.014, rel=0.01)
        fractions = breakdown.fractions()
        assert fractions["pmshr"] == pytest.approx(0.876, abs=0.002)
        assert fractions["nvme_registers"] == pytest.approx(0.067, abs=0.002)
        assert fractions["prefetch_buffer"] == pytest.approx(0.037, abs=0.002)
        assert fractions["misc"] == pytest.approx(0.020, abs=0.002)
        assert breakdown.fraction_of_die() == pytest.approx(0.00004, rel=0.05)

    def test_area_scales_with_pmshr_entries(self):
        small = estimate_area(SmuConfig(pmshr_entries=8))
        large = estimate_area(SmuConfig(pmshr_entries=64))
        assert large.pmshr_mm2 == pytest.approx(8 * small.pmshr_mm2)
        assert large.total_mm2 > small.total_mm2

    def test_die_fraction_uses_published_die_size(self):
        assert XEON_E5_2640V3_DIE_MM2 == 354.0
