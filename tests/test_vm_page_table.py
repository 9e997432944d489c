"""Tests for the 4-level page table and the kpted scan support."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, PageTableError
from repro.mem.address import ENTRIES_PER_TABLE, PAGE_SHIFT, VA_LIMIT
from repro.vm import (
    PageTable,
    PteStatus,
    decode_pte,
    hw_install_frame,
    make_lba_pte,
    make_present_pte,
    pte_status,
)
from repro.vm.page_table import TABLE_REGION_BASE
from repro.vm.pte import LBA_BIT

PAGE = 1 << PAGE_SHIFT


def test_empty_walk_incomplete():
    table = PageTable()
    walk = table.walk(0x1000)
    assert walk.pte == 0
    assert not walk.complete
    assert walk.pte_addr is None


def test_set_then_walk():
    table = PageTable()
    value = make_present_pte(42)
    table.set_pte(0x7000, value)
    walk = table.walk(0x7000)
    assert walk.complete
    assert walk.pte == value
    assert walk.pte_addr is not None
    assert walk.pmd_entry_addr is not None
    assert walk.pud_entry_addr is not None


def test_walk_addresses_are_stable_and_distinct():
    table = PageTable()
    table.set_pte(0x0000, make_present_pte(1))
    table.set_pte(0x1000, make_present_pte(2))
    walk_a = table.walk(0x0000)
    walk_b = table.walk(0x1000)
    assert walk_a.pte_addr != walk_b.pte_addr
    # Adjacent pages share PMD/PUD entries.
    assert walk_a.pmd_entry_addr == walk_b.pmd_entry_addr
    assert walk_a.pud_entry_addr == walk_b.pud_entry_addr
    assert walk_b.pte_addr - walk_a.pte_addr == 8


def test_read_write_entry_by_address():
    table = PageTable()
    walk = table.set_pte(0x42000, make_present_pte(9))
    assert table.read_entry(walk.pte_addr) == make_present_pte(9)
    table.write_entry(walk.pte_addr, make_present_pte(10))
    assert table.get_pte(0x42000) == make_present_pte(10)


def test_locate_bad_address_raises():
    table = PageTable()
    with pytest.raises(PageTableError):
        table.read_entry(0xDEAD000)


def test_misaligned_entry_address_raises():
    table = PageTable()
    walk = table.set_pte(0x1000, make_present_pte(1))
    with pytest.raises(PageTableError):
        table.read_entry(walk.pte_addr + 3)


def test_clear_pte():
    table = PageTable()
    table.set_pte(0x3000, make_present_pte(5))
    previous = table.clear_pte(0x3000)
    assert previous == make_present_pte(5)
    assert table.get_pte(0x3000) == 0
    assert table.clear_pte(0x99000) == 0  # absent: no-op


def test_populated_counter_tracks_set_and_clear():
    table = PageTable()
    table.set_pte(0x1000, make_present_pte(1))
    table.set_pte(0x2000, make_lba_pte(7))
    assert table.populated_ptes == 2
    table.clear_pte(0x1000)
    assert table.populated_ptes == 1
    table.set_pte(0x2000, make_present_pte(3))  # overwrite, still populated
    assert table.populated_ptes == 1


def test_table_pages_allocated_counts_all_levels():
    table = PageTable()
    assert table.table_pages_allocated == 1  # root
    table.set_pte(0x1000, make_present_pte(1))
    # Root existed; PUD + PMD + PT created.
    assert table.table_pages_allocated == 4
    table.set_pte(0x2000, make_present_pte(2))  # same leaf table
    assert table.table_pages_allocated == 4
    # An address 512 pages away needs a new leaf table only.
    table.set_pte(0x1000 + 512 * PAGE, make_present_pte(3))
    assert table.table_pages_allocated == 5


def test_iter_populated_yields_sorted_vpns():
    table = PageTable()
    addresses = [0x5000, 0x1000, 0x800000, 0x3000]
    for i, vaddr in enumerate(addresses):
        table.set_pte(vaddr, make_present_pte(i + 1))
    vpns = [vpn for vpn, _ in table.iter_populated()]
    assert vpns == sorted(vaddr >> PAGE_SHIFT for vaddr in addresses)


def test_resident_pages_counts_present_only():
    table = PageTable()
    table.set_pte(0x1000, make_present_pte(1))
    table.set_pte(0x2000, make_lba_pte(5))
    assert table.resident_pages() == 1


class TestKptedScan:
    def _install_hw_page(self, table, vaddr, lba, pfn):
        """Simulate SMU behaviour: install frame, set upper LBA bits."""
        table.set_pte(vaddr, make_lba_pte(lba))
        walk = table.walk(vaddr)
        table.write_entry(walk.pte_addr, hw_install_frame(walk.pte, pfn))
        table.mark_sync_pending(vaddr)

    def test_scan_finds_pending_pte(self):
        table = PageTable()
        self._install_hw_page(table, 0x4000, lba=80, pfn=11)
        report = table.collect_pending_sync()
        assert report.found == 1
        vpn, pte_addr = report.pending[0]
        assert vpn == 0x4
        assert table.read_entry(pte_addr) & 1  # present

    def test_scan_clears_upper_bits(self):
        table = PageTable()
        self._install_hw_page(table, 0x4000, lba=80, pfn=11)
        table.collect_pending_sync()
        second = table.collect_pending_sync()
        # Upper bits were cleared; the pruned scan never reaches the PTE,
        # even though its own LBA bit is still set (kpted clears it).
        assert second.found == 0
        assert second.ptes_visited == 0

    def test_scan_prunes_clean_subtrees(self):
        table = PageTable()
        # One clean resident page, far from the pending one.
        table.set_pte(0x1000, make_present_pte(1))
        self._install_hw_page(table, 0x40000000, lba=7, pfn=2)
        report = table.collect_pending_sync()
        assert report.found == 1
        # Only the dirty leaf table's 512 PTEs are visited.
        assert report.ptes_visited == ENTRIES_PER_TABLE

    def test_scan_finds_multiple_pending_across_tables(self):
        table = PageTable()
        addresses = [0x4000, 0x5000, 0x4000 + 512 * PAGE, 0x80000000]
        for i, vaddr in enumerate(addresses):
            self._install_hw_page(table, vaddr, lba=i + 1, pfn=i + 10)
        report = table.collect_pending_sync()
        assert report.found == len(addresses)
        found_vpns = sorted(vpn for vpn, _ in report.pending)
        assert found_vpns == sorted(a >> PAGE_SHIFT for a in addresses)

    def test_mark_sync_pending_requires_mapped_tables(self):
        table = PageTable()
        with pytest.raises(PageTableError):
            table.mark_sync_pending(0x1234000)

    def test_pending_pte_not_rediscovered_after_sync(self):
        table = PageTable()
        self._install_hw_page(table, 0x4000, lba=80, pfn=11)
        report = table.collect_pending_sync()
        vpn, pte_addr = report.pending[0]
        # kpted syncs metadata and clears the PTE's LBA bit.
        from repro.vm import os_sync_metadata

        table.write_entry(pte_addr, os_sync_metadata(table.read_entry(pte_addr)))
        assert pte_status(table.get_pte(0x4000)) is PteStatus.RESIDENT
        assert table.collect_pending_sync().found == 0


@given(
    vaddrs=st.lists(
        st.integers(min_value=0, max_value=(VA_LIMIT >> PAGE_SHIFT) - 1),
        min_size=1,
        max_size=60,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_set_get_roundtrip(vaddrs):
    """Whatever set of pages is mapped, every PTE reads back exactly."""
    table = PageTable()
    expected = {}
    for i, vpn in enumerate(vaddrs):
        value = make_present_pte((i % 1000) + 1)
        table.set_pte(vpn << PAGE_SHIFT, value)
        expected[vpn] = value
    for vpn, value in expected.items():
        assert table.get_pte(vpn << PAGE_SHIFT) == value
    assert dict(table.iter_populated()) == expected


@given(
    vaddrs=st.lists(
        st.integers(min_value=0, max_value=(VA_LIMIT >> PAGE_SHIFT) - 1),
        min_size=1,
        max_size=40,
        unique=True,
    )
)
@settings(max_examples=30, deadline=None)
def test_property_scan_finds_exactly_the_pending_set(vaddrs):
    """collect_pending_sync returns exactly the RESIDENT_PENDING_SYNC pages."""
    table = PageTable()
    pending_vpns = set()
    for i, vpn in enumerate(vaddrs):
        vaddr = vpn << PAGE_SHIFT
        if i % 2 == 0:
            table.set_pte(vaddr, make_present_pte(i + 1))
        else:
            table.set_pte(vaddr, make_lba_pte(i + 1))
            walk = table.walk(vaddr)
            table.write_entry(walk.pte_addr, hw_install_frame(walk.pte, i + 1))
            table.mark_sync_pending(vaddr)
            pending_vpns.add(vpn)
    report = table.collect_pending_sync()
    assert sorted(vpn for vpn, _ in report.pending) == sorted(pending_vpns)


# ----------------------------------------------------------------------
# get_pte vs walk, and the by-address entry interface's error checks
# ----------------------------------------------------------------------
#: Mapped pages spread over two PGD slots; the probes below land on them,
#: next to them (same leaf table), under a missing leaf table (PMD
#: present), under a missing PMD table (PUD present), and in an empty PGD
#: slot.
_MAPPED = [0x7000, 0x8000, 0x4000_0000_0000 + 0x1000]
_PROBES = [
    0x7000, 0x8000, 0x9000, 0x7123,  # mapped / same leaf table, offset
    0x20_0000,  # leaf table missing, PMD table present
    0x4000_0000,  # PMD table missing, PUD table present
    0x4000_0000_0000 + 0x1000, 0x4000_0000_0000,  # second PGD slot
    0x8000_0000_0000 - 0x1000,  # empty PGD slot, top of the space
    0,
]


def _mapped_table():
    table = PageTable()
    for i, vaddr in enumerate(_MAPPED):
        table.set_pte(vaddr, make_lba_pte(i + 1) if i % 2 else make_present_pte(i + 1))
    return table


@pytest.mark.parametrize("vaddr", _PROBES)
def test_get_pte_matches_walk(vaddr):
    table = _mapped_table()
    assert table.get_pte(vaddr) == table.walk(vaddr).pte


@given(vaddr=st.integers(min_value=0, max_value=VA_LIMIT - 1))
@settings(max_examples=200)
def test_property_get_pte_matches_walk(vaddr):
    table = _mapped_table()
    # Map the probe's neighbourhood half the time so every depth is hit.
    if vaddr & 1:
        table.set_pte((vaddr ^ (1 << PAGE_SHIFT)) & ~(PAGE - 1), make_present_pte(3))
    assert table.get_pte(vaddr) == table.walk(vaddr).pte


@pytest.mark.parametrize("vaddr", [-1, -PAGE, VA_LIMIT, VA_LIMIT + PAGE, 1 << 64])
def test_get_pte_rejects_addresses_outside_the_space(vaddr):
    table = _mapped_table()
    with pytest.raises(AddressError):
        table.walk(vaddr)
    with pytest.raises(AddressError):
        table.get_pte(vaddr)


def _entry_accessors(table):
    return {
        "read_entry": lambda addr: table.read_entry(addr),
        "write_entry": lambda addr: table.write_entry(addr, make_present_pte(1)),
        "set_entry_lba_bit": lambda addr: table.set_entry_lba_bit(addr),
    }


@pytest.mark.parametrize("accessor", ["read_entry", "write_entry", "set_entry_lba_bit"])
def test_entry_access_rejects_unknown_table_page(accessor):
    table = _mapped_table()
    access = _entry_accessors(table)[accessor]
    for addr in (0xDEAD000, 0, TABLE_REGION_BASE - 8, TABLE_REGION_BASE + (1 << 30)):
        with pytest.raises(PageTableError, match="no page-table page"):
            access(addr)


@pytest.mark.parametrize("accessor", ["read_entry", "write_entry", "set_entry_lba_bit"])
def test_entry_access_rejects_misaligned_address(accessor):
    table = _mapped_table()
    walk = table.walk(_MAPPED[0])
    access = _entry_accessors(table)[accessor]
    for addr in (walk.pte_addr + 3, walk.pmd_entry_addr + 1, walk.pud_entry_addr + 7):
        before = table.read_entry(addr & ~7)
        with pytest.raises(PageTableError, match="misaligned"):
            access(addr)
        assert table.read_entry(addr & ~7) == before, "a rejected access wrote"


def test_entry_access_by_address_hits_the_walked_entries():
    table = _mapped_table()
    walk = table.walk(_MAPPED[0])
    assert table.read_entry(walk.pte_addr) == walk.pte
    table.set_entry_lba_bit(walk.pmd_entry_addr)
    table.set_entry_lba_bit(walk.pud_entry_addr)
    assert table.read_entry(walk.pmd_entry_addr) & LBA_BIT
    assert table.read_entry(walk.pud_entry_addr) & LBA_BIT
    populated = table.populated_ptes
    table.write_entry(walk.pte_addr, 0)
    assert table.get_pte(_MAPPED[0]) == 0
    assert table.populated_ptes == populated - 1
