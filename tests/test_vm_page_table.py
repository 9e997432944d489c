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
from repro.vm.page_table import TABLE_REGION_BASE, ScanReport, WalkResult
from repro.vm.pte import LBA_BIT, STATE_MASK

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


# ----------------------------------------------------------------------
# the leaf index against a plain radix descent
# ----------------------------------------------------------------------
class _RadixReference:
    """A 4-level radix table walked by descending every level on every
    access: what :class:`PageTable` computes without its leaf index.

    Table pages are numbered in allocation order from
    ``TABLE_REGION_BASE``, like ``PageTable(asid=0)``'s, so entry addresses
    must agree exactly.
    """

    _SHIFTS = ((2, 39), (1, 30), (0, 21))

    def __init__(self):
        self.pages = 0
        self.populated = 0
        self.by_base = {}
        self.root = self._node()

    def _node(self):
        node = {"base": TABLE_REGION_BASE + self.pages * PAGE, "entries": [0] * 512,
                "children": {}, "leaf": False}
        self.pages += 1
        self.by_base[node["base"]] = node
        return node

    @staticmethod
    def _check(vaddr):
        if not 0 <= vaddr < VA_LIMIT:
            raise AddressError(f"virtual address {vaddr:#x} outside 48-bit space")

    def walk(self, vaddr):
        self._check(vaddr)
        node, upper, touched = self.root, {}, 1
        for below, shift in self._SHIFTS:
            index = (vaddr >> shift) & 511
            if below < 2:  # a PUD (below=1) or PMD (below=0) entry
                upper[below] = node["base"] + index * 8
            child = node["children"].get(index)
            if child is None:
                return WalkResult(vaddr, 0, None, upper.get(0), upper.get(1), touched)
            node, touched = child, touched + 1
        index = (vaddr >> 12) & 511
        return WalkResult(vaddr, node["entries"][index], node["base"] + index * 8,
                          upper[0], upper[1], 4)

    def get_pte(self, vaddr):
        return self.walk(vaddr).pte

    def set_pte(self, vaddr, value):
        self._check(vaddr)
        node = self.root
        for below, shift in self._SHIFTS:
            index = (vaddr >> shift) & 511
            child = node["children"].get(index)
            if child is None:
                child = node["children"][index] = self._node()
                child["leaf"] = below == 0
                node["entries"][index] = make_present_pte(child["base"] >> PAGE_SHIFT)
            node = child
        walk = self.walk(vaddr)
        self.write_entry(walk.pte_addr, value)
        walk.pte = value
        return walk

    def clear_pte(self, vaddr):
        walk = self.walk(vaddr)
        if walk.pte_addr is not None and walk.pte != 0:
            self.write_entry(walk.pte_addr, 0)
        return walk.pte

    def _node_at(self, addr):
        node = self.by_base.get(addr & ~(PAGE - 1))
        if node is None:
            raise PageTableError(f"no page-table page at address {addr:#x}")
        if addr & 7:
            raise PageTableError(f"misaligned entry address {addr:#x}")
        return node

    def read_entry(self, addr):
        return self._node_at(addr)["entries"][(addr & (PAGE - 1)) >> 3]

    def write_entry(self, addr, value):
        node = self._node_at(addr)
        index = (addr & (PAGE - 1)) >> 3
        previous, node["entries"][index] = node["entries"][index], value
        if node["leaf"]:
            self.populated += (value != 0) - (previous != 0)


#: 2 MB regions, each one leaf table: two sharing a PMD table, one under
#: another PUD entry, one in another PGD slot, and the first and last
#: leaves of the address space.
_LEAF_REGIONS = [
    0x10_0000_0000, 0x10_0020_0000, 0x10_4000_0000,
    0x4000_0000_0000, 0, VA_LIMIT - (1 << 21),
]
_OUTSIDE = [-1, -PAGE, VA_LIMIT, VA_LIMIT + PAGE, 1 << 64]
_PTE_VALUES = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=500).map(make_present_pte),
    st.integers(min_value=0, max_value=500).map(make_lba_pte),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


def _outcome(call):
    try:
        return ("ok", call())
    except (AddressError, PageTableError) as exc:
        return (type(exc).__name__, str(exc))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_property_leaf_index_matches_radix_descent(data):
    """Random set/get/walk/clear/read/write sequences over 1-4 leaf tables,
    unallocated upper levels and out-of-range addresses give the same
    results, errors and final table contents as the plain descent."""
    regions = data.draw(
        st.lists(st.sampled_from(_LEAF_REGIONS), min_size=1, max_size=4, unique=True)
    )

    def in_region(bases):
        return st.builds(
            lambda base, page, offset: base + page * PAGE + offset,
            st.sampled_from(bases),
            st.integers(min_value=0, max_value=511),
            st.sampled_from([0, 8, 0x123, PAGE - 1]),
        )

    mapped = in_region(regions)
    anywhere = st.one_of(in_region(_LEAF_REGIONS), st.sampled_from(_OUTSIDE))
    table, reference = PageTable(), _RadixReference()
    entry_addrs = [TABLE_REGION_BASE]
    bogus = [0xDEAD000, TABLE_REGION_BASE - 8, TABLE_REGION_BASE + (1 << 30)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        op = data.draw(st.sampled_from(["set", "set", "get", "walk", "clear",
                                        "read", "write"]))
        if op in ("set", "get", "walk", "clear"):
            vaddr = data.draw(mapped if op == "set" else anywhere)
            args = (vaddr, data.draw(_PTE_VALUES)) if op == "set" else (vaddr,)
            method = {"set": "set_pte", "get": "get_pte", "walk": "walk",
                      "clear": "clear_pte"}[op]
        else:
            addr = data.draw(st.one_of(
                st.sampled_from(entry_addrs).map(lambda a: a + data.draw(
                    st.sampled_from([0, 0, 0, 1, 4]))),
                st.sampled_from(bogus),
            ))
            method = "read_entry" if op == "read" else "write_entry"
            args = (addr,) if op == "read" else (addr, data.draw(_PTE_VALUES))
        got = _outcome(lambda: getattr(table, method)(*args))
        want = _outcome(lambda: getattr(reference, method)(*args))
        assert got == want, (method, args)
        if want[0] == "ok" and isinstance(want[1], WalkResult):
            entry_addrs.extend(
                addr for addr in (want[1].pte_addr, want[1].pmd_entry_addr,
                                  want[1].pud_entry_addr) if addr is not None
            )
    assert table.populated_ptes == reference.populated
    assert table.table_pages_allocated == reference.pages
    for base, node in reference.by_base.items():
        assert [table.read_entry(base + 8 * i) for i in range(512)] == node["entries"]
    assert list(table.iter_populated()) == [
        (vpn, value) for vpn, value in _reference_populated(reference)
    ]


def _reference_populated(reference):
    """``iter_populated`` over the reference: PGD slots sorted, as PageTable."""
    for i3, pud in sorted(reference.root["children"].items()):
        for i2, pmd in sorted(pud["children"].items()):
            for i1, leaf in sorted(pmd["children"].items()):
                for i0, value in enumerate(leaf["entries"]):
                    if value:
                        yield (i3 << 27) | (i2 << 18) | (i1 << 9) | i0, value


def _reference_scan(table):
    """The kpted scan as a per-entry loop: LBA bits cleared before each
    descent, every PTE of a marked leaf read one at a time."""
    report = ScanReport()
    for pgd_index, pud_table in sorted(table.root.children.items()):
        for pud_index in list(pud_table.children):
            report.upper_visited += 1
            if not pud_table.entries[pud_index] & LBA_BIT:
                continue
            pud_table.entries[pud_index] &= ~LBA_BIT
            pmd_table = pud_table.children[pud_index]
            for pmd_index in list(pmd_table.children):
                report.upper_visited += 1
                if not pmd_table.entries[pmd_index] & LBA_BIT:
                    continue
                pmd_table.entries[pmd_index] &= ~LBA_BIT
                leaf = pmd_table.children[pmd_index]
                for pte_index in range(ENTRIES_PER_TABLE):
                    value = leaf.entries[pte_index]
                    report.ptes_visited += 1
                    if value & 1 and value & LBA_BIT:
                        vpn = (pgd_index << 27) | (pud_index << 18) | (pmd_index << 9)
                        report.pending.append(
                            (vpn | pte_index, leaf.base_addr + pte_index * 8)
                        )
    return report


@given(
    pages=st.lists(
        st.tuples(
            st.sampled_from(_LEAF_REGIONS[:4]),
            st.integers(min_value=0, max_value=511),
            st.sampled_from(["pending", "resident", "lba", "zero", "mark-only"]),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_scan_matches_per_entry_loop(pages):
    """Pending order, visit counts and the PUD/PMD LBA bits cleared equal the
    per-entry loop's, with marks on leaves that hold nothing pending."""
    tables = [PageTable(), PageTable()]
    for table in tables:
        for i, (base, page, kind) in enumerate(pages):
            vaddr = base + page * PAGE
            if kind == "resident":
                table.set_pte(vaddr, make_present_pte(i + 1))
            elif kind == "zero":
                table.set_pte(vaddr, 0)
            elif kind == "mark-only":
                table.set_pte(vaddr, make_present_pte(i + 1))
                table.mark_sync_pending(vaddr)
            else:
                table.set_pte(vaddr, make_lba_pte(i + 1))
                if kind == "pending":
                    walk = table.walk(vaddr)
                    table.write_entry(walk.pte_addr, hw_install_frame(walk.pte, i + 1))
                    table.mark_sync_pending(vaddr)
    fast, slow = tables[0].collect_pending_sync(), _reference_scan(tables[1])
    assert fast.pending == slow.pending
    assert (fast.ptes_visited, fast.upper_visited) == (slow.ptes_visited, slow.upper_visited)
    assert all(value & STATE_MASK == STATE_MASK
               for value in (tables[0].read_entry(addr) for _, addr in fast.pending))
    for base in tables[1]._nodes_by_base:
        assert [tables[0].read_entry(base + 8 * i) for i in range(512)] == [
            tables[1].read_entry(base + 8 * i) for i in range(512)
        ]
