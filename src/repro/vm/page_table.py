"""Four-level radix page table with LBA-augmented entries.

Structure mirrors x86-64 (PGD → PUD → PMD → PT, 512 entries each).  Every
table node occupies one synthetic *physical* page so entries have real
addresses: the SMU receives ``(PUD-entry addr, PMD-entry addr, PTE addr)``
with a page-miss request and later writes those addresses back, exactly as
in §III-C of the paper.

Upper-level entries (PGD/PUD/PMD) are encoded with the same bit layout as
leaf PTEs: PRESENT set, the PFN field holding the child table's page number,
and the LBA bit carrying Table I's "lower levels hold hardware-handled PTEs
awaiting OS metadata sync" meaning.

The host-side lookup is flattened like NDPage's last-level index: every
allocated leaf table is also indexed by ``vaddr >> 21`` together with the
addresses of the PMD and PUD entries above it, so a leaf access is one dict
probe rather than a three-level descent.  Table pages are never freed, so
the index only grows.  The modelled walk (its latency, the entry addresses
the SMU receives) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import AddressError, PageTableError
from repro.mem.address import (
    ENTRIES_PER_TABLE,
    LEVELS,
    PAGE_SHIFT,
    VA_BITS,
    VA_LIMIT,
    level_index,
)
from repro.vm.pte import LBA_BIT, PRESENT_BIT, STATE_MASK, make_present_pte

#: Synthetic physical address region where page-table pages live, far above
#: any data frame (data frames are small integers).  Keeping table pages in
#: their own region simplifies bookkeeping while still giving every entry a
#: unique, stable physical address.
TABLE_REGION_BASE = 1 << 40

LEVEL_NAMES = {3: "PGD", 2: "PUD", 1: "PMD", 0: "PT"}

#: Entry-address arithmetic for the SMU's by-address interface: a table
#: page is page-aligned and holds 8-byte entries.
_PAGE_OFFSET_MASK = (1 << PAGE_SHIFT) - 1
_PAGE_BASE_MASK = ~_PAGE_OFFSET_MASK
_ENTRY_ALIGN_MASK = 7


class _TableNode:
    """One 4 KB page-table page at a given level."""

    __slots__ = ("level", "base_addr", "entries", "children")

    def __init__(self, level: int, base_addr: int):
        self.level = level
        self.base_addr = base_addr
        self.entries: List[int] = [0] * ENTRIES_PER_TABLE
        #: index → child node, only for levels > 0.
        self.children: Dict[int, "_TableNode"] = {}


@dataclass(slots=True)
class WalkResult:
    """Outcome of a page-table walk for one virtual address.

    ``pte`` is the raw leaf value (0 when no leaf table exists).  The three
    entry addresses are exactly the parameters an MMU sends to the SMU with
    a page-miss request (§III-C); they are ``None`` while the corresponding
    table has not been allocated.
    """

    vaddr: int
    pte: int
    pte_addr: Optional[int]
    pmd_entry_addr: Optional[int]
    pud_entry_addr: Optional[int]
    #: Number of table levels actually touched (for walk-latency models).
    levels_touched: int

    @property
    def complete(self) -> bool:
        """True when a leaf table exists for this address."""
        return self.pte_addr is not None


class PageTable:
    """One address space's 4-level page table."""

    def __init__(self, asid: int = 0):
        self.asid = asid
        self._next_table_page = 0
        self.root = self._new_node(LEVELS - 1)
        #: base_addr → node, for physical-address entry access by the SMU.
        self._nodes_by_base: Dict[int, _TableNode] = {self.root.base_addr: self.root}
        #: ``vaddr >> 21`` → (leaf table, PMD-entry address, PUD-entry
        #: address) for every allocated leaf table; filled by
        #: :meth:`_new_leaf`, never shrunk (table pages are never freed).
        self._leaves: Dict[int, Tuple[_TableNode, int, int]] = {}
        #: Counters for the §IV-B space-overhead discussion.
        self.table_pages_allocated = 1
        self.populated_ptes = 0
        #: Simulation-order sanitizer hook (set by SimSanitizer.watch);
        #: the OS and the SMU mutate the same table, which is exactly the
        #: shared-structure race the sanitizer watches for.
        self._sanitizer = None

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def _new_node(self, level: int) -> _TableNode:
        base = TABLE_REGION_BASE + ((self.asid << 28) + self._next_table_page) * (1 << PAGE_SHIFT)
        self._next_table_page += 1
        return _TableNode(level, base)

    def _child(self, node: _TableNode, index: int) -> _TableNode:
        """``node``'s child at ``index``, allocated when missing."""
        child = node.children.get(index)
        if child is None:
            child = self._new_node(node.level - 1)
            node.children[index] = child
            self._nodes_by_base[child.base_addr] = child
            self.table_pages_allocated += 1
            # Upper entry: present, PFN field = child table page number.
            node.entries[index] = make_present_pte(
                child.base_addr >> PAGE_SHIFT, writable=True, user=True
            )
        return child

    def _new_leaf(self, vaddr: int) -> Tuple[_TableNode, int, int]:
        """Allocate the tables down to ``vaddr``'s leaf and index the leaf."""
        if not 0 <= vaddr < VA_LIMIT:
            raise AddressError(f"virtual address {vaddr:#x} outside {VA_BITS}-bit space")
        pud_table = self._child(self.root, (vaddr >> 39) & 511)
        index = (vaddr >> 30) & 511
        pud_entry_addr = pud_table.base_addr + index * 8
        pmd_table = self._child(pud_table, index)
        index = (vaddr >> 21) & 511
        pmd_entry_addr = pmd_table.base_addr + index * 8
        leaf = self._child(pmd_table, index)
        indexed = self._leaves[vaddr >> 21] = (leaf, pmd_entry_addr, pud_entry_addr)
        return indexed

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------
    # repro: hot-path
    def walk(self, vaddr: int) -> WalkResult:
        """Walk the radix tree; never allocates tables.

        An address with a leaf table takes one probe of the leaf index;
        only an address without one descends, to report how far the walk
        got.  This runs once per TLB miss and is the VM layer's hottest
        function.
        """
        indexed = self._leaves.get(vaddr >> 21)
        if indexed is not None:
            leaf, pmd_entry_addr, pud_entry_addr = indexed
            index = (vaddr >> 12) & 511
            return WalkResult(
                vaddr,
                leaf.entries[index],
                leaf.base_addr + index * 8,
                pmd_entry_addr,
                pud_entry_addr,
                4,
            )
        # Index keys are non-negative and below ``VA_LIMIT >> 21``, so an
        # out-of-range address always lands here.
        if not 0 <= vaddr < VA_LIMIT:
            raise AddressError(f"virtual address {vaddr:#x} outside {VA_BITS}-bit space")
        pud_table = self.root.children.get((vaddr >> 39) & 511)
        if pud_table is None:
            return WalkResult(vaddr, 0, None, None, None, 1)
        index = (vaddr >> 30) & 511
        pud_entry_addr = pud_table.base_addr + index * 8
        pmd_table = pud_table.children.get(index)
        if pmd_table is None:
            return WalkResult(vaddr, 0, None, None, pud_entry_addr, 2)
        pmd_entry_addr = pmd_table.base_addr + ((vaddr >> 21) & 511) * 8
        return WalkResult(vaddr, 0, None, pmd_entry_addr, pud_entry_addr, 3)

    # repro: hot-path
    def get_pte(self, vaddr: int) -> int:
        """Raw leaf PTE value (0 when unmapped).

        One probe of the leaf index, without building a
        :class:`WalkResult`: the OS reads PTEs this way on every eviction,
        install and fault.
        """
        indexed = self._leaves.get(vaddr >> 21)
        if indexed is None:
            if not 0 <= vaddr < VA_LIMIT:
                raise AddressError(
                    f"virtual address {vaddr:#x} outside {VA_BITS}-bit space"
                )
            return 0
        return indexed[0].entries[(vaddr >> 12) & 511]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    # repro: hot-path
    def set_pte(self, vaddr: int, value: int) -> WalkResult:
        """Write the leaf PTE, allocating intermediate tables as needed."""
        if self._sanitizer is not None:
            self._sanitizer.note_write(self)
        indexed = self._leaves.get(vaddr >> 21)
        if indexed is None:
            indexed = self._new_leaf(vaddr)
        leaf, pmd_entry_addr, pud_entry_addr = indexed
        index = (vaddr >> 12) & 511
        entries = leaf.entries
        was_populated = entries[index] != 0
        entries[index] = value
        if value != 0 and not was_populated:
            self.populated_ptes += 1
        elif value == 0 and was_populated:
            self.populated_ptes -= 1
        return WalkResult(
            vaddr,
            value,
            leaf.base_addr + index * 8,
            pmd_entry_addr,
            pud_entry_addr,
            LEVELS,
        )

    def clear_pte(self, vaddr: int) -> int:
        """Zero the leaf PTE; returns the previous value (0 if none)."""
        walk = self.walk(vaddr)
        if not walk.complete:
            return 0
        previous = walk.pte
        if previous != 0:
            self.write_entry(walk.pte_addr, 0)
        return previous

    # ------------------------------------------------------------------
    # physical-address entry access (the SMU's interface)
    # ------------------------------------------------------------------
    def _node_at(self, entry_addr: int) -> _TableNode:
        """The table page holding ``entry_addr``; both address checks."""
        node = self._nodes_by_base.get(entry_addr & _PAGE_BASE_MASK)
        if node is None:
            raise PageTableError(f"no page-table page at address {entry_addr:#x}")
        if entry_addr & _ENTRY_ALIGN_MASK:
            raise PageTableError(f"misaligned entry address {entry_addr:#x}")
        return node

    def read_entry(self, entry_addr: int) -> int:
        if self._sanitizer is not None:
            self._sanitizer.note_read(self)
        node = self._node_at(entry_addr)
        return node.entries[(entry_addr & _PAGE_OFFSET_MASK) >> 3]

    def write_entry(self, entry_addr: int, value: int) -> None:
        if self._sanitizer is not None:
            self._sanitizer.note_write(self)
        node = self._node_at(entry_addr)
        entries = node.entries
        index = (entry_addr & _PAGE_OFFSET_MASK) >> 3
        previous = entries[index]
        entries[index] = value
        if node.level == 0:
            if value != 0 and previous == 0:
                self.populated_ptes += 1
            elif value == 0 and previous != 0:
                self.populated_ptes -= 1

    def set_entry_lba_bit(self, entry_addr: int) -> None:
        """Set the LBA bit of an (upper-level) entry by address (§III-C)."""
        if self._sanitizer is not None:
            self._sanitizer.note_write(self)
        node = self._node_at(entry_addr)
        node.entries[(entry_addr & _PAGE_OFFSET_MASK) >> 3] |= LBA_BIT

    # ------------------------------------------------------------------
    # kpted scan support (§IV-C)
    # ------------------------------------------------------------------
    def mark_sync_pending(self, vaddr: int) -> None:
        """Set LBA bits in the PMD and PUD entries covering ``vaddr``."""
        node = self.root
        for level in range(LEVELS - 1, 0, -1):
            index = level_index(vaddr, level)
            child = node.children.get(index)
            if child is None:
                raise PageTableError(
                    f"mark_sync_pending({vaddr:#x}): level {LEVEL_NAMES[level]} missing"
                )
            if level in (2, 1):  # PUD and PMD entries carry the marker
                node.entries[index] |= LBA_BIT
            node = child

    def collect_pending_sync(self) -> "ScanReport":
        """One kpted scan pass: find PTEs in RESIDENT_PENDING_SYNC state.

        Implements the paper's pruned scan: a PUD/PMD entry whose LBA bit is
        clear prunes everything below it; set bits are cleared *before*
        descending (the paper's ordering guarantee).  Returns the found PTEs
        plus visit counts for cost accounting.
        """
        report = ScanReport()
        pending = report.pending
        for pgd_index, pud_table in sorted(self.root.children.items()):
            for pud_index in list(pud_table.children.keys()):
                report.upper_visited += 1
                if not pud_table.entries[pud_index] & LBA_BIT:
                    continue
                pud_table.entries[pud_index] &= ~LBA_BIT
                pmd_table = pud_table.children[pud_index]
                for pmd_index in list(pmd_table.children.keys()):
                    report.upper_visited += 1
                    if not pmd_table.entries[pmd_index] & LBA_BIT:
                        continue
                    pmd_table.entries[pmd_index] &= ~LBA_BIT
                    leaf = pmd_table.children[pmd_index]
                    # The whole leaf in one pass: PRESENT and LBA both set
                    # is RESIDENT_PENDING_SYNC.
                    vpn_base = self._vpn_of(pgd_index, pud_index, pmd_index, 0)
                    base_addr = leaf.base_addr
                    pending.extend(
                        [
                            (vpn_base | pte_index, base_addr + pte_index * 8)
                            for pte_index, value in enumerate(leaf.entries)
                            if value & STATE_MASK == STATE_MASK
                        ]
                    )
                    report.ptes_visited += ENTRIES_PER_TABLE
        return report

    @staticmethod
    def _vpn_of(pgd_index: int, pud_index: int, pmd_index: int, pte_index: int) -> int:
        return (
            (pgd_index << 27) | (pud_index << 18) | (pmd_index << 9) | pte_index
        )

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def iter_populated(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(vpn, pte_value)`` for every non-zero leaf entry."""
        for pgd_index, pud_table in sorted(self.root.children.items()):
            for pud_index, pmd_table in sorted(pud_table.children.items()):
                for pmd_index, leaf in sorted(pmd_table.children.items()):
                    for pte_index in range(ENTRIES_PER_TABLE):
                        value = leaf.entries[pte_index]
                        if value != 0:
                            yield self._vpn_of(
                                pgd_index, pud_index, pmd_index, pte_index
                            ), value

    def resident_pages(self) -> int:
        """Number of present leaf PTEs."""
        return sum(1 for _, value in self.iter_populated() if value & PRESENT_BIT)


class ScanReport:
    """Result of one kpted scan pass over a page table."""

    def __init__(self) -> None:
        self.pending: List[Tuple[int, int]] = []  # (vpn, pte_addr)
        self.upper_visited = 0
        self.ptes_visited = 0

    @property
    def found(self) -> int:
        return len(self.pending)
