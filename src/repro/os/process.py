"""Process contexts: page table + VMA layout + fork semantics."""

from __future__ import annotations

from typing import Any, Optional

from repro.os.vma import AddressSpaceLayout, Vma
from repro.vm.page_table import PageTable
from repro.vm.pte import PteStatus, pte_status, revert_to_normal


def _allocate_pid(kernel: Any) -> int:
    """Next PID from the *kernel's* counter (not a module global).

    PIDs seed ASIDs, and ASIDs place page-table pages in the simulated
    address map — a process-wide counter would make a cell's state (and
    its checkpoint digest) depend on which cells ran before it in the
    same host process.
    """
    pid = getattr(kernel, "_next_pid", 1)
    kernel._next_pid = pid + 1
    return pid


class ProcessContext:
    """One address space (the model has no notion of executable images)."""

    def __init__(self, kernel: Any, name: str = "proc", parent: Optional["ProcessContext"] = None):
        self.kernel = kernel
        self.pid = _allocate_pid(kernel)
        self.name = name
        self.parent = parent
        self.page_table = PageTable(asid=self.pid)
        self.layout = AddressSpaceLayout()
        self.terminated = False
        # Processes can be created (or forked) mid-run, after a
        # simulation-order sanitizer attached; register the new page
        # table so SMU/OS writes to it are conflict-checked too.
        sim = getattr(kernel, "sim", None)
        sanitizer = getattr(sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.watch(self.page_table, f"page_table[{name}#{self.pid}]")

    # ------------------------------------------------------------------
    def find_vma(self, vaddr: int) -> Optional[Vma]:
        return self.layout.find(vaddr)

    def fork(self, name: Optional[str] = None) -> "ProcessContext":
        """Fork: child shares nothing; LBA-augmented PTEs revert (paper §V).

        The paper's scheme does not support sharing file mappings across
        address spaces, so on fork every NON_RESIDENT_HW entry in the
        *parent* reverts to a conventional empty PTE whose future miss the
        OS handles; the child starts with empty tables (its mappings are
        re-established by whatever it maps).
        """
        reverted = 0
        for vpn, value in list(self.page_table.iter_populated()):
            if pte_status(value) is PteStatus.NON_RESIDENT_HW:
                self.page_table.set_pte(vpn << 12, revert_to_normal(value))
                reverted += 1
        # Fast-mmap VMAs lose their hardware handling in both parent and child.
        for vma in self.layout.fastmap_vmas():
            vma.drop_fastmap()
        child = ProcessContext(self.kernel, name or f"{self.name}-child", parent=self)
        child._reverted_on_fork = reverted  # introspection for tests
        return child
