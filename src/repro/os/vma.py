"""Virtual memory areas and the extended mmap flags.

The paper extends POSIX ``mmap()`` with a flag selecting hardware-based
demand paging per area (§IV-B).  ``MmapFlags.FASTMAP`` is that flag;
``MAP_POPULATE`` is modelled too because the paper's "ideal" baseline in
Figure 4 uses it to preload everything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import PAGE_SIZE
from repro.errors import KernelError
from repro.mem.address import PAGE_SHIFT, VA_LIMIT, check_vaddr, page_align_up, page_number
from repro.os.filesystem import File


class MmapFlags(enum.Flag):
    NONE = 0
    #: The paper's new flag: LBA-augment this area's PTEs and let the SMU
    #: (or the SW-emulated SMU) handle its page misses.
    FASTMAP = enum.auto()
    #: Preload every page at mmap time (Linux MAP_POPULATE).
    POPULATE = enum.auto()


@dataclass
class Vma:
    """One mapped region of a process's address space."""

    start: int
    num_pages: int
    file: Optional[File]
    file_page_offset: int = 0
    flags: MmapFlags = MmapFlags.NONE
    writable: bool = True
    #: ``FASTMAP in flags``, stored: eviction and the fault path test it on
    #: every page, and ``Flag.__and__`` is Python code.
    is_fastmap: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_fastmap = bool(self.flags & MmapFlags.FASTMAP)

    def drop_fastmap(self) -> None:
        """Hand this area's misses back to the OS (fork, §V)."""
        self.flags &= ~MmapFlags.FASTMAP
        self.is_fastmap = False

    @property
    def end(self) -> int:
        return self.start + self.num_pages * PAGE_SIZE

    @property
    def is_file_backed(self) -> bool:
        return self.file is not None

    def contains(self, vaddr: int) -> bool:
        start = self.start
        return start <= vaddr < start + self.num_pages * PAGE_SIZE

    def file_page_of(self, vaddr: int) -> int:
        """File page index backing ``vaddr``.

        The checks of :meth:`contains` and :func:`page_number` are inlined:
        every file-backed fault and install calls this.
        """
        start = self.start
        if not start <= vaddr < start + self.num_pages * PAGE_SIZE:
            raise KernelError(f"{vaddr:#x} outside VMA [{start:#x}, {self.end:#x})")
        if self.file is None:
            raise KernelError("anonymous VMA has no file pages")
        if vaddr >= VA_LIMIT or start < 0:
            # Both addresses must lie in the VA space, as page_number checks.
            check_vaddr(vaddr)
            check_vaddr(start)
        return self.file_page_offset + ((vaddr >> PAGE_SHIFT) - (start >> PAGE_SHIFT))

    def vaddr_of_file_page(self, file_page: int) -> int:
        """Virtual address mapping ``file_page`` (inverse of file_page_of)."""
        index = file_page - self.file_page_offset
        if not 0 <= index < self.num_pages:
            raise KernelError(f"file page {file_page} not mapped by this VMA")
        return self.start + index * PAGE_SIZE

    def pages(self) -> range:
        """Virtual page numbers covered by this VMA."""
        first = page_number(self.start)
        return range(first, first + self.num_pages)


class AddressSpaceLayout:
    """Per-process VMA list with a bump allocator for mmap placement."""

    #: mmap region base, far from null and from any fixed test mappings.
    MMAP_BASE = 0x10_0000_0000

    def __init__(self) -> None:
        self.vmas: List[Vma] = []
        self._next_mmap = self.MMAP_BASE

    def place(self, length_bytes: int) -> int:
        """Reserve an address range for a new mapping; returns its start."""
        if length_bytes <= 0:
            raise KernelError("mmap length must be positive")
        start = self._next_mmap
        # Guard page between mappings catches off-by-one walkers.
        self._next_mmap += page_align_up(length_bytes) + PAGE_SIZE
        return start

    def insert(self, vma: Vma) -> None:
        for existing in self.vmas:
            if vma.start < existing.end and existing.start < vma.end:
                raise KernelError(
                    f"VMA [{vma.start:#x}, {vma.end:#x}) overlaps "
                    f"[{existing.start:#x}, {existing.end:#x})"
                )
        self.vmas.append(vma)

    def remove(self, vma: Vma) -> None:
        try:
            self.vmas.remove(vma)
        except ValueError:
            raise KernelError("unmapping a VMA that is not mapped") from None

    def find(self, vaddr: int) -> Optional[Vma]:
        for vma in self.vmas:
            if vma.contains(vaddr):
                return vma
        return None

    def fastmap_vmas(self) -> List[Vma]:
        return [vma for vma in self.vmas if vma.is_fastmap]
