"""OS page cache: (file, page index) → resident frame.

Used on the paths the paper describes: ``mmap()`` consults it to decide
whether a PTE can point at a cached page immediately (§IV-B), the fault
paths insert freshly read pages, kpted inserts hardware-handled pages
(§IV-C), and eviction removes entries.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import KernelError
from repro.os.filesystem import File


class PageCache:
    """A dictionary-shaped radix tree."""

    def __init__(self) -> None:
        #: ``(file.ino, page_index)`` → PFN, the key built inline at each
        #: call.  Inode numbers are per-filesystem sequential and identical
        #: across processes; id() here would poison cross-process
        #: checkpoint digests.
        self._pages: Dict[Tuple[int, int], int] = {}
        self.lookups = 0
        self.hits = 0

    def lookup(self, file: File, page_index: int) -> Optional[int]:
        """Return the cached PFN for a file page, or None."""
        self.lookups += 1
        pfn = self._pages.get((file.ino, page_index))
        if pfn is not None:
            self.hits += 1
        return pfn

    def insert(self, file: File, page_index: int, pfn: int) -> None:
        key = (file.ino, page_index)
        existing = self._pages.get(key)
        if existing is not None and existing != pfn:
            raise KernelError(
                f"page cache alias: {file.name}[{page_index}] already cached "
                f"as PFN {existing}, inserting {pfn}"
            )
        self._pages[key] = pfn

    def remove(self, file: File, page_index: int) -> Optional[int]:
        return self._pages.pop((file.ino, page_index), None)

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
