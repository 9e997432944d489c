"""Physical frame pool.

A deliberately simple allocator: the OS model's reclaim logic (LRU lists,
watermarks, kswapd-style eviction) lives in :mod:`repro.os.lru`; this module
only tracks which frame numbers are free.  Frames are plain integers
(page-frame numbers, PFNs).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set

from repro.config import MemoryConfig
from repro.errors import OutOfMemoryError, PageTableError


class FramePool:
    """Tracks free/used physical frames with watermark queries."""

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.total_frames = config.total_frames
        #: The (frozen) config's watermarks, mirrored: every fault-path
        #: frame allocation tests the low one.
        self._low_watermark = config.low_watermark
        self._high_watermark = config.high_watermark
        self._free: Deque[int] = deque(range(config.total_frames))
        self._free_set: Set[int] = set(self._free)
        #: Lifetime counters for experiments.
        self.allocations = 0
        self.frees = 0
        #: Simulation-order sanitizer hook (set by SimSanitizer.watch);
        #: ``None`` keeps every mutator at one attribute check.
        self._sanitizer = None

    # ------------------------------------------------------------------
    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def used_frames(self) -> int:
        return self.total_frames - len(self._free)

    @property
    def below_low_watermark(self) -> bool:
        return len(self._free) < self._low_watermark

    @property
    def below_high_watermark(self) -> bool:
        return len(self._free) < self._high_watermark

    # ------------------------------------------------------------------
    def alloc(self) -> int:
        """Allocate one frame; raises :class:`OutOfMemoryError` when empty."""
        if not self._free:
            raise OutOfMemoryError("physical frame pool exhausted")
        if self._sanitizer is not None:
            self._sanitizer.note_write(self)
        pfn = self._free.popleft()
        self._free_set.discard(pfn)
        self.allocations += 1
        return pfn

    def try_alloc(self) -> int:
        """Allocate one frame, or return -1 when the pool is empty."""
        if not self._free:
            return -1
        return self.alloc()

    def alloc_batch(self, count: int) -> List[int]:
        """Allocate up to ``count`` frames (may return fewer)."""
        batch = []
        for _ in range(count):
            if not self._free:
                break
            batch.append(self.alloc())
        return batch

    def free(self, pfn: int) -> None:
        """Return a frame to the pool."""
        if not 0 <= pfn < self.total_frames:
            raise PageTableError(f"PFN {pfn} out of range")
        if pfn in self._free_set:
            raise PageTableError(f"double free of PFN {pfn}")
        if self._sanitizer is not None:
            self._sanitizer.note_write(self)
        self._free.append(pfn)
        self._free_set.add(pfn)
        self.frees += 1
