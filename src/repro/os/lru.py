"""Resident-page tracking: the OS page descriptors, LRU lists and rmap.

``PageInfo`` is the model's ``struct page``: which process/VMA/file page a
frame holds, plus LRU state.  The reverse map is simply the descriptor's
back-pointers (one mapping per page — the model, like the paper's prototype,
does not share file pages across address spaces; see §V).

Reclaim approximates Linux's two-list clock (the paper argues its 1-second
kpted period is safe because a full LRU rotation takes ≥10 s): pages enter
the *inactive* list, promotion to *active* happens on a touch, and victims
are taken from the inactive head with one second chance.

:class:`LruLists` is the default :class:`repro.os.reclaim.ReclaimPolicy`
(registered as ``"clock"``); alternative policies live in
:mod:`repro.os.reclaim` and are selected via
``ControlPlaneConfig.reclaim_policy``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.errors import KernelError
from repro.os.filesystem import File
from repro.os.reclaim import ReclaimPolicy, register_reclaim_policy
from repro.os.vma import Vma


@dataclass
class PageInfo:
    """Descriptor of one resident frame (the model's ``struct page``)."""

    pfn: int
    process: Any
    vma: Vma
    vaddr: int
    file: Optional[File]
    file_page: Optional[int]
    #: Set while on the active list.
    active: bool = False
    #: Second-chance/reference bit.
    referenced: bool = False
    dirty: bool = False
    #: Pinned frames are never selected as reclaim victims (DMA targets,
    #: kernel-held pages); every reclaim policy skips them.
    pinned: bool = False
    #: Reverse map beyond the primary mapping: additional (process, vma,
    #: vaddr) triples created when another VMA maps the cached page.
    extra_mappings: List[Any] = field(default_factory=list)

    @property
    def vpn(self) -> int:
        return self.vaddr >> 12

    @property
    def mapcount(self) -> int:
        return 1 + len(self.extra_mappings)


@register_reclaim_policy("clock")
class LruLists(ReclaimPolicy):
    """Active/inactive lists with second-chance reclaim (the default)."""

    def __init__(self) -> None:
        super().__init__()
        self._inactive: "OrderedDict[int, PageInfo]" = OrderedDict()
        self._active: "OrderedDict[int, PageInfo]" = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._inactive) + len(self._active)

    @property
    def inactive_count(self) -> int:
        return len(self._inactive)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def contains(self, pfn: int) -> bool:
        return pfn in self._inactive or pfn in self._active

    def get(self, pfn: int) -> Optional[PageInfo]:
        return self._inactive.get(pfn) or self._active.get(pfn)

    def tracked_pfns(self) -> List[int]:
        return sorted(list(self._inactive) + list(self._active))

    # ------------------------------------------------------------------
    def insert(self, page: PageInfo) -> None:
        """New resident page enters the inactive tail."""
        pfn = page.pfn
        if pfn in self._inactive or pfn in self._active:
            raise KernelError(f"PFN {pfn} already on an LRU list")
        page.active = False
        page.referenced = False
        self._inactive[pfn] = page
        self.insertions += 1

    def touch(self, pfn: int) -> None:
        """Mark referenced; promote inactive→active on second touch."""
        page = self._inactive.get(pfn)
        if page is not None:
            if page.referenced:
                del self._inactive[pfn]
                page.active = True
                # The promotion consumes the reference: a later demotion
                # must not arrive back on the inactive list with a second
                # chance it never earned.
                page.referenced = False
                self._active[pfn] = page
            else:
                page.referenced = True
            return
        page = self._active.get(pfn)
        if page is not None:
            page.referenced = True

    def remove(self, pfn: int) -> Optional[PageInfo]:
        """Take a page off the lists (unmap/munmap path)."""
        page = self._inactive.pop(pfn, None)
        if page is None:
            page = self._active.pop(pfn, None)
        return page

    # ------------------------------------------------------------------
    def select_victims(self, count: int) -> List[PageInfo]:
        """Pick up to ``count`` reclaim victims (inactive head, second chance).

        Referenced inactive pages get one more trip around the list; if the
        inactive list drains, the active head is demoted and considered.
        Pinned pages rotate back untouched.
        """
        victims: List[PageInfo] = []
        inactive = self._inactive
        active = self._active
        rotations = 0
        limit = 2 * (len(inactive) + len(active)) + count
        while len(victims) < count and rotations < limit:
            rotations += 1
            if inactive:
                pfn, page = inactive.popitem(last=False)
                if page.pinned:
                    inactive[pfn] = page
                    continue
                if page.referenced:
                    page.referenced = False
                    inactive[pfn] = page  # second chance: back to tail
                    continue
                victims.append(page)
            elif active:
                pfn, page = active.popitem(last=False)
                page.active = False
                page.referenced = False
                inactive[pfn] = page  # demote, next pass may take it
            else:
                break
        self.reclaims += len(victims)
        return victims
