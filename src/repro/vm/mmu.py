"""MMU with the paper's extended page-table walker (§III-B).

On a TLB miss the walker inspects the leaf PTE's PRESENT and LBA bits:

* PRESENT — normal translation; fill the TLB.
* not PRESENT, LBA set, SMU attached — *hardware page miss*: the walker
  hands ``(PUD-entry addr, PMD-entry addr, PTE addr, device ID, LBA)`` to
  the SMU and the pipeline stalls until the SMU broadcasts completion.  No
  exception is raised.  If the SMU reports failure (empty free-page queue)
  the walker falls back to a normal exception (§III-C / §IV-D).
* otherwise — raise a page-fault exception into the OS handler (which, in
  SWDP mode, performs the paper's software SMU emulation).

``translate`` is a simulation coroutine: it suspends for walk latency and
for however long miss handling takes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.errors import ProtectionFault, SimulationError
from repro.mem.address import PAGE_SHIFT
from repro.sim import Simulator
from repro.vm.page_table import WalkResult
from repro.vm.pte import (
    LBA_BIT,
    PFN_MASK,
    PFN_SHIFT,
    PRESENT_BIT,
    STATE_MASK,
    WRITABLE_BIT,
    decode_pte,
)
from repro.vm.tlb import Tlb


class TranslationKind(enum.Enum):
    """How a translation was satisfied (used for perf accounting)."""

    TLB_HIT = "tlb-hit"
    WALK = "walk"
    HW_MISS = "hw-miss"
    HW_FALLBACK_FAULT = "hw-fallback-fault"
    OS_FAULT = "os-fault"

    def __init__(self, label: str) -> None:
        #: The member's value as a plain attribute: ``value`` is an enum
        #: property, too slow to read once per simulated access.
        self.label = label


@dataclass(slots=True)
class Translation:
    """Result of one translation."""

    pfn: int
    kind: TranslationKind
    #: End-to-end latency attributed to the miss handling, in ns.
    miss_latency_ns: float = 0.0


#: Signature of the OS fault entry point installed by the system builder:
#: ``handler(thread, vaddr, walk, is_write)`` → generator returning a PFN.
FaultHandler = Callable[..., Generator[Any, Any, int]]


class Mmu:
    """One logical core's MMU: TLB + extended page-table walker."""

    #: Latency of a page-table walk that hits cached table entries.
    WALK_LATENCY_NS = 40.0

    def __init__(self, sim: Simulator, core_id: int, tlb_entries: int = 1536):
        self.sim = sim
        self.core_id = core_id
        self.tlb = Tlb(tlb_entries)
        #: Installed by the system builder.
        self.fault_handler: Optional[FaultHandler] = None
        #: The home SMU (HWDP mode only).
        self.smu: Optional[Any] = None
        #: Walks that entered the hardware path and were coalesced/pending.
        self.hw_misses = 0
        self.hw_fallbacks = 0

    # ------------------------------------------------------------------
    def translate(
        self, thread: Any, vaddr: int, is_write: bool = False
    ) -> Generator[Any, Any, Translation]:
        """Translate ``vaddr`` for ``thread``; suspends while misses resolve."""
        vpn = vaddr >> PAGE_SHIFT
        cached = self.tlb.lookup(vpn)
        if cached is not None:
            pfn, writable = cached
            if is_write and not writable:
                raise ProtectionFault(f"write to read-only page {vpn:#x}")
            return Translation(pfn, TranslationKind.TLB_HIT)

        yield self.WALK_LATENCY_NS
        page_table = thread.process.page_table
        walk = page_table.walk(vaddr)
        pte = walk.pte

        if pte & PRESENT_BIT:
            # Present leaf: the fields the fast path needs are two bit
            # tests away — skip the full decode.
            writable = bool(pte & WRITABLE_BIT)
            if is_write and not writable:
                raise ProtectionFault(f"write to read-only page {vpn:#x}")
            pfn = (pte & PFN_MASK) >> PFN_SHIFT
            self.tlb.fill(vpn, pfn, writable)
            return Translation(pfn, TranslationKind.WALK)

        if pte & STATE_MASK == LBA_BIT and self.smu is not None:
            # NON_RESIDENT_HW: a hardware page miss, the one branch that
            # hands the SMU the decoded storage location.
            decoded = decode_pte(pte)
            started = self.sim.now
            self._check_protection(decoded, vpn, is_write)
            pfn = yield from self.smu.handle_miss(walk, decoded, thread)
            if pfn is not None:
                self.hw_misses += 1
                self.tlb.fill(vpn, pfn, decoded.writable)
                return Translation(
                    pfn, TranslationKind.HW_MISS, miss_latency_ns=self.sim.now - started
                )
            # Free-page queue empty: fall back to a normal exception.
            self.hw_fallbacks += 1
            pfn = yield from self._os_fault(thread, vaddr, walk, is_write)
            self.tlb.fill(vpn, pfn, decoded.writable)
            return Translation(
                pfn,
                TranslationKind.HW_FALLBACK_FAULT,
                miss_latency_ns=self.sim.now - started,
            )

        started = self.sim.now
        pfn = yield from self._os_fault(thread, vaddr, walk, is_write)
        installed = page_table.get_pte(vaddr)
        self.tlb.fill(
            vpn, pfn, bool(installed & WRITABLE_BIT) if installed & PRESENT_BIT else True
        )
        return Translation(pfn, TranslationKind.OS_FAULT, self.sim.now - started)

    # ------------------------------------------------------------------
    def _os_fault(
        self, thread: Any, vaddr: int, walk: WalkResult, is_write: bool
    ) -> Generator[Any, Any, int]:
        """The fault handler's generator itself, not a wrapper around it:
        every resume of a fault path crosses one generator frame fewer."""
        handler = self.fault_handler
        if handler is None:
            raise SimulationError(
                f"MMU {self.core_id}: page fault at {vaddr:#x} but no fault handler installed"
            )
        return handler(thread, vaddr, walk, is_write)

    @staticmethod
    def _check_protection(decoded: Any, vpn: int, is_write: bool) -> None:
        if is_write and not decoded.writable:
            raise ProtectionFault(f"write to read-only page {vpn:#x}")

    # ------------------------------------------------------------------
    def invalidate(self, vpn: int) -> bool:
        return self.tlb.invalidate(vpn)
