"""Physical and logical cores with SMT issue-slot sharing.

The model's SMT rule (used for the paper's Figure 16 experiment):

* a logical core actively *issuing* (user or kernel execution) halves — more
  precisely, multiplies by ``smt_share_factor`` — its sibling's throughput;
* a logical core whose pipeline is **stalled** on a hardware page miss
  (HWDP behaviour, §VI-C "Polling vs. Context Switching") occupies the
  thread context but issues nothing, so the sibling runs at full speed;
* an **idle** logical core (its thread context-switched out waiting for
  I/O, the OSDP behaviour) likewise gives the sibling full speed — but in
  OSDP the fault path itself executes kernel instructions on the core
  first, which both consumes issue slots and pollutes the shared caches.

Pollution state lives on the *physical* core because L1/L2 and the branch
predictor are shared between hyperthreads.
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional

from repro.config import CpuConfig
from repro.cpu.pollution import PollutionState
from repro.errors import ConfigError
from repro.sim import Simulator
from repro.vm.mmu import Mmu


class CoreState(enum.Enum):
    IDLE = "idle"  # no thread issuing (parked, or context-switched out)
    USER = "user"  # issuing user instructions
    KERNEL = "kernel"  # issuing kernel instructions
    STALLED = "stalled"  # pipeline stalled on a hardware page miss


class LogicalCore:
    """One hardware thread: MMU + issue state + bound software thread."""

    def __init__(self, sim: Simulator, physical: "PhysicalCore", lane: int):
        self.sim = sim
        self.physical = physical
        self.lane = lane
        self.core_id = physical.core_id * physical.config.smt_ways + lane
        self.mmu = Mmu(sim, self.core_id)
        self.state = CoreState.IDLE
        self.bound_thread: Optional[Any] = None
        #: The physical core's pollution state (L1/L2 and the branch
        #: predictor are shared between hyperthreads).  A plain attribute:
        #: every compute quantum and kernel phase reads it.
        self.pollution: PollutionState = physical.pollution
        self._smt_share = physical.config.smt_share_factor
        #: Sibling lanes, cached on first :meth:`siblings` call (the
        #: physical core is still appending lanes while we construct).
        self._siblings: Optional[tuple] = None

    # ------------------------------------------------------------------
    def bind(self, thread: Any) -> None:
        """Pin a software thread to this logical core (1:1 in this model)."""
        if self.bound_thread is not None:
            raise ConfigError(
                f"logical core {self.core_id} already runs thread "
                f"{self.bound_thread.name!r}; the model pins one thread per "
                "logical core (as the paper's experiments do)"
            )
        self.bound_thread = thread

    @property
    def issuing(self) -> bool:
        return self.state in (CoreState.USER, CoreState.KERNEL)

    def siblings(self) -> tuple:
        """The other lanes of this physical core."""
        siblings = self._siblings
        if siblings is None:
            siblings = self._siblings = tuple(
                lane for lane in self.physical.lanes if lane is not self
            )
        return siblings

    def smt_factor(self) -> float:
        """Throughput multiplier from SMT contention, for this logical core.

        :meth:`repro.cpu.thread.ThreadContext.compute` inlines this test.
        """
        for lane in self.siblings():
            state = lane.state
            if state is CoreState.USER or state is CoreState.KERNEL:
                return self._smt_share
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LogicalCore {self.core_id} {self.state.value}>"


class PhysicalCore:
    """One physical core: SMT lanes + shared pollution state."""

    def __init__(self, sim: Simulator, config: CpuConfig, core_id: int):
        self.sim = sim
        self.config = config
        self.core_id = core_id
        self.pollution = PollutionState(config)
        self.lanes: List[LogicalCore] = [
            LogicalCore(sim, self, lane) for lane in range(config.smt_ways)
        ]


class CpuComplex:
    """All cores of the socket."""

    def __init__(self, sim: Simulator, config: CpuConfig):
        self.sim = sim
        self.config = config
        self.physical_cores = [
            PhysicalCore(sim, config, core_id) for core_id in range(config.physical_cores)
        ]
        #: ``(tlb, its VPN map)`` for every logical core, in core order:
        #: the shootdown target set.
        self._tlbs = tuple(
            (lane.mmu.tlb, lane.mmu.tlb._map) for lane in self.logical_cores
        )

    @property
    def logical_cores(self) -> List[LogicalCore]:
        return [lane for core in self.physical_cores for lane in core.lanes]

    def logical_core(self, index: int) -> LogicalCore:
        cores = self.logical_cores
        if not 0 <= index < len(cores):
            raise ConfigError(f"logical core index {index} out of range")
        return cores[index]

    # repro: hot-path
    def tlb_shootdown(self, vpn: int) -> int:
        """Invalidate a translation everywhere; returns cores that had it.

        Only the TLBs that hold ``vpn`` are asked: an eviction usually
        finds it in one or two of them.
        """
        count = 0
        for tlb, cached in self._tlbs:
            if vpn in cached:
                tlb.invalidate(vpn)
                count += 1
        return count
