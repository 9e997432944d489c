"""Per-thread performance counters (the model's PMU).

Mirrors what the paper measures with the hardware PMU: user/kernel retired
instructions and cycles, user-level miss events, page-fault counts and
latencies by handling kind (Figures 4, 12, 14, 15).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.sim import StatAccumulator


class PerfCounters:
    """Counters accumulated by one thread (attributable to one context)."""

    def __init__(self, name: str = "thread"):
        self.name = name
        self.user_instructions = 0.0
        self.user_cycles = 0.0
        self.kernel_instructions = 0.0
        self.kernel_cycles = 0.0
        #: Cycles the pipeline spent stalled on hardware page misses.
        self.stall_cycles = 0.0
        #: Cycles spent context-switched out waiting for I/O.
        self.blocked_cycles = 0.0
        #: User-level miss events by kind (l1d_miss, llc_miss, ...).
        self.miss_events: Dict[str, float] = defaultdict(float)
        #: Page-miss counts by handling kind (TranslationKind.value).
        self.translations: Dict[str, int] = defaultdict(int)
        #: Miss-handling latency by handling kind.
        self.miss_latency: Dict[str, StatAccumulator] = {}
        #: Completed workload operations (driver-defined unit).
        self.operations = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter (start of a measurement window).

        Experiments call this after setup (mmap population, pre-warm) so
        control-path costs do not contaminate steady-state measurements —
        the paper likewise measures after its one-time 64 GB mmap.
        """
        self.__init__(self.name)

    # ------------------------------------------------------------------
    def record_translation(self, kind: str, latency_ns: float = 0.0) -> None:
        self.translations[kind] += 1
        if latency_ns > 0.0:
            stat = self.miss_latency.get(kind)
            if stat is None:
                stat = self.miss_latency[kind] = StatAccumulator(f"{self.name}:{kind}")
            stat.add(latency_ns)

    # ------------------------------------------------------------------
    @property
    def user_ipc(self) -> float:
        """User IPC over *user* cycles only — what the paper's PMU reports."""
        return self.user_instructions / self.user_cycles if self.user_cycles else 0.0

    @property
    def total_instructions(self) -> float:
        return self.user_instructions + self.kernel_instructions

    def misses_per_kinstr(self, event: str) -> float:
        if not self.user_instructions:
            return 0.0
        return self.miss_events[event] / (self.user_instructions / 1000.0)

    # ------------------------------------------------------------------
    def merge(self, other: "PerfCounters") -> None:
        """Fold ``other`` into this one (aggregate across threads)."""
        self.user_instructions += other.user_instructions
        self.user_cycles += other.user_cycles
        self.kernel_instructions += other.kernel_instructions
        self.kernel_cycles += other.kernel_cycles
        self.stall_cycles += other.stall_cycles
        self.blocked_cycles += other.blocked_cycles
        self.operations += other.operations
        for event, count in other.miss_events.items():
            self.miss_events[event] += count
        for kind, count in other.translations.items():
            self.translations[kind] += count
        for kind, stat in other.miss_latency.items():
            mine = self.miss_latency.get(kind)
            if mine is None:
                mine = self.miss_latency[kind] = StatAccumulator(f"merged:{kind}")
            mine.extend(stat.samples)


def aggregate(counters) -> PerfCounters:
    """Merge an iterable of :class:`PerfCounters` into a fresh one."""
    total = PerfCounters("aggregate")
    for counter in counters:
        total.merge(counter)
    return total
