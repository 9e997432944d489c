"""Unified metrics registry: one namespace over every component's counters.

The simulator's components each keep their own tallies — the kernel's
:class:`~repro.sim.trace.Counter`, the PMSHR's ``stats`` bag, the NVMe
device's totals, the SMU's attribute counters.  Reading a run used to mean
knowing where each bag lives.  A :class:`MetricsRegistry` supersedes that
scatter as the *query surface*: every source registers under a dotted name
(``kernel.fault.major``, ``smu0.pmshr.coalesced``, ``device.reads``) and
:meth:`collect` snapshots them all into one flat, JSON-ready dict.

Sources keep their bags — update paths are untouched, so registering a
system for metrics perturbs nothing — and lazily evaluate at collect time,
so the registry costs nothing during the run.

:func:`system_metrics` wires a registry for a fully built
:class:`repro.core.system.System`; the system builder attaches one to every
system as ``system.metrics``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple


class MetricsRegistry:
    """Named, lazily-evaluated metric sources with one flat collect()."""

    def __init__(self, label: str = "system"):
        self.label = label
        #: (prefix, callable returning a flat dict of leaf values).
        self._sources: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []
        self._names = set()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _claim(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"metric source {name!r} registered twice")
        self._names.add(name)

    def register_counter(self, name: str, counter: Any) -> None:
        """A :class:`repro.sim.trace.Counter`; leaves are its tallies."""
        self._claim(name)
        self._sources.append((name, counter.as_dict))

    def register_stat(self, name: str, stat: Any) -> None:
        """A :class:`repro.sim.trace.StatAccumulator`; leaves are its
        summary fields (count/mean/min/max/stddev, and p50/p99 once it
        has a sample)."""
        self._claim(name)
        self._sources.append((name, stat.summary))

    def register_gauge(self, name: str, read: Callable[[], Any]) -> None:
        """A single scalar read at collect time."""
        self._claim(name)
        self._sources.append((name, lambda: {"": read()}))

    def register_values(self, name: str, read: Callable[[], Dict[str, Any]]) -> None:
        """A callable producing a flat dict of leaves at collect time."""
        self._claim(name)
        self._sources.append((name, read))

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """Snapshot every source into one flat ``dotted.name -> value`` map."""
        snapshot: Dict[str, Any] = {}
        for prefix, read in self._sources:
            for leaf, value in read().items():
                snapshot[f"{prefix}.{leaf}" if leaf else prefix] = value
        return snapshot

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(
            {"label": self.label, "metrics": self.collect()},
            indent=indent,
            sort_keys=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {self.label!r} sources={len(self._sources)}>"


# ----------------------------------------------------------------------
# wiring for a built System
# ----------------------------------------------------------------------
def system_metrics(system: Any, label: str = "system") -> MetricsRegistry:
    """Build the unified registry for one simulated machine.

    Covers the kernel counter bag, per-SMU pipeline counters and PMSHR
    stats, the SMU host controller, free-page queues, the NVMe device, the
    block-I/O stack, and the simulation engine itself.
    """
    registry = MetricsRegistry(label)
    registry.register_counter("kernel", system.kernel.counters)
    registry.register_gauge("sim.events_dispatched", lambda: system.sim.events_dispatched)
    registry.register_gauge("sim.now_ns", lambda: system.sim.now)

    device = system.device
    registry.register_values(
        "device",
        lambda: {
            "reads_completed": device.reads_completed,
            "writes_completed": device.writes_completed,
            "read_errors": device.read_errors,
            "write_errors": device.write_errors,
            "timeouts": device.timeouts,
        },
    )
    registry.register_stat("device.read_time_ns", device.read_device_time)
    registry.register_stat("device.write_time_ns", device.write_device_time)

    blockio = system.kernel.blockio
    registry.register_values(
        "blockio",
        lambda: {
            "reads_submitted": blockio.reads_submitted,
            "writes_submitted": blockio.writes_submitted,
            "read_errors": blockio.read_errors,
            "write_errors": blockio.write_errors,
        },
    )

    for queue_index, queue in enumerate(system.kernel.iter_free_queues()):
        registry.register_counter(f"free_queue{queue_index}", queue.stats)
        registry.register_gauge(
            f"free_queue{queue_index}.occupancy", lambda q=queue: q.occupancy
        )

    smus = system.smu_complex.smus if system.smu_complex is not None else []
    for smu in smus:
        prefix = f"smu{smu.socket_id}"
        registry.register_values(
            prefix,
            lambda s=smu: {
                "misses_handled": s.misses_handled,
                "misses_failed": s.misses_failed,
                "anon_zero_fills": s.anon_zero_fills,
                "io_timeouts": s.io_timeouts,
                "io_errors": s.io_errors,
                "io_error_failures": s.io_error_failures,
            },
        )
        registry.register_counter(f"{prefix}.pmshr", smu.pmshr.stats)
        registry.register_gauge(
            f"{prefix}.pmshr.outstanding", lambda s=smu: s.pmshr.outstanding
        )
        registry.register_values(
            f"{prefix}.host",
            lambda s=smu: {
                "commands_issued": s.host.commands_issued,
                "completions_snooped": s.host.completions_snooped,
                "sq_backpressure_waits": s.host.sq_backpressure_waits,
            },
        )
        registry.register_stat(f"{prefix}.before_device_ns", smu.before_device_stat)
        registry.register_stat(f"{prefix}.after_device_ns", smu.after_device_stat)

    sw_pmshr = system.kernel.fault_handler.sw_pmshr
    if sw_pmshr is not None:
        registry.register_counter("swdp.pmshr", sw_pmshr.stats)
    return registry


# ----------------------------------------------------------------------
# wiring for one experiment run (host-side supervision, not a simulator)
# ----------------------------------------------------------------------
def run_metrics(supervision: Dict[str, int], cache: Any = None) -> MetricsRegistry:
    """The run-level registry: supervision tallies plus cell-cache health.

    Covers the engine's supervisor counters (``supervision.retries``,
    ``supervision.timeouts``, ``supervision.worker_deaths``,
    ``supervision.warm_cells``, …) and — when a cache is in play — its
    hit/miss/write tallies including ``cache.corrupt``, the count of
    quarantined entries.  These are host-side execution metrics: they never
    touch, and are never touched by, simulated time.
    """
    registry = MetricsRegistry("run")
    registry.register_values("supervision", lambda: dict(supervision))
    if cache is not None:
        registry.register_counter("cache", cache.stats)
    return registry
