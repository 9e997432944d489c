"""Process-global observation state for CLI-driven experiment runs.

Experiment cells are plain functions that build their own
:class:`~repro.core.system.System` internally — there is no parameter path
from the CLI down to ``build_system``.  This module provides the bridge:
the experiment engine's inline runner calls :func:`activate` with the
caller's :class:`Observation` for the duration of its cells, and
``build_system`` calls :func:`observe_system` on every machine it finishes
building.  An observation keeps every cell inline and skips cache reads (a
cached payload would emit no spans or metrics).  With no observation
active (the default, and always the case in warm forks and supervised
workers), :func:`observe_system` is a single ``is None`` check.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, system_metrics
from repro.obs.trace import TraceSink


class Observation:
    """One run's worth of observability state: a sink plus metric registries."""

    def __init__(
        self,
        trace: Optional[TraceSink] = None,
        metrics: bool = False,
        sanitize: bool = False,
        on_system: Optional[Any] = None,
    ):
        #: Sink receiving spans/instants from every simulator built while
        #: this observation is active; ``None`` disables span tracing.
        self.trace = trace
        #: Optional ``callback(unit_label, system)`` invoked for every
        #: system built under this observation — the hook the perf harness
        #: uses to reach each cell's simulator (event counts) without
        #: paying for tracing or metrics collection.
        self.on_system = on_system
        #: When true, keep a reference to every built system's registry so
        #: the CLI can dump metrics after the run.
        self.collect_metrics = metrics
        #: When true, attach a fresh
        #: :class:`repro.check.sanitizer.SimSanitizer` to every built
        #: system and keep it for post-run hazard reporting.
        self.sanitize = sanitize
        #: ``(unit_label, registry)`` per observed system, in build order.
        self.registries: List[Tuple[str, MetricsRegistry]] = []
        #: ``(unit_label, sanitizer)`` per observed system, in build order.
        self.sanitizers: List[Tuple[str, Any]] = []
        self._unit: Optional[str] = None
        self._unit_serial = 0

    def set_unit(self, label: Optional[str]) -> None:
        """Name the experiment cell the next built system(s) belong to."""
        self._unit = label

    def next_unit(self) -> str:
        label = self._unit if self._unit is not None else f"unit-{self._unit_serial}"
        self._unit_serial += 1
        return label


_active: Optional[Observation] = None


def activate(observation: Observation) -> None:
    """Install ``observation`` as the process-global one."""
    global _active
    if _active is not None:
        raise RuntimeError("an Observation is already active")
    _active = observation


def deactivate() -> None:
    global _active
    _active = None


def active() -> Optional[Observation]:
    return _active


def observe_system(system: Any) -> None:
    """Hook called by ``build_system`` on every freshly built machine.

    Attaches the active observation's trace sink to the system's simulator
    and registers the system's metrics; a no-op when nothing is active.
    """
    observation = _active
    if observation is None:
        return
    unit = observation.next_unit()
    if observation.trace is not None:
        observation.trace.attach(system.sim, unit)
    if observation.sanitize:
        # Imported lazily: repro.check is an optional dev-time layer and
        # the hot no-observation path must not pay for it.
        from repro.check.sanitizer import SimSanitizer

        sanitizer = SimSanitizer()
        sanitizer.attach(system)
        observation.sanitizers.append((unit, sanitizer))
    if observation.collect_metrics:
        # ``build_system`` attaches a registry to every machine; fall back
        # to building one for systems wired by hand.
        registry = system.metrics
        if registry is None:
            registry = system_metrics(system, label=unit)
        observation.registries.append((unit, registry))
    if observation.on_system is not None:
        observation.on_system(unit, system)
