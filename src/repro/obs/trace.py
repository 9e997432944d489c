"""Miss-lifecycle spans and the :class:`TraceSink` they flow into.

The paper's argument (Figs. 3, 11, 15) is about *where* a page miss spends
its time — exception walk vs. SQ submit vs. device service vs. PTE update.
This module gives every page miss a structured **span**: a begin time, an
end time, an outcome, and a list of typed events ``(time_ns, name,
duration_ns)`` recorded by the components the miss passes through.

Two paths share the vocabulary:

* **OS paths** (OSDP / SWDP / HWDP-fallback) — the span opens at fault
  entry; every ``ThreadContext.kernel_phase`` the handler charges lands in
  the span automatically (``exception_walk``, ``io_submit``,
  ``context_switch_*``, ``metadata_update``, ``return`` …), and the fault
  handler adds the events the phase stream cannot see (``device_service``,
  coalescing markers).
* **HWDP hardware path** — the SMU opens the span when the walker hands it
  the miss and records the pipeline segments of Figure 11(b):
  ``request_cam_lookup``, ``pmshr_allocate`` / ``pmshr_coalesced``,
  ``free_page_fetch``, ``sq_submit``, ``nvme_service``,
  ``completion_snoop``, ``page_table_update``, ``notify_broadcast``.

Components additionally emit **instant events** (PMSHR allocate/release,
SQ doorbells, CQ snoops, NVMe submit/complete, PTE installs, queue
refills) that render as their own Perfetto track.

Zero overhead when disabled: the sink hangs off
:attr:`repro.sim.engine.Simulator.trace`, which defaults to ``None``;
every emission site is guarded by one ``is None`` check and recording
never schedules events or advances simulated time, so a traced run is
byte-identical to an untraced one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.observe import SimObserver

#: One typed span event: ``(sim_time_ns, name, duration_ns)``.  A kernel
#: phase charged inside the span and a segment of the SMU pipeline take the
#: same shape, so :func:`repro.obs.export.span_breakdown` aggregates both.
SpanEvent = Tuple[float, str, float]

#: Span outcomes.
COMPLETED = "completed"
COALESCED = "coalesced"
SPURIOUS = "spurious"
FAILED = "failed"

#: Span paths.
PATH_OSDP = "osdp"
PATH_SWDP = "swdp"
PATH_HWDP = "hwdp"
PATH_HWDP_FALLBACK = "hwdp-fallback"


class MissSpan:
    """The lifecycle of one page miss."""

    __slots__ = (
        "span_id",
        "unit",
        "path",
        "thread",
        "start_ns",
        "end_ns",
        "outcome",
        "pfn",
        "events",
        "attrs",
    )

    def __init__(self, span_id: int, unit: str, path: str, thread: str, start_ns: float):
        self.span_id = span_id
        #: Label of the simulation the span belongs to (one CLI run traces
        #: many independent experiment cells; each gets its own unit).
        self.unit = unit
        self.path = path
        self.thread = thread
        self.start_ns = start_ns
        self.end_ns: Optional[float] = None
        self.outcome: Optional[str] = None
        self.pfn: Optional[int] = None
        self.events: List[SpanEvent] = []
        self.attrs: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def event(self, time_ns: float, name: str, duration_ns: float = 0.0) -> None:
        """Record one typed event (a zero-duration mark or a timed segment)."""
        self.events.append((time_ns, name, duration_ns))

    @property
    def duration_ns(self) -> float:
        return (self.end_ns if self.end_ns is not None else self.start_ns) - self.start_ns

    @property
    def closed(self) -> bool:
        return self.end_ns is not None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (the exporters build on this)."""
        return {
            "span_id": self.span_id,
            "unit": self.unit,
            "path": self.path,
            "thread": self.thread,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "outcome": self.outcome,
            "pfn": self.pfn,
            "events": [list(event) for event in self.events],
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.outcome}" if self.closed else "open"
        return f"<MissSpan #{self.span_id} {self.path} {state} events={len(self.events)}>"


class InstantEvent:
    """A point-in-time component event not tied to one span."""

    __slots__ = ("time_ns", "name", "unit", "args")

    def __init__(self, time_ns: float, name: str, unit: str, args: Dict[str, Any]):
        self.time_ns = time_ns
        self.name = name
        self.unit = unit
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_ns": self.time_ns,
            "name": self.name,
            "unit": self.unit,
            "args": dict(self.args),
        }


class TraceSink(SimObserver):
    """Collects miss spans and instant events from one or more simulations.

    One sink can observe several sequential simulations (the experiments
    CLI traces every cell of a run into one sink); :meth:`attach` switches
    the sink to a new simulator and labels the spans it produces.  A
    simulator has at most one sink: attaching a second raises.  Only
    recording methods are on the hot path and none of them touch the event
    queue — a sink observes, it never participates.
    """

    def __init__(self) -> None:
        self.spans: List[MissSpan] = []
        self.instants: List[InstantEvent] = []
        #: Unit labels in attach order (one per observed simulation).
        self.units: List[str] = []
        self._sim: Optional[Any] = None
        self._unit = "sim"
        self._next_span_id = 0
        self._open_spans = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, sim: Any, unit: Optional[str] = None) -> None:
        """Observe ``sim``; subsequent spans carry the ``unit`` label.

        Registration goes through the unified :meth:`Simulator.attach`
        observer door; :meth:`on_attach` does the engine-side wiring.
        """
        if unit is None:
            unit = f"sim-{len(self.units)}"
        sim.attach(self)
        self._unit = unit
        self.units.append(unit)

    def on_attach(self, sim: Any) -> None:
        """Publish the ``sim.trace`` side-channel model components emit
        through.  The sink defines no per-dispatch hook — recording is
        driven entirely by component emission sites, so attaching a sink
        leaves the engine's dispatch fast path untouched."""
        if sim.trace is not None and sim.trace is not self:
            raise SimulationError("simulator already has a trace sink attached")
        self._sim = sim
        sim.trace = self

    # ------------------------------------------------------------------
    # recording (the hot path)
    # ------------------------------------------------------------------
    def begin_span(self, thread_name: str, path: str, **attrs: Any) -> MissSpan:
        span = MissSpan(
            self._next_span_id, self._unit, path, thread_name, self._sim.now
        )
        self._next_span_id += 1
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        self._open_spans += 1
        return span

    def end_span(
        self,
        span: MissSpan,
        outcome: str = COMPLETED,
        pfn: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        span.end_ns = self._sim.now
        span.outcome = outcome
        span.pfn = pfn
        if attrs:
            span.attrs.update(attrs)
        self._open_spans -= 1

    def instant(self, name: str, **args: Any) -> None:
        self.instants.append(InstantEvent(self._sim.now, name, self._unit, args))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        """Spans begun but not ended — 0 after a clean run."""
        return self._open_spans

    def spans_by_path(self, path: str) -> List[MissSpan]:
        return [span for span in self.spans if span.path == path]

    def span_count(self, path: Optional[str] = None) -> int:
        if path is None:
            return len(self.spans)
        return len(self.spans_by_path(path))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceSink units={len(self.units)} spans={len(self.spans)} "
            f"instants={len(self.instants)}>"
        )
