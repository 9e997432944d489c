"""Runtime simulation-order sanitizer.

The event heap breaks same-timestamp ties in FIFO schedule order.  That
tie-break is deterministic, but it is also *invisible*: nothing in the
model asked for it, so a refactor that reorders two ``schedule()`` calls
silently reorders same-instant event dispatch — and if two of those
events both touch a shared structure (the PMSHR CAM, the free-page queue,
the frame pool, a page table), the simulation's outcome changes with no
test pointing at the cause.  We have only ever discovered such races when
a CI byte-diff broke.

:class:`SimSanitizer` makes them visible.  Opt-in like
:class:`repro.obs.trace.TraceSink` (attach to a built system; zero cost
when absent — every instrumentation site is one ``is None`` check), it

1. tags every event dispatch with a **causal chain**: a zero-delay event
   scheduled *during* a dispatch at the same timestamp inherits that
   dispatch's chain (its ordering is causal — it can never fire first),
   while events arriving at a timestamp from independent histories get
   fresh chains;
2. tags every mutation of a watched structure with
   ``(sim_time, chain, site)`` where *site* is the calling source
   location; and
3. flags a **tie-break hazard** whenever two accesses touch the same
   structure at the same timestamp from *different chains* and
   *different sites* with at least one write — exactly the pattern whose
   outcome depends only on the heap's FIFO tie-break.

Hazards are collected and reported post-run (like
:mod:`repro.faults.invariants`), deduplicated by
``(structure, site pair, kinds)``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.sim.observe import SimObserver

READ = "read"
WRITE = "write"

#: Accesses kept per (structure, timestamp) window; a window larger than
#: this stops recording (and counts the overflow) so a pathological
#: same-instant burst cannot go quadratic.
_WINDOW_CAP = 512


@dataclass(frozen=True)
class TieBreakHazard:
    """One same-timestamp conflict resolved only by the FIFO tie-break."""

    structure: str
    time_ns: float
    site_a: str
    kind_a: str
    site_b: str
    kind_b: str

    def format(self) -> str:
        return (
            f"t={self.time_ns:.1f}ns {self.structure}: "
            f"{self.kind_a}@{self.site_a} vs {self.kind_b}@{self.site_b} "
            "ordered only by the event heap's FIFO tie-break"
        )


@dataclass
class SanitizerReport:
    """Post-run outcome of one sanitized simulation."""

    hazards: List[TieBreakHazard] = field(default_factory=list)
    accesses: int = 0
    dispatches: int = 0
    window_overflows: int = 0

    @property
    def ok(self) -> bool:
        return not self.hazards

    def raise_if_failed(self) -> None:
        if self.hazards:
            raise SimulationError(
                "simulation-order sanitizer found tie-break hazards:\n  - "
                + "\n  - ".join(h.format() for h in self.hazards)
            )


class _Access:
    __slots__ = ("kind", "chain", "site")

    def __init__(self, kind: str, chain: int, site: str):
        self.kind = kind
        self.chain = chain
        self.site = site


class SimSanitizer(SimObserver):
    """Watches shared structures for FIFO-tie-break-dependent outcomes.

    Wiring::

        sanitizer = SimSanitizer()
        sanitizer.attach(system)          # instruments a built System
        ... run the workload ...
        report = sanitizer.report()
        report.raise_if_failed()

    Watched objects carry ``_sanitizer`` / ``_sanitizer_label``
    attributes; their mutators call :meth:`note_write` /
    :meth:`note_read` behind an ``is None`` check, so an unwatched
    structure costs one attribute load.
    """

    def __init__(self) -> None:
        self.sim: Optional[Any] = None
        self.hazards: List[TieBreakHazard] = []
        self.accesses = 0
        self.dispatches = 0
        self.window_overflows = 0
        self._next_chain = 1
        #: Chain of the event being dispatched (0 = outside dispatch, i.e.
        #: setup/boot code, which is ordinary program order).
        self._current_chain = 0
        self._current_time: Optional[float] = None
        self._windows: Dict[str, List[_Access]] = {}
        self._seen_pairs: Set[Tuple[str, str, str, str, str]] = set()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, system: Any) -> None:
        """Instrument a built :class:`repro.core.system.System`."""
        self.attach_sim(system.sim)
        kernel = system.kernel
        self.watch(kernel.frame_pool, "frame_pool")
        for index, queue in enumerate(kernel.iter_free_queues()):
            self.watch(queue, f"free_page_queue[{index}]")
        if system.smu_complex is not None:
            for smu in system.smu_complex.smus:
                self.watch(smu.pmshr, f"pmshr[{smu.socket_id}]")
        elif system.smu is not None:  # pragma: no cover - complex covers this
            self.watch(system.smu.pmshr, f"pmshr[{system.smu.socket_id}]")
        sw_pmshr = kernel.fault_handler.sw_pmshr
        if sw_pmshr is not None:
            self.watch(sw_pmshr, "sw_pmshr")
        for qid, pair in system.device.queue_pairs.items():
            self.watch(pair.cq, f"nvme.cq[{qid}]")
        for process in kernel.processes:
            self.watch(process.page_table, f"page_table[{process.name}#{process.pid}]")
        # Page tables of processes created later self-register through
        # ProcessContext.__init__ via sim.sanitizer.

    def attach_sim(self, sim: Any) -> None:
        """Observe a bare :class:`Simulator` (tests wire structures by hand)."""
        sim.attach(self)

    def on_attach(self, sim: Any) -> None:
        """Observer wiring (see :mod:`repro.sim.observe`): publish the
        ``sim.sanitizer`` side-channel that model components ``note()``
        through; the engine binds :meth:`begin_dispatch` and
        :meth:`chain_for_new_event` from the class-level hook aliases."""
        if sim.sanitizer is not None and sim.sanitizer is not self:
            raise SimulationError("simulator already has a sanitizer attached")
        self.sim = sim
        sim.sanitizer = self

    def watch(self, obj: Any, label: str) -> None:
        """Start watching one structure under ``label``."""
        obj._sanitizer = self
        obj._sanitizer_label = label

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def chain_for_new_event(self, event_time: float) -> int:
        """Chain tag for an event being scheduled right now.

        A zero-delay event (same timestamp as the dispatch scheduling it)
        inherits the current chain: it is causally ordered after us, so
        its position in the same-timestamp FIFO is not a tie-break.
        Everything else gets a fresh chain at dispatch time (tag 0 here).
        """
        if self._current_chain and self._current_time == event_time:  # repro: allow[REP004] reason=bit-exact match wanted: zero-delay events copy the dispatch timestamp unmodified
            return self._current_chain
        return 0

    def begin_dispatch(self, time: float, chain: int) -> None:
        """Called by :meth:`Simulator.step` before running a callback."""
        self.dispatches += 1
        if time != self._current_time:
            self._current_time = time
            self._windows.clear()
        if chain:
            self._current_chain = chain
        else:
            self._current_chain = self._next_chain
            self._next_chain += 1

    # ------------------------------------------------------------------
    # recording (called from watched structures)
    # ------------------------------------------------------------------
    def note_write(self, obj: Any, site: Optional[str] = None) -> None:
        self._note(obj._sanitizer_label, WRITE, site, skip_owner=True)

    def note_read(self, obj: Any, site: Optional[str] = None) -> None:
        self._note(obj._sanitizer_label, READ, site, skip_owner=True)

    def note(self, label: str, kind: str, site: Optional[str] = None) -> None:
        """Record an access on a structure identified by label only."""
        self._note(label, kind, site, skip_owner=False)

    def _note(
        self, label: str, kind: str, site: Optional[str], skip_owner: bool = True
    ) -> None:
        self.accesses += 1
        if site is None:
            site = self._caller_site(skip_owner)
        window = self._windows.get(label)
        if window is None:
            window = self._windows[label] = []
        elif len(window) >= _WINDOW_CAP:
            self.window_overflows += 1
            return
        chain = self._current_chain
        for prior in window:
            if (
                prior.chain != chain
                and prior.site != site
                and (prior.kind == WRITE or kind == WRITE)
            ):
                self._record_hazard(label, prior, kind, site)
        window.append(_Access(kind, chain, site))

    def _record_hazard(self, label: str, prior: _Access, kind: str, site: str) -> None:
        first, second = sorted(
            [(prior.site, prior.kind), (site, kind)]
        )
        key = (label, first[0], first[1], second[0], second[1])
        if key in self._seen_pairs:
            return
        self._seen_pairs.add(key)
        self.hazards.append(
            TieBreakHazard(
                structure=label,
                time_ns=self._current_time if self._current_time is not None else 0.0,
                site_a=first[0],
                kind_a=first[1],
                site_b=second[0],
                kind_b=second[1],
            )
        )

    @staticmethod
    def callback_site(callback: Any) -> str:
        """Site of a callback the engine dispatches directly: its definition.

        A structure that runs its consumer as a callback (a
        :meth:`repro.sim.resources.FifoChannel.consume` drain) passes this
        as the explicit site, since the caller on the stack is the engine.
        """
        code = getattr(getattr(callback, "__func__", callback), "__code__", None)
        if code is None:
            return f"<{type(callback).__name__}>"
        return (
            f"{os.path.basename(code.co_filename)}:"
            f"{code.co_name}:{code.co_firstlineno}"
        )

    @staticmethod
    def _caller_site(skip_owner: bool) -> str:
        """Source location of the model code that touched the structure.

        ``skip_owner`` additionally walks out of the watched structure's
        own module so the site names the *caller* — two different callers
        racing on one structure must read as two sites.  (Direct
        :meth:`note` calls pass False: the noting method *is* the site.)
        """
        # Frames: 0=_caller_site, 1=_note, 2=note_write/read/note,
        # 3=the structure mutator (or the direct note() caller).
        frame = sys._getframe(3)
        if skip_owner and frame is not None:
            owner_file = frame.f_code.co_filename
            while frame is not None and frame.f_code.co_filename == owner_file:
                frame = frame.f_back
        if frame is None:  # pragma: no cover - defensive
            return "<unknown>"
        return (
            f"{os.path.basename(frame.f_code.co_filename)}:"
            f"{frame.f_code.co_name}:{frame.f_lineno}"
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> SanitizerReport:
        """Deterministically ordered post-run report."""
        return SanitizerReport(
            hazards=sorted(
                self.hazards,
                key=lambda h: (h.time_ns, h.structure, h.site_a, h.site_b),
            ),
            accesses=self.accesses,
            dispatches=self.dispatches,
            window_overflows=self.window_overflows,
        )

    # SimObserver hook bindings: the engine pre-compiles these into its
    # dispatch/schedule fast paths at attach time.
    on_dispatch = begin_dispatch
    event_chain = chain_for_new_event
