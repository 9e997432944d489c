"""Discrete-event simulation engine.

Pending events live in two structures:

* a binary **heap** of ``(time, seq, callback, args, chain)`` entries
  for future instants, ordered by time and then by ``seq``, a counter
  that grows with every schedule call;
* the **instant queue**, a FIFO of ``(callback, args, chain)`` entries
  due at the current ``now``: zero delays, and positive delays that float
  rounding absorbs at a large ``now``.

Same-instant events fire in the order they were scheduled — the property
the whole model's determinism rests on.  A heap entry due at ``now`` was
scheduled at an earlier instant, so it precedes every instant-queue entry
made during ``now``.  The dispatch loops therefore pop the heap entries
due at ``now``, then drain the instant queue, then advance the clock to
the top of the heap.

:meth:`Simulator.schedule` is the one way in: the process layer's
wake-ups, the device-side callbacks and the drivers all go through it.
It returns no handle, so a scheduled event always fires and an entry is
nothing but its tuple.

Observation is pre-bound: trace/sanitizer instrumentation attaches via
:meth:`Simulator.attach` (see :mod:`repro.sim.observe`), which compiles
the attached observers down to at most two bound callables.  With nothing
attached the dispatch loop pays a single ``is None`` branch and
:meth:`Simulator.schedule` one more.

The engine knows nothing about processes or resources; those live in
:mod:`repro.sim.process` and :mod:`repro.sim.resources` and are built
purely on :meth:`Simulator.schedule`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: Conversion helpers — all engine time is in nanoseconds.
NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(100.0, print, "hello at t=100ns")
        sim.run()

    Coroutine processes (see :class:`repro.sim.process.Process`) are layered
    on top via :meth:`repro.sim.process.spawn`.
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds.  A plain attribute —
        #: the model reads ``sim.now`` several times per event, and a
        #: property call costs real time at that frequency.  Only the
        #: engine writes it.
        self.now: float = 0.0
        #: Future events, ``(time, seq, callback, args, chain)``.
        self._heap: List[Tuple[float, int, Any, Any, int]] = []
        self._seq = 0
        #: Events due at ``now``, ``(callback, args, chain)``, FIFO.
        self._instant: Deque[Tuple[Any, Any, int]] = deque()
        self._running = False
        self._stop = False
        #: Number of events dispatched so far (useful for budget checks).
        self.events_dispatched: int = 0
        #: Observability side-channel (:class:`repro.obs.trace.TraceSink`
        #: or None), published by the sink's ``on_attach``.  ``None`` — the
        #: default — means tracing is off and every emission site reduces
        #: to one ``is None`` check.  The engine itself never consults it;
        #: model components emit miss-lifecycle spans through it.
        self.trace: Optional[Any] = None
        #: Simulation-order sanitizer side-channel (:class:`repro.check.
        #: sanitizer.SimSanitizer` or None), published by its
        #: ``on_attach``.  Model components needing ad-hoc ``note()``
        #: calls reach it here; the engine's own tagging runs through the
        #: pre-bound hooks below.
        self.sanitizer: Optional[Any] = None
        #: Attached observers (see :mod:`repro.sim.observe`) and the two
        #: pre-bound hook callables compiled from them.
        self._observers: List[Any] = []
        self._dispatch_hook: Optional[Callable[[float, int], None]] = None
        self._chain_hook: Optional[Callable[[float], int]] = None

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def attach(self, observer: Any) -> None:
        """Attach an observer and rebind the pre-compiled hook fast path.

        ``observer.on_attach(self)`` runs first (wiring side-channels like
        :attr:`trace`/:attr:`sanitizer`), then the engine binds the
        attached observers' ``on_dispatch``/``event_chain`` hooks as the
        two callables the hot loops consult.  At most one attached
        observer may define each hook; a second raises
        :class:`SimulationError`.
        """
        self._observers.append(observer)
        on_attach = getattr(observer, "on_attach", None)
        if on_attach is not None:
            on_attach(self)
        self._rebind_hooks()

    def detach(self, observer: Any) -> None:
        """Detach a previously attached observer."""
        self._observers.remove(observer)
        on_detach = getattr(observer, "on_detach", None)
        if on_detach is not None:
            on_detach(self)
        self._rebind_hooks()

    def _rebind_hooks(self) -> None:
        self._dispatch_hook = self._single_hook("on_dispatch")
        self._chain_hook = self._single_hook("event_chain")

    def _single_hook(self, name: str) -> Optional[Callable[..., Any]]:
        """The one attached observer's ``name`` hook, or None."""
        hooks = [
            hook
            for hook in (getattr(o, name, None) for o in self._observers)
            if hook is not None
        ]
        if len(hooks) > 1:
            raise SimulationError(f"at most one attached observer may define {name}")
        return hooks[0] if hooks else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    # repro: hot-path
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.  Nothing is
        returned: a scheduled event cannot be cancelled.
        """
        if delay < 0:
            # A negative delay would fire in the simulation's past and
            # silently corrupt the heap's monotonic order.
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        now = self.now
        time = now + delay
        hook = self._chain_hook
        chain = 0 if hook is None else hook(time)
        if time <= now:
            self._instant.append((callback, args, chain))
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (time, seq, callback, args, chain))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    # repro: hot-path
    def step(self) -> bool:
        """Dispatch the next pending event.  Returns False if queue is empty."""
        heap = self._heap
        instant = self._instant
        # A heap entry due now precedes the instant queue; otherwise the
        # instant queue drains before the clock advances.
        if heap and (not instant or heap[0][0] <= self.now):
            time, _, callback, args, chain = heappop(heap)
        elif instant:
            time = self.now
            callback, args, chain = instant.popleft()
        else:
            return False
        self.now = time
        self.events_dispatched += 1
        hook = self._dispatch_hook
        if hook is not None:
            hook(time, chain)
        callback(*args)
        return True

    def stop(self) -> None:
        """Ask the innermost :meth:`run` to return after the current event.

        Cheap cooperative shutdown for drivers that know when they are
        done (see :meth:`repro.core.system.System.run`): the finishing
        callback calls ``stop()`` and the run loop exits without paying a
        per-event completion predicate.
        """
        self._stop = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, :meth:`stop` is called, ``until``
        ns is reached, or ``max_events`` have been dispatched.

        When ``until`` is given and no pending event is due by then, the
        clock is advanced to exactly ``until`` even if the last event
        fired earlier, so time-weighted statistics observed after
        :meth:`run` cover the full interval.  A run cut short by
        ``max_events`` or :meth:`stop` leaves the clock at the last
        dispatched event.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stop = False
        try:
            if until is None and max_events is None:
                self._run_unbounded()
            else:
                self._run_bounded(until, max_events)
        finally:
            self._running = False

    # repro: hot-path
    def _run_unbounded(self) -> None:
        """The hot loop: :meth:`step` inlined, so the common
        no-``until``/no-budget run pays no per-event method call."""
        heap = self._heap
        instant = self._instant
        popleft = instant.popleft
        while True:
            if heap and (not instant or heap[0][0] <= self.now):
                time, _, callback, args, chain = heappop(heap)
            elif instant:
                time = self.now
                callback, args, chain = popleft()
            else:
                return
            self.now = time
            self.events_dispatched += 1
            hook = self._dispatch_hook
            if hook is not None:
                hook(time, chain)
            callback(*args)
            if self._stop:
                return

    def _run_bounded(self, until: Optional[float], max_events: Optional[int]) -> None:
        dispatched = 0
        while max_events is None or dispatched < max_events:
            next_time = self.peek()
            if next_time is None or (until is not None and next_time > until):
                break
            self.step()
            dispatched += 1
            if self._stop:
                break
        if until is not None and self.now < until:
            # Never past a pending event: the next run would otherwise
            # dispatch it with the clock going backwards.
            next_time = self.peek()
            if next_time is None or next_time > until:
                self.now = until

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None."""
        if self._instant:
            return self.now
        heap = self._heap
        return heap[0][0] if heap else None

    @property
    def pending_events(self) -> int:
        """Number of queued events."""
        return len(self._heap) + len(self._instant)

    # ------------------------------------------------------------------
    # state digests
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Structural snapshot of the engine at the current event boundary.

        Returns the clock, the dispatch counter, the pending events as
        ``(time, callback, args, chain)`` in dispatch order (heap entries
        due now, the instant queue, then the later heap entries by
        ``(time, seq)``), and the attached observers by class name.
        Listing entries in dispatch order makes a digest commit to that
        order rather than to the heap's memory layout.  The entries hold *references*, not copies — the snapshot
        is consumed by the deep capture in :mod:`repro.sim.checkpoint`
        (for state digests).
        """
        now = self.now
        heap = sorted(self._heap)
        due = [(time, cb, args, chain) for time, _, cb, args, chain in heap if time <= now]
        later = [(time, cb, args, chain) for time, _, cb, args, chain in heap if time > now]
        instant = [(now, cb, args, chain) for cb, args, chain in self._instant]
        return {
            "now": now,
            "events_dispatched": self.events_dispatched,
            "pending": due + instant + later,
            "observers": sorted(type(observer).__name__ for observer in self._observers),
        }
