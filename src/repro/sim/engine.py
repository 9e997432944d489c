"""Discrete-event simulation engine.

The engine is a calendar-queue simulator.  Pending events live in exact-
timestamp buckets — ``{time: [event, ...]}`` plus a heap of the *distinct*
bucketed times — so the common case (bursts of events at one instant:
zero-delay resume storms, same-cycle hardware activity) costs one dict
probe and a list append instead of a heap push per event.  Events beyond a
sliding horizon fall back to an explicit ``(time, seq, event)`` heap and
migrate into buckets in FIFO order when the near-term calendar drains, so
far-future timers cannot bloat the bucket table.

FIFO tie-break semantics are exact: within a bucket, append order *is*
schedule order (the horizon only advances, so an event can never be
scheduled into a timestamp that older overflow events would later migrate
into ahead of it), and the overflow heap orders equal times by a
monotonic sequence number.  Same-instant events therefore fire in the
order they were scheduled — the property the whole model's determinism
rests on.

Two further hot-loop provisions:

* **Slab reuse** — the process layer and the device-side callbacks
  schedule through :meth:`Simulator.schedule_transient`, which recycles
  event objects from a free list instead of allocating; the public
  :meth:`Simulator.schedule` returns ordinary single-use handles.
* **Pre-bound observation** — trace/sanitizer instrumentation attaches
  via :meth:`Simulator.attach` (see :mod:`repro.sim.observe`), which
  compiles the attached observers down to at most two bound callables.
  With nothing attached the dispatch loop pays a single ``is None``
  branch and the schedule paths one more.

The engine knows nothing about processes or resources; those live in
:mod:`repro.sim.process` and :mod:`repro.sim.resources` and are built
purely on :meth:`Simulator.schedule`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: Conversion helpers — all engine time is in nanoseconds.
NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0

#: Width of the bucketed calendar's horizon: events scheduled further than
#: this past the current low-water mark go to the overflow heap.  1 ms is
#: far beyond every latency constant in the model, so overflow traffic is
#: limited to long watchdog timers and idle daemon periods.
_HORIZON_NS = 1.0 * MS


class ScheduledEvent:
    """Handle for a scheduled callback; allows cancellation.

    The engine never removes cancelled entries from the calendar eagerly;
    a cancelled event is simply skipped when its bucket drains.  This
    keeps cancellation O(1).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "chain", "pooled")

    def __init__(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Causal-chain tag assigned by :class:`repro.check.sanitizer.
        #: SimSanitizer` when one is attached (0 otherwise): a zero-delay
        #: event inherits the scheduling dispatch's chain, marking its
        #: same-timestamp ordering as causal rather than a FIFO tie-break.
        self.chain = 0
        #: True for slab-recycled events (see ``schedule_transient``):
        #: the engine returns these to the free list after they fire or
        #: their tombstone is skipped.
        self.pooled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.1f}ns {state} {self.callback!r}>"


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
        #: Exact-timestamp calendar: all events at one instant share one
        #: bucket, in schedule (= FIFO) order.
        self._buckets: Dict[float, List[ScheduledEvent]] = {}
        #: Heap of the distinct times present in ``_buckets``.
        self._times: List[float] = []
        #: Far-future fallback, ordered by ``(time, seq)``.
        self._overflow: List[Tuple[float, int, ScheduledEvent]] = []
        self._overflow_seq = 0
        #: Events at or before this absolute time are bucketed; later ones
        #: overflow.  Only ever advances (the FIFO-exactness invariant).
        self._horizon: float = _HORIZON_NS
        #: The bucket currently being drained, its time, and the index of
        #: the next entry to dispatch within it.
        self._active_bucket: Optional[List[ScheduledEvent]] = None
        self._active_time: float = 0.0
        self._active_index = 0
        #: Free list for slab-recycled transient events.
        self._event_pool: List[ScheduledEvent] = []
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
        :attr:`trace`/:attr:`sanitizer`), then the engine collects every
        attached observer's ``on_dispatch``/``event_chain`` hooks into the
        two pre-bound callables the hot loops consult.
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
        dispatch = [
            hook
            for hook in (getattr(o, "on_dispatch", None) for o in self._observers)
            if hook is not None
        ]
        if not dispatch:
            self._dispatch_hook = None
        elif len(dispatch) == 1:
            self._dispatch_hook = dispatch[0]
        else:
            hooks = tuple(dispatch)

            def fan_out(time: float, chain: int) -> None:
                for hook in hooks:
                    hook(time, chain)

            self._dispatch_hook = fan_out
        chains = [
            hook
            for hook in (getattr(o, "event_chain", None) for o in self._observers)
            if hook is not None
        ]
        if len(chains) > 1:
            raise SimulationError("at most one observer may assign event chains")
        self._chain_hook = chains[0] if chains else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    # repro: hot-path
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            # A negative delay would fire in the simulation's past and
            # silently corrupt the calendar queue's monotonic order.
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = ScheduledEvent(time, callback, args)
        if self._chain_hook is not None:
            event.chain = self._chain_hook(time)
        if time <= self._horizon:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [event]  # repro: allow[REP121] reason=one bucket per distinct timestamp, amortised across every event appended at that instant
                heappush(self._times, time)
            else:
                bucket.append(event)
        else:
            self._overflow_seq += 1
            heappush(self._overflow, (time, self._overflow_seq, event))
        return event

    # repro: hot-path
    def schedule_transient(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Fast-path schedule with a slab-recycled event object.

        Contract (why this is not the public API): the caller must drop
        every reference to the returned handle once the event has fired
        or been cancelled — the engine recycles the object the moment it
        leaves the calendar.  ``delay`` is trusted non-negative.  The
        process layer's wake-ups and the device-side callbacks (NVMe
        commands, completion-queue drains) are the intended callers.
        """
        time = self.now + delay
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.chain = 0
        else:
            event = ScheduledEvent(time, callback, args)
            event.pooled = True
        if self._chain_hook is not None:
            event.chain = self._chain_hook(time)
        if time <= self._horizon:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [event]  # repro: allow[REP121] reason=one bucket per distinct timestamp, amortised across every event appended at that instant
                heappush(self._times, time)
            else:
                bucket.append(event)
        else:
            self._overflow_seq += 1
            heappush(self._overflow, (time, self._overflow_seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        return self.schedule(time - self.now, callback, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _migrate_overflow(self) -> None:
        """Move the next window of far-future events into the calendar.

        Called only with the bucket calendar empty.  Overflow entries pop
        in ``(time, seq)`` order, so bucket append order stays FIFO; the
        horizon advance guarantees no *later* schedule can slip in front
        of a migrated event at the same timestamp.
        """
        overflow = self._overflow
        horizon = overflow[0][0] + _HORIZON_NS
        self._horizon = horizon
        buckets = self._buckets
        times = self._times
        while overflow and overflow[0][0] <= horizon:
            time, _, event = heappop(overflow)
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [event]
                heappush(times, time)
            else:
                bucket.append(event)

    # repro: hot-path
    def step(self) -> bool:
        """Dispatch the next pending event.  Returns False if queue is empty."""
        pool = self._event_pool
        while True:
            bucket = self._active_bucket
            if bucket is None:
                if self._times:
                    time = heappop(self._times)
                    self._active_time = time
                    bucket = self._active_bucket = self._buckets[time]
                    self._active_index = 0
                elif self._overflow:
                    self._migrate_overflow()
                    continue
                else:
                    return False
            index = self._active_index
            if index >= len(bucket):
                del self._buckets[self._active_time]
                self._active_bucket = None
                continue
            event = bucket[index]
            self._active_index = index + 1
            if event.cancelled:
                if event.pooled:
                    event.callback = None
                    event.args = ()
                    pool.append(event)
                continue
            self.now = self._active_time
            self.events_dispatched += 1
            callback = event.callback
            args = event.args
            if event.pooled:
                event.callback = None
                event.args = ()
                pool.append(event)
            hook = self._dispatch_hook
            if hook is not None:
                hook(self.now, event.chain)
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

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so time-weighted statistics
        observed after :meth:`run` cover the full interval.
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
        """The hot loop: drain the calendar with everything inlined.

        Mirrors :meth:`step` exactly; duplicated so the common
        no-``until``/no-budget run pays no per-event method call.
        """
        buckets = self._buckets
        times = self._times
        pool = self._event_pool
        while True:
            bucket = self._active_bucket
            if bucket is None:
                if times:
                    time = heappop(times)
                    self._active_time = time
                    bucket = self._active_bucket = buckets[time]
                    self._active_index = 0
                elif self._overflow:
                    self._migrate_overflow()
                    continue
                else:
                    return
            index = self._active_index
            if index >= len(bucket):
                del buckets[self._active_time]
                self._active_bucket = None
                continue
            event = bucket[index]
            self._active_index = index + 1
            if event.cancelled:
                if event.pooled:
                    event.callback = None
                    event.args = ()
                    pool.append(event)
                continue
            self.now = self._active_time
            self.events_dispatched += 1
            callback = event.callback
            args = event.args
            if event.pooled:
                event.callback = None
                event.args = ()
                pool.append(event)
            hook = self._dispatch_hook
            if hook is not None:
                hook(self.now, event.chain)
            callback(*args)
            if self._stop:
                return

    def _run_bounded(self, until: Optional[float], max_events: Optional[int]) -> None:
        dispatched = 0
        while True:
            if max_events is not None and dispatched >= max_events:
                break
            next_time = self.peek()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step()
            dispatched += 1
            if self._stop:
                break
        if until is not None and self.now < until:
            self.now = until

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None.

        Like the dispatch loops, lazily discards cancelled tombstones on
        the way to the answer — but never *activates* a bucket: dispatch
        order must stay immune to whether anyone peeked between events
        (a peeked-ahead bucket would otherwise outrank a nearer timestamp
        scheduled afterwards).
        """
        pool = self._event_pool
        while True:
            bucket = self._active_bucket
            if bucket is not None:
                # Scan the remainder of the bucket being drained.
                index = self._active_index
                while index < len(bucket):
                    event = bucket[index]
                    if not event.cancelled:
                        self._active_index = index
                        return self._active_time
                    if event.pooled:
                        event.callback = None
                        event.args = ()
                        pool.append(event)
                    index += 1
                self._active_index = index
                del self._buckets[self._active_time]
                self._active_bucket = None
                continue
            if not self._times:
                if self._overflow:
                    self._migrate_overflow()
                    continue
                return None
            time = self._times[0]
            bucket = self._buckets[time]
            while bucket and bucket[0].cancelled:
                event = bucket.pop(0)
                if event.pooled:
                    event.callback = None
                    event.args = ()
                    pool.append(event)
            if bucket:
                return time
            del self._buckets[time]
            heappop(self._times)

    @property
    def pending_events(self) -> int:
        """Number of queued events, including cancelled tombstones."""
        count = sum(len(bucket) for bucket in self._buckets.values())
        if self._active_bucket is not None:
            count -= self._active_index
        return count + len(self._overflow)

    # ------------------------------------------------------------------
    # state digests
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Structural snapshot of the engine at the current event boundary.

        Returns the clock, dispatch counter, calendar-queue contents
        (live event references: the active bucket's undrained remainder
        plus every other bucket, cancelled tombstones skipped), the
        overflow heap, the slab free-list capacity, and attached-observer
        bookkeeping by class name.  The pending events are *references*,
        not copies — the snapshot is consumed by the deep capture in
        :mod:`repro.sim.checkpoint` (for state digests).
        """
        buckets: List[Tuple[float, List[ScheduledEvent]]] = []
        for time in sorted(self._buckets):
            entries = self._buckets[time]
            if entries is self._active_bucket:
                entries = entries[self._active_index :]
            pending = [event for event in entries if not event.cancelled]
            if pending:
                buckets.append((time, pending))
        return {
            "now": self.now,
            "events_dispatched": self.events_dispatched,
            "horizon": self._horizon,
            "overflow_seq": self._overflow_seq,
            "buckets": buckets,
            # Sorted (time, seq) is canonical for digests (heap layout is
            # an implementation detail).
            "overflow": sorted(
                (entry for entry in self._overflow if not entry[2].cancelled),
                key=lambda entry: (entry[0], entry[1]),
            ),
            "event_pool": len(self._event_pool),
            "observers": sorted(type(observer).__name__ for observer in self._observers),
        }
