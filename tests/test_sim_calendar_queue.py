"""Dispatch-order tests for the engine's heap and instant queue.

``test_sim_engine.py`` covers the near-term behaviour (FIFO tie-break,
zero delays, negative delays).  This file checks the engine's order against
two references:

* ``ReferenceSimulator``, one global ``(time, seq)`` heap — the
  obviously-correct model — on randomized schedules that interleave every
  scheduling and run entry point;
* ``CalendarSimulator``, the bucketed calendar queue the heap replaced,
  on whole simulated machines: both engines must dispatch the same
  callbacks at the same instants and end with the same metrics.

The far-future tests keep the calendar's overflow horizon as their scale:
they pin time order and FIFO ties across delays the calendar used to
route through its overflow heap.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PagingMode
from repro.core import system as system_mod
from repro.errors import SimulationError
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.mem.address import PAGE_SHIFT
from repro.sim.engine import MS, Simulator
from tests.helpers import build_mapped_system

#: The calendar's bucketing horizon: events further ahead overflowed.
HORIZON = 1.0 * MS


# ----------------------------------------------------------------------
# far-future events
# ----------------------------------------------------------------------
def test_far_future_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    # Deliberately scheduled out of order, straddling several horizons.
    for delay in (2.5 * HORIZON, 10.0, 0.5 * HORIZON, 4.0 * HORIZON, 1.5 * HORIZON):
        sim.schedule(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == 4.0 * HORIZON


def test_overflow_same_timestamp_fifo():
    sim = Simulator()
    fired = []
    for tag in range(8):
        sim.schedule(2.0 * HORIZON, fired.append, tag)
    sim.run()
    assert fired == list(range(8))


def test_migrated_events_interleave_with_new_near_events():
    sim = Simulator()
    fired = []
    target = 2.0 * HORIZON

    def late_riser():
        # Scheduled long after "migrated" for the same instant, so it
        # must fire after it.
        fired.append("riser")
        sim.schedule(target - sim.now, fired.append, "new")

    sim.schedule(target, fired.append, "migrated")
    sim.schedule(target - 1.0, late_riser)
    sim.run()
    assert fired == ["riser", "migrated", "new"]


def test_pending_events_counts_overflow():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(3.0 * HORIZON, lambda: None)
    sim.schedule(5.0 * HORIZON, lambda: None)
    assert sim.pending_events == 3


def test_peek_migrates_overflow():
    sim = Simulator()
    sim.schedule(2.0 * HORIZON, lambda: None)
    assert sim.peek() == 2.0 * HORIZON


# ----------------------------------------------------------------------
# reference engines
# ----------------------------------------------------------------------
class ReferenceSimulator:
    """The obviously-correct model: one global ``(time, seq)`` heap.

    A bounded run stops at ``until``, after ``max_events`` dispatches or
    at :meth:`stop`, and moves the clock to ``until`` only if no pending
    event is due by then.
    """

    def __init__(self):
        self.now = 0.0
        self.events_dispatched = 0
        self._heap = []
        self._seq = 0
        self._stop = False

    def schedule(self, delay, callback, *args):
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, args))

    def stop(self):
        self._stop = True

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def step(self):
        if not self._heap:
            return False
        time, _, callback, args = heapq.heappop(self._heap)
        self.now = time
        self.events_dispatched += 1
        callback(*args)
        return True

    def run(self, until=None, max_events=None):
        self._stop = False
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
            next_time = self.peek()
            if next_time is None or next_time > until:
                self.now = until


class _CalendarEvent:
    __slots__ = ("time", "callback", "args", "chain")

    def __init__(self, time, callback, args):
        self.time = time
        self.callback = callback
        self.args = args
        self.chain = 0


class CalendarSimulator(Simulator):
    """The calendar queue the heap replaced, kept as a reference.

    Pending events live in exact-timestamp buckets, ``{time: [event,
    ...]}`` plus a heap of the distinct bucketed times.  Events further
    than ``HORIZON`` past the low-water mark go to a ``(time, seq,
    event)`` overflow heap and migrate into buckets when the calendar
    drains.  Left out: the slab pool that recycled event objects, which
    never affected dispatch order.  Observation, :meth:`run` and
    :meth:`stop` are the engine's own.
    """

    def __init__(self):
        super().__init__()
        self._buckets = {}
        self._times = []
        self._overflow = []
        self._overflow_seq = 0
        self._horizon = HORIZON
        self._active_bucket = None
        self._active_time = 0.0
        self._active_index = 0

    def _enqueue(self, event):
        time = event.time
        if self._chain_hook is not None:
            event.chain = self._chain_hook(time)
        if time <= self._horizon:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [event]
                heapq.heappush(self._times, time)
            else:
                bucket.append(event)
        else:
            self._overflow_seq += 1
            heapq.heappush(self._overflow, (time, self._overflow_seq, event))

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._enqueue(_CalendarEvent(self.now + delay, callback, args))

    def _migrate_overflow(self):
        overflow = self._overflow
        horizon = overflow[0][0] + HORIZON
        self._horizon = horizon
        while overflow and overflow[0][0] <= horizon:
            time, _, event = heapq.heappop(overflow)
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [event]
                heapq.heappush(self._times, time)
            else:
                bucket.append(event)

    def step(self):
        while True:
            bucket = self._active_bucket
            if bucket is None:
                if self._times:
                    time = heapq.heappop(self._times)
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
            self.now = self._active_time
            self.events_dispatched += 1
            if self._dispatch_hook is not None:
                self._dispatch_hook(self.now, event.chain)
            event.callback(*event.args)
            return True

    def _run_unbounded(self):
        while self.step() and not self._stop:
            pass

    def peek(self):
        while True:
            bucket = self._active_bucket
            if bucket is not None:
                if self._active_index < len(bucket):
                    return self._active_time
                del self._buckets[self._active_time]
                self._active_bucket = None
                continue
            if self._times:
                return self._times[0]
            if not self._overflow:
                return None
            self._migrate_overflow()

    @property
    def pending_events(self):
        count = sum(len(bucket) for bucket in self._buckets.values())
        if self._active_bucket is not None:
            count -= self._active_index
        return count + len(self._overflow)


# ----------------------------------------------------------------------
# property test: every entry point against the reference heap
# ----------------------------------------------------------------------
#: A clock this large absorbs small delays: ``now + 1.0 == now``.
_FAR = 1e17

# Delays mix exact ties, zero (run-after-current), values the calendar
# bucketed, far futures it overflowed, and a jump to a clock where float
# rounding absorbs the small ones.
_DELAYS = st.one_of(
    st.sampled_from(
        [0.0, 1.0, 5.0, 5.0, 100.0, HORIZON, HORIZON + 1.0, 2.0 * HORIZON, 3.5 * HORIZON, _FAR]
    ),
    st.floats(min_value=0.0, max_value=4.0 * HORIZON, allow_nan=False, width=32),
)

# An event: (delay, delays of the children scheduled from inside its
# callback, stop() from its callback?).
_EVENT = st.tuples(_DELAYS, st.lists(_DELAYS, max_size=3), st.booleans())

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _EVENT),
        st.tuples(st.just("peek")),
        st.tuples(st.just("step")),
        st.tuples(
            st.just("run"),
            st.none() | st.sampled_from([0.0, 3.0, 50.0, HORIZON, 3.0 * HORIZON, 2 * _FAR]),
            st.none() | st.integers(min_value=0, max_value=6),
        ),
    ),
    max_size=30,
)


class _ScriptRunner:
    """Applies one script to one engine and records what it observes."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def _fire(self, tag, children, stops):
        sim = self.sim
        self.log.append((tag, sim.now))
        for offset, delay in enumerate(children):
            sim.schedule(delay, self._fire, (tag, offset), (), False)
        if stops:
            sim.stop()

    def apply(self, index, op):
        kind = op[0]
        sim = self.sim
        result = None
        if kind == "schedule":
            delay, children, stops = op[1]
            sim.schedule(delay, self._fire, index, tuple(children), stops)
        elif kind == "peek":
            result = sim.peek()
        elif kind == "step":
            result = sim.step()
        else:
            offset, max_events = op[1], op[2]
            until = None if offset is None else sim.now + offset
            sim.run(until=until, max_events=max_events)
        return result, list(self.log), sim.events_dispatched, sim.now


def _replay(script, engine):
    reference = _ScriptRunner(ReferenceSimulator())
    runner = _ScriptRunner(engine)
    for index, op in enumerate(script + [("run", None, None)]):
        # Both engines compute fire times as ``now + delay`` with
        # identical arithmetic, so everything must match exactly: the
        # op's result, the dispatch log (order and floats), the counter
        # and the clock.
        assert runner.apply(index, op) == reference.apply(index, op), (index, op)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_calendar_matches_reference_heap(script):
    """The engine (heap plus instant queue) against the reference heap."""
    _replay(script, Simulator())


@settings(max_examples=100, deadline=None)
@given(_OPS)
def test_calendar_reference_matches_reference_heap(script):
    # The machine tests below trust the calendar reference; this pins it
    # to the plain heap.
    _replay(script, CalendarSimulator())


# ----------------------------------------------------------------------
# whole machines: heap against calendar
# ----------------------------------------------------------------------
def _recording(engine_cls):
    """``engine_cls`` logging ``(now, callback qualname)`` per dispatch."""

    class Recording(engine_cls):
        def __init__(self):
            super().__init__()
            self.dispatches = []

        def schedule(self, delay, callback, *args):
            super().schedule(delay, self._record, callback, args)

        def _record(self, callback, args):
            name = getattr(callback, "__qualname__", type(callback).__qualname__)
            self.dispatches.append((self.now, name))
            callback(*args)

    return Recording


_MACHINES = {
    "hwdp-faults": (
        PagingMode.HWDP,
        FaultPlan(
            rules=(
                FaultRule(kind=FaultKind.READ_ERROR, probability=0.1),
                FaultRule(kind=FaultKind.TIMEOUT, probability=0.05, timeout_ns=30_000.0),
            ),
            name="engine-order",
        ),
    ),
    "osdp": (PagingMode.OSDP, None),
}


def _run_machine(monkeypatch, engine_cls, machine):
    mode, plan = _MACHINES[machine]
    monkeypatch.setattr(system_mod, "Simulator", _recording(engine_cls))
    # More file pages than frames: reclaim runs and writes dirty pages back.
    system, thread, vma = build_mapped_system(mode, file_pages=640, fault_plan=plan)
    second = system.workload_thread(thread.process, index=1)

    def body(worker, pages):
        for index in pages:
            write = index % 5 == 0
            yield from worker.mem_access(vma.start + (index << PAGE_SHIFT), write)
            if write:
                # A WAL append, as the KV store's updates do: NVMe writes
                # queue behind reads for the device's service slots.
                yield from system.kernel.file_write(worker, vma.file, index)
            yield from worker.compute(300)

    processes = [
        system.spawn(body(thread, list(range(0, 640, 2)) + list(range(0, 96, 3))), "even"),
        system.spawn(body(second, list(range(639, 0, -3)) + list(range(1, 97, 4))), "odd"),
    ]
    system.run(processes, stop_daemons=False)
    system.sim.run(until=system.sim.now + 300_000.0)
    sim = system.sim
    return sim.dispatches, sim.events_dispatched, system.metrics.collect()


@pytest.mark.parametrize("machine", sorted(_MACHINES))
def test_heap_engine_replays_calendar_dispatch(monkeypatch, machine):
    heap = _run_machine(monkeypatch, Simulator, machine)
    calendar = _run_machine(monkeypatch, CalendarSimulator, machine)
    assert heap[0] == calendar[0]
    assert heap[1] == calendar[1] == len(heap[0])
    assert heap[2] == calendar[2]
