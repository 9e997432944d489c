"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.observe import SimObserver


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, fired.append, "c")
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(7.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_zero_delay_event_runs_after_current():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.schedule(1.0, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "inner"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_negative_delay_rejected_mid_run_leaves_queue_intact():
    """A rejected schedule must not corrupt the event queue.

    The guard has to fire *before* the event is pushed: if a negative
    delay sneaked into the heap, heap order relative to already-queued
    events would silently break instead of raising.
    """
    sim = Simulator()
    fired = []

    def bad(tag):
        fired.append(tag)
        with pytest.raises(SimulationError):
            sim.schedule(-0.5, fired.append, "never")

    sim.schedule(10.0, bad, "bad")
    sim.schedule(20.0, fired.append, "after")
    sim.run()
    assert fired == ["bad", "after"]
    assert sim.now == 20.0
    assert sim.peek() is None


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_cut_by_max_events_keeps_clock_at_last_event():
    sim = Simulator()
    fired = []
    for time in (10.0, 20.0, 30.0):
        sim.schedule(time, lambda: fired.append(sim.now))
    sim.run(until=100.0, max_events=1)
    # Events at 20 and 30 are still due before ``until``: jumping to 100
    # would make the next run dispatch them with the clock going back.
    assert sim.now == 10.0
    sim.run()
    assert fired == [10.0, 20.0, 30.0]
    assert sim.now == 30.0


def test_run_until_cut_by_stop_keeps_clock_at_last_event():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append(sim.now)
        sim.stop()

    sim.schedule(10.0, stopper)
    sim.schedule(20.0, lambda: fired.append(sim.now))
    sim.run(until=100.0)
    assert sim.now == 10.0
    sim.run(until=100.0)
    assert fired == [10.0, 20.0]
    assert sim.now == 100.0


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_dispatched_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_dispatched == 4


def test_events_scheduled_inside_callbacks_chain():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(10.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50.0


class _DispatchProbe(SimObserver):
    def on_dispatch(self, time, chain):
        pass


def test_second_dispatch_hook_rejected_at_attach():
    sim = Simulator()
    sim.attach(_DispatchProbe())
    with pytest.raises(SimulationError, match="on_dispatch"):
        sim.attach(_DispatchProbe())
