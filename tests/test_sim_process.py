"""Unit tests for coroutine processes, signals, and resources."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Completion, FifoChannel, Server, Signal, Simulator, spawn


def test_process_delay_advances_time():
    sim = Simulator()
    log = []

    def body():
        yield 10.0
        log.append(sim.now)
        yield 5.0
        log.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert log == [10.0, 15.0]


def test_process_return_value_and_join():
    sim = Simulator()
    log = []

    def child():
        yield 20.0
        return "payload"

    def parent():
        value = yield spawn(sim, child(), "child")
        log.append((sim.now, value))

    spawn(sim, parent(), "parent")
    sim.run()
    assert log == [(20.0, "payload")]


def test_join_already_finished_process():
    sim = Simulator()
    log = []

    def child():
        return 7
        yield  # pragma: no cover - makes this a generator

    def parent():
        proc = spawn(sim, child())
        yield 50.0
        value = yield proc
        log.append(value)

    spawn(sim, parent())
    sim.run()
    assert log == [7]


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    signal = Signal(sim, "s")
    log = []

    def waiter(tag):
        value = yield signal
        log.append((tag, value, sim.now))

    spawn(sim, waiter("a"))
    spawn(sim, waiter("b"))
    sim.schedule(30.0, signal.fire, 99)
    sim.run()
    assert sorted(log) == [("a", 99, 30.0), ("b", 99, 30.0)]


def test_signal_is_edge_triggered():
    sim = Simulator()
    signal = Signal(sim, "s")
    log = []

    def late_waiter():
        yield 50.0  # arrives after the only fire
        value = yield signal
        log.append(value)

    spawn(sim, late_waiter())
    sim.schedule(10.0, signal.fire, "early")
    sim.run(until=1000.0)
    assert log == []  # never woken


def test_completion_latches_for_late_waiters():
    sim = Simulator()
    done = Completion(sim, "c")
    log = []

    def late_waiter():
        yield 50.0
        value = yield done
        log.append((sim.now, value))

    spawn(sim, late_waiter())
    sim.schedule(10.0, done.fire, "res")
    sim.run()
    assert log == [(50.0, "res")]


def test_completion_cannot_fire_twice():
    sim = Simulator()
    done = Completion(sim)
    done.fire(1)
    with pytest.raises(SimulationError):
        done.fire(2)


def test_yield_from_composition():
    sim = Simulator()
    log = []

    def inner():
        yield 5.0
        return "inner-done"

    def outer():
        value = yield from inner()
        log.append((sim.now, value))

    spawn(sim, outer())
    sim.run()
    assert log == [(5.0, "inner-done")]


def test_unsupported_yield_raises():
    sim = Simulator()

    def body():
        yield "42"

    spawn(sim, body())
    with pytest.raises(SimulationError, match="unsupported command"):
        sim.run()


def test_bool_yield_is_not_a_delay():
    sim = Simulator()

    def body():
        yield True

    spawn(sim, body())
    with pytest.raises(SimulationError, match="unsupported command"):
        sim.run()


@pytest.mark.parametrize("delay", [-1.0, -1, np.float64(-0.5)])
def test_negative_yielded_delay_raises(delay):
    sim = Simulator()

    def body():
        yield delay

    spawn(sim, body())
    with pytest.raises(SimulationError, match="past"):
        sim.run()


def test_int_and_numpy_delays_match_float():
    def wake_times(delays):
        sim = Simulator()
        log = []

        def body():
            for delay in delays:
                yield delay
                log.append(sim.now)

        spawn(sim, body())
        sim.run()
        return log, sim.events_dispatched

    floats = wake_times([3.0, 0.0, 7.0, 10.0])
    assert floats == ([3.0, 3.0, 10.0, 20.0], 5)
    assert wake_times([3, 0, 7, 10]) == floats
    assert wake_times([np.float64(3.0), np.float64(0.0), np.float32(7.0), np.int64(10)]) == floats


class TestServer:
    """Jobs are callbacks: ``acquire`` starts one, ``release`` ends it."""

    def test_parallel_capacity(self):
        sim = Simulator()
        server = Server(sim, capacity=2)
        done = []

        def finish(tag):
            server.release(100.0)
            done.append((tag, sim.now))

        def start(tag):
            sim.schedule(100.0, finish, tag)

        for tag in range(4):
            sim.schedule(0.0, server.acquire, start, tag)
        sim.run()
        # Two run in parallel finishing at 100, the next two at 200.
        assert [t for _, t in done] == [100.0, 100.0, 200.0, 200.0]
        assert server.jobs_served == 4
        assert server.busy == 0

    def test_callable_duration_sampled_at_service_start(self):
        sim = Simulator()
        server = Server(sim, capacity=1)
        durations = iter([10.0, 30.0])
        done = []

        def finish(service_ns):
            server.release(service_ns)
            done.append(sim.now)

        def start():
            service_ns = next(durations)
            sim.schedule(service_ns, finish, service_ns)

        sim.schedule(0.0, server.acquire, start)
        sim.schedule(0.0, server.acquire, start)
        sim.run()
        assert done == [10.0, 40.0]

    def test_utilisation(self):
        sim = Simulator()
        server = Server(sim, capacity=1)

        def start():
            sim.schedule(50.0, server.release, 50.0)

        sim.schedule(0.0, server.acquire, start)
        sim.run(until=100.0)
        assert server.utilisation(100.0) == pytest.approx(0.5)

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            Server(Simulator(), capacity=0)


class TestFifoChannel:
    def test_put_get_order(self):
        sim = Simulator()
        chan = FifoChannel(sim)
        got = []

        def consumer():
            for _ in range(3):
                item = yield from chan.get()
                got.append((item, sim.now))

        def producer():
            for i in range(3):
                yield 10.0
                chan.put_nowait(i)

        spawn(sim, consumer())
        spawn(sim, producer())
        sim.run()
        assert [i for i, _ in got] == [0, 1, 2]

    def test_try_get_empty_raises(self):
        sim = Simulator()
        chan = FifoChannel(sim)
        with pytest.raises(IndexError):
            chan.try_get()


class TestFifoChannelConsume:
    """``consume`` wakes exactly where a ``get()``-loop process would."""

    @staticmethod
    def consumed(sim):
        chan = FifoChannel(sim)
        got = []
        chan.consume(lambda item: got.append((item, sim.now)))
        return chan, got

    def test_registration_is_one_arm_event(self):
        sim = Simulator()
        chan, got = self.consumed(sim)
        assert chan.drain_pending
        sim.run()
        assert sim.events_dispatched == 1
        assert got == []
        assert not chan.drain_pending

    def test_entries_queued_before_arming_are_delivered_by_the_arm(self):
        sim = Simulator()
        chan, got = self.consumed(sim)
        chan.put_nowait("early")
        sim.run()
        assert sim.events_dispatched == 1
        assert got == [("early", 0.0)]

    def test_one_drain_event_per_idle_wake(self):
        sim = Simulator()
        chan, got = self.consumed(sim)
        sim.schedule(10.0, chan.put_nowait, "a")
        sim.schedule(20.0, chan.put_nowait, "b")
        sim.run()
        # arm + two puts + one drain per put.
        assert sim.events_dispatched == 5
        assert got == [("a", 10.0), ("b", 20.0)]

    def test_same_instant_puts_share_one_drain(self):
        sim = Simulator()
        chan, got = self.consumed(sim)
        sim.schedule(10.0, chan.put_nowait, "a")
        sim.schedule(10.0, chan.put_nowait, "b")
        sim.schedule(10.0, chan.put_nowait, "c")
        sim.run()
        # arm + three puts + a single drain.
        assert sim.events_dispatched == 5
        assert got == [("a", 10.0), ("b", 10.0), ("c", 10.0)]
        assert len(chan) == 0

    def test_matches_a_get_loop_process(self):
        def run(use_consume):
            sim = Simulator()
            chan = FifoChannel(sim)
            got = []
            if use_consume:
                chan.consume(lambda item: got.append((item, sim.now)))
            else:
                def consumer():
                    while True:
                        item = yield from chan.get()
                        got.append((item, sim.now))

                spawn(sim, consumer())
            for index, time in enumerate([0.0, 5.0, 5.0, 7.0, 7.0, 7.0, 30.0]):
                sim.schedule(time, chan.put_nowait, index)
            sim.run()
            return got, sim.events_dispatched

        assert run(True) == run(False)

    def test_args_are_passed_before_the_item(self):
        sim = Simulator()
        chan = FifoChannel(sim)
        got = []
        chan.consume(lambda tag, n, item: got.append((tag, n, item)), "qp", 3)
        sim.schedule(1.0, chan.put_nowait, "entry")
        sim.run()
        assert got == [("qp", 3, "entry")]

    def test_second_consumer_rejected(self):
        sim = Simulator()
        chan, _ = self.consumed(sim)
        with pytest.raises(SimulationError):
            chan.consume(lambda item: None)
