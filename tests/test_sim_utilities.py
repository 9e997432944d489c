"""Tests for stats recorders, RNG streams, and the race/timer helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Counter,
    RngStreams,
    Simulator,
    StatAccumulator,
    first_of,
    spawn,
    timer,
)


class TestStatAccumulator:
    def test_basic_moments(self):
        stat = StatAccumulator()
        stat.extend([1.0, 2.0, 3.0, 4.0])
        assert stat.count == 4
        assert stat.mean == 2.5
        assert stat.min == 1.0
        assert stat.max == 4.0
        assert stat.stddev == pytest.approx(math.sqrt(5.0 / 3.0))

    def test_empty(self):
        stat = StatAccumulator()
        assert stat.mean == 0.0
        assert stat.stddev == 0.0
        assert stat.percentile(50) == 0.0

    def test_percentiles(self):
        stat = StatAccumulator()
        stat.extend(range(101))
        assert stat.percentile(0) == 0
        assert stat.percentile(50) == 50
        assert stat.percentile(99) == 99
        assert stat.percentile(100) == 100

    def test_percentile_interpolates(self):
        stat = StatAccumulator()
        stat.extend([0.0, 10.0])
        assert stat.percentile(50) == 5.0

    def test_single_sample(self):
        stat = StatAccumulator()
        stat.add(7.0)
        assert stat.percentile(99) == 7.0
        assert stat.stddev == 0.0

    def test_summary_keys(self):
        stat = StatAccumulator()
        stat.extend([1.0, 2.0])
        summary = stat.summary()
        assert {"count", "mean", "min", "max", "stddev", "p50", "p99"} <= set(summary)

    def test_summary_preserves_zero_and_negative_extrema(self):
        # Regression: `self.min or 0.0` collapsed legitimate falsy/negative
        # extrema — a min of 0.0 survived, but a negative max did not.
        stat = StatAccumulator()
        stat.extend([-5.0, -2.0])
        summary = stat.summary()
        assert summary["min"] == -5.0
        assert summary["max"] == -2.0
        zero = StatAccumulator()
        zero.extend([0.0, 0.0])
        assert zero.summary()["min"] == 0.0
        assert zero.summary()["max"] == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_property_mean_bounded_by_extremes(self, values):
        stat = StatAccumulator()
        stat.extend(values)
        assert stat.min - 1e-9 <= stat.mean <= stat.max + 1e-9

    @staticmethod
    def _streaming_fold(values):
        """Reference: a running per-sample update, whose bits the derived
        statistics must reproduce."""
        count, total, total_sq, low, high = 0, 0.0, 0.0, None, None
        for value in values:
            value = float(value)
            count += 1
            total += value
            total_sq += value * value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        mean = total / count if count else 0.0
        stddev = 0.0
        if count >= 2:
            variance = (total_sq - total * total / count) / (count - 1)
            stddev = math.sqrt(max(variance, 0.0))
        return count, total, total_sq, low, high, mean, stddev

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.floats(min_value=0.0, max_value=1e7),
                st.integers(-(2**40), 2**40),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_derived_statistics_match_a_streaming_fold_bit_for_bit(self, values):
        stat = StatAccumulator()
        for value in values:
            stat.add(value)
        derived = (stat.count, stat.total, stat.total_sq, stat.min, stat.max,
                   stat.mean, stat.stddev)
        expected = self._streaming_fold(values)
        # repr() tells 0.0 from -0.0 and compares NaN (an overflowing sum
        # of squares) with itself.
        assert [repr(x) for x in derived] == [repr(x) for x in expected]


class TestCounter:
    def test_add_get(self):
        counter = Counter()
        counter.add("x")
        counter.add("x", 4)
        assert counter["x"] == 5
        assert counter["missing"] == 0
        assert counter.get("x") == 5

    def test_merge(self):
        a, b = Counter(), Counter()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a["x"] == 5
        assert a["y"] == 1

    def test_as_dict(self):
        counter = Counter()
        counter.add("x", 2)
        assert counter.as_dict() == {"x": 2}

    def test_tallies_stay_integers(self):
        # Regression: the docstring promised integers but float amounts
        # silently drifted the stored values to floats.
        counter = Counter()
        counter.add("x", 2.0)  # integral float: accepted, stored as int
        counter.add("x", 3)
        assert counter["x"] == 5
        assert isinstance(counter["x"], int)
        assert isinstance(counter.as_dict()["x"], int)

    def test_fractional_amount_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError, match="integers"):
            counter.add("x", 1.5)
        assert counter["x"] == 0


class TestRngStreams:
    def test_deterministic_per_name(self):
        a = RngStreams(42).stream("workload")
        b = RngStreams(42).stream("workload")
        assert list(a.integers(0, 100, 10)) == list(b.integers(0, 100, 10))

    def test_independent_names(self):
        streams = RngStreams(42)
        a = list(streams.stream("a").integers(0, 1000, 20))
        b = list(streams.stream("b").integers(0, 1000, 20))
        assert a != b

    def test_creation_order_irrelevant(self):
        first = RngStreams(7)
        x1 = list(first.stream("x").integers(0, 100, 5))
        second = RngStreams(7)
        second.stream("y")  # created before x this time
        x2 = list(second.stream("x").integers(0, 100, 5))
        assert x1 == x2

    def test_same_stream_object_returned(self):
        streams = RngStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_different_seeds_differ(self):
        a = list(RngStreams(1).stream("x").integers(0, 1000, 10))
        b = list(RngStreams(2).stream("x").integers(0, 1000, 10))
        assert a != b


class TestRaceHelpers:
    def test_first_of_picks_earlier_signal(self):
        sim = Simulator()
        fast = timer(sim, 10.0, "fast")
        slow = timer(sim, 50.0, "slow")
        outcome = {}

        def body():
            index, _ = yield first_of(sim, slow, fast)
            outcome["index"] = index
            outcome["time"] = sim.now

        spawn(sim, body())
        sim.run()
        assert outcome["index"] == 1  # the fast timer, at position 1
        assert outcome["time"] == 10.0

    def test_first_of_ignores_later_firings(self):
        sim = Simulator()
        a = timer(sim, 5.0)
        b = timer(sim, 6.0)
        race = first_of(sim, a, b)
        sim.run()
        assert race.done
        assert race.value[0] == 0

    def test_timer_fires_once_at_delay(self):
        sim = Simulator()
        done = timer(sim, 123.0)
        sim.run()
        assert done.done
        assert sim.now == 123.0

    def test_first_of_with_already_done_completion(self):
        from repro.sim import Completion

        sim = Simulator()
        already = Completion(sim, "already")
        already.fire("x")
        race = first_of(sim, already, timer(sim, 100.0))
        got = {}

        def body():
            got["value"] = yield race

        spawn(sim, body())
        sim.run(until=50.0)
        assert got["value"] == (0, "x")
