"""Tests for the runtime simulation-order sanitizer.

The hazard model: two accesses to one watched structure at the same
timestamp are a tie-break hazard iff they come from different causal
chains AND different call sites AND at least one is a write.  Everything
else — ordered accesses, zero-delay continuations, read-read pairs,
symmetric same-site fan-out — must stay quiet.
"""

import pytest

from repro.check.sanitizer import SimSanitizer
from repro.errors import SimulationError
from repro.obs.trace import TraceSink
from repro.sim import Simulator
from repro.sim.resources import FifoChannel


def make_watched_channel(sim, sanitizer, label="cq"):
    channel = FifoChannel(sim, name=label)
    sanitizer.watch(channel, label)
    return channel


def test_same_timestamp_independent_writers_flagged():
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)
    channel = make_watched_channel(sim, sanitizer)

    def writer_a():
        channel.put_nowait("a")

    def writer_b():
        channel.put_nowait("b")

    sim.schedule(10.0, writer_a)
    sim.schedule(10.0, writer_b)
    sim.run()

    report = sanitizer.report()
    assert len(report.hazards) == 1
    hazard = report.hazards[0]
    assert hazard.structure == "cq"
    assert hazard.time_ns == 10.0  # repro: allow[REP004] reason=asserting the recorded literal timestamp, no arithmetic involved
    sites = hazard.site_a + " " + hazard.site_b
    assert "writer_a" in sites and "writer_b" in sites
    assert hazard.kind_a == "write" and hazard.kind_b == "write"
    with pytest.raises(SimulationError):
        report.raise_if_failed()


def test_ordered_writers_not_flagged():
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)
    channel = make_watched_channel(sim, sanitizer)

    def writer_a():
        channel.put_nowait("a")

    def writer_b():
        channel.put_nowait("b")

    sim.schedule(10.0, writer_a)
    sim.schedule(20.0, writer_b)
    sim.run()

    report = sanitizer.report()
    assert report.ok
    assert report.accesses == 2
    report.raise_if_failed()  # must not raise


def test_zero_delay_continuation_inherits_chain():
    """A zero-delay follow-up event is causally ordered, not a tie-break."""
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)
    channel = make_watched_channel(sim, sanitizer)

    def continuation():
        channel.put_nowait("second")

    def writer_then_continue():
        channel.put_nowait("first")
        sim.schedule(0.0, continuation)

    sim.schedule(10.0, writer_then_continue)
    sim.run()

    report = sanitizer.report()
    assert report.accesses == 2
    assert report.ok, [h.format() for h in report.hazards]


def test_consumer_callback_named_as_the_cq_read_site():
    """A drain charges each CQ read to the consumer callback, not the engine."""
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)
    channel = make_watched_channel(sim, sanitizer)
    got = []

    def interrupt_handler(tag, command):
        got.append((tag, command))

    channel.consume(interrupt_handler, "qp1")

    def writer_a():
        channel.put_nowait("a")

    def writer_b():
        channel.put_nowait("b")

    # Two independent writers at one instant; the drain scheduled by the
    # first (same chain) reads both entries, so the read of the entry the
    # other chain wrote is a hazard that names both sites.
    sim.schedule(10.0, writer_a)
    sim.schedule(10.0, writer_b)
    sim.run()

    assert got == [("qp1", "a"), ("qp1", "b")]
    sites = {site for h in sanitizer.report().hazards for site in (h.site_a, h.site_b)}
    assert any(site.startswith("test_check_sanitizer.py:interrupt_handler:") for site in sites)
    assert not any("engine.py" in site or "resources.py" in site for site in sites)


def test_write_read_conflict_flagged_but_read_read_is_not():
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)

    def reader_a():
        sanitizer.note("cam", "read")

    def reader_b():
        sanitizer.note("cam", "read")

    def writer():
        sanitizer.note("cam", "write")

    sim.schedule(5.0, reader_a)
    sim.schedule(5.0, reader_b)
    sim.run()
    assert sanitizer.report().ok

    sim.schedule(sim.now + 1.0, reader_a)
    sim.schedule(sim.now + 1.0, writer)
    sim.run()
    report = sanitizer.report()
    assert len(report.hazards) == 1
    assert {report.hazards[0].kind_a, report.hazards[0].kind_b} == {"read", "write"}


def test_same_site_fanout_not_flagged():
    """N same-time dispatches of one call site are symmetric by design."""
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)
    channel = make_watched_channel(sim, sanitizer)

    def poke():
        channel.put_nowait(1)

    for _ in range(4):
        sim.schedule(10.0, poke)
    sim.run()
    assert sanitizer.report().ok


def test_hazard_pairs_deduplicated_across_timestamps():
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)
    channel = make_watched_channel(sim, sanitizer)

    def writer_a():
        channel.put_nowait("a")

    def writer_b():
        channel.put_nowait("b")

    for base in (10.0, 20.0, 30.0):
        sim.schedule(base, writer_a)
        sim.schedule(base, writer_b)
    sim.run()

    report = sanitizer.report()
    assert len(report.hazards) == 1  # one per (structure, site pair, kinds)
    assert report.hazards[0].time_ns == 10.0  # repro: allow[REP004] reason=asserting the recorded literal timestamp, no arithmetic involved


def test_window_cap_bounds_quadratic_scan():
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.attach_sim(sim)

    def burst():
        for _ in range(600):
            sanitizer.note("hot", "write")

    sim.schedule(1.0, burst)
    sim.run()
    report = sanitizer.report()
    assert report.window_overflows > 0
    assert report.ok  # single site — never a hazard, just capped


def test_double_attach_rejected():
    sim = Simulator()
    SimSanitizer().attach_sim(sim)
    with pytest.raises(SimulationError):
        SimSanitizer().attach_sim(sim)
    # The rejected sanitizer leaves nothing attached behind it.
    TraceSink().attach(sim, unit="after")
    assert sim.trace is not None


def test_sanitized_fig11_runs_hazard_free():
    """The acceptance bar: a default-config fig11 run under the sanitizer
    checks thousands of accesses and reports zero tie-break hazards."""
    from repro.experiments import registry
    from repro.experiments.engine import execute
    from repro.experiments.runner import QUICK
    from repro.obs.runtime import Observation

    observation = Observation(sanitize=True)
    execute(registry.resolve(["fig11"]), QUICK, jobs=1, cache=None, observation=observation)

    assert len(observation.sanitizers) == 2  # OSDP + HWDP cells
    for unit, sanitizer in observation.sanitizers:
        report = sanitizer.report()
        assert report.accesses > 0, unit
        assert report.dispatches > 0, unit
        assert report.ok, (unit, [h.format() for h in report.hazards])
