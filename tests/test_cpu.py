"""Tests for the CPU layer: pollution, perf counters, SMT cores, threads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CpuConfig
from repro.cpu import (
    CoreState,
    CpuComplex,
    PerfCounters,
    PollutionState,
    ThreadContext,
    aggregate,
)
from repro.cpu.thread import COMPUTE_QUANTUM
from repro.errors import ConfigError
from repro.sim import Completion, Simulator, spawn
from repro.vm import PageTable
from repro.vm.tlb import Tlb


class FakeProcess:
    def __init__(self):
        self.page_table = PageTable()


def make_thread(sim=None, cpu=None, core_index=0, name="t0"):
    sim = sim or Simulator()
    cpu = cpu or CpuConfig()
    complex_ = CpuComplex(sim, cpu)
    thread = ThreadContext(sim, name, FakeProcess(), complex_.logical_core(core_index), cpu)
    return sim, thread, complex_


class TestPollution:
    def test_starts_clean(self):
        state = PollutionState(CpuConfig())
        assert state.value == 0.0
        assert state.ipc_factor() == 1.0

    def test_kernel_work_saturates(self):
        state = PollutionState(CpuConfig())
        state.add_kernel_work(10_000_000)
        assert state.value == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_kernel_work(self):
        config = CpuConfig()
        small, large = PollutionState(config), PollutionState(config)
        small.add_kernel_work(1_000)
        large.add_kernel_work(50_000)
        assert 0 < small.value < large.value < 1.0

    def test_user_execution_decays(self):
        state = PollutionState(CpuConfig())
        state.add_kernel_work(50_000)
        before = state.value
        state.decay(CpuConfig().pollution_decay_instr)
        assert state.value == pytest.approx(before * 0.3679, rel=1e-3)

    def test_ipc_penalty_bounded(self):
        config = CpuConfig()
        state = PollutionState(config)
        state.add_kernel_work(10_000_000)
        assert state.ipc_factor() == pytest.approx(1.0 - config.pollution_ipc_penalty)

    def test_miss_rates_increase_with_pollution(self):
        state = PollutionState(CpuConfig())
        clean = state.miss_rate("llc_miss")
        state.add_kernel_work(100_000)
        assert state.miss_rate("llc_miss") > clean

    def test_zero_work_is_noop(self):
        state = PollutionState(CpuConfig())
        state.add_kernel_work(0)
        state.decay(0)
        assert state.value == 0.0


class TestPerfCounters:
    def test_user_ipc(self):
        perf = PerfCounters()
        perf.user_instructions = 2000
        perf.user_cycles = 1000
        assert perf.user_ipc == 2.0

    def test_user_ipc_no_cycles(self):
        assert PerfCounters().user_ipc == 0.0

    def test_record_translation_latency(self):
        perf = PerfCounters()
        perf.record_translation("os-fault", 1000.0)
        perf.record_translation("os-fault", 3000.0)
        perf.record_translation("tlb-hit")
        assert perf.translations["os-fault"] == 2
        assert perf.translations["tlb-hit"] == 1
        assert perf.miss_latency["os-fault"].mean == 2000.0
        assert "tlb-hit" not in perf.miss_latency

    def test_aggregate(self):
        a, b = PerfCounters("a"), PerfCounters("b")
        a.user_instructions, b.user_instructions = 100, 200
        a.kernel_instructions, b.kernel_instructions = 10, 20
        a.miss_events["llc_miss"] = 5
        b.miss_events["llc_miss"] = 7
        a.record_translation("os-fault", 100.0)
        b.record_translation("os-fault", 300.0)
        total = aggregate([a, b])
        assert total.user_instructions == 300
        assert total.kernel_instructions == 30
        assert total.miss_events["llc_miss"] == 12
        assert total.translations["os-fault"] == 2
        assert total.miss_latency["os-fault"].count == 2

    def test_misses_per_kinstr(self):
        perf = PerfCounters()
        perf.user_instructions = 10_000
        perf.miss_events["l1d_miss"] = 50
        assert perf.misses_per_kinstr("l1d_miss") == 5.0


class TestCores:
    def test_logical_core_numbering(self):
        sim = Simulator()
        complex_ = CpuComplex(sim, CpuConfig(physical_cores=2, smt_ways=2))
        ids = [lane.core_id for lane in complex_.logical_cores]
        assert ids == [0, 1, 2, 3]

    def test_one_thread_per_logical_core(self):
        sim, thread, complex_ = make_thread()
        with pytest.raises(ConfigError):
            ThreadContext(sim, "t1", FakeProcess(), complex_.logical_core(0), CpuConfig())

    def test_smt_factor_full_when_sibling_idle(self):
        sim = Simulator()
        complex_ = CpuComplex(sim, CpuConfig())
        lane0, lane1 = complex_.physical_cores[0].lanes
        assert lane0.smt_factor() == 1.0
        lane1.state = CoreState.USER
        assert lane0.smt_factor() == CpuConfig().smt_share_factor

    def test_stalled_sibling_does_not_contend(self):
        sim = Simulator()
        complex_ = CpuComplex(sim, CpuConfig())
        lane0, lane1 = complex_.physical_cores[0].lanes
        lane1.state = CoreState.STALLED
        assert lane0.smt_factor() == 1.0

    def test_kernel_sibling_contends(self):
        sim = Simulator()
        complex_ = CpuComplex(sim, CpuConfig())
        lane0, lane1 = complex_.physical_cores[0].lanes
        lane1.state = CoreState.KERNEL
        assert lane0.smt_factor() < 1.0

    def test_pollution_shared_within_physical_core(self):
        sim = Simulator()
        complex_ = CpuComplex(sim, CpuConfig())
        lane0, lane1 = complex_.physical_cores[0].lanes
        assert lane0.pollution is lane1.pollution
        other = complex_.physical_cores[1].lanes[0]
        assert other.pollution is not lane0.pollution

    def test_tlb_shootdown_counts(self):
        sim = Simulator()
        complex_ = CpuComplex(sim, CpuConfig(physical_cores=2))
        complex_.logical_core(0).mmu.tlb.fill(5, 50, True)
        complex_.logical_core(3).mmu.tlb.fill(5, 50, True)
        assert complex_.tlb_shootdown(5) == 2
        assert complex_.tlb_shootdown(5) == 0

    def test_tlb_shootdown_equals_per_lane_invalidate(self, monkeypatch):
        # The shootdown walks a TLB tuple cached at construction and asks
        # only the TLBs that hold the VPN; it must match invalidating
        # through every lane's MMU, count and contents.
        config = CpuConfig(physical_cores=4, smt_ways=2)
        fast, slow = CpuComplex(Simulator(), config), CpuComplex(Simulator(), config)
        for complex_ in (fast, slow):
            for index, lane in enumerate(complex_.logical_cores):
                for vpn in range(index % 3, 12, 2):
                    lane.mmu.tlb.fill(vpn, 100 + vpn, index % 2 == 0)
        asked = []
        invalidate = Tlb.invalidate
        monkeypatch.setattr(
            Tlb, "invalidate", lambda tlb, vpn: asked.append(tlb) or invalidate(tlb, vpn)
        )
        for vpn in (0, 3, 4, 7, 11, 40, 3):
            expected = sum(1 for lane in slow.logical_cores if lane.mmu.invalidate(vpn))
            asked.clear()
            assert fast.tlb_shootdown(vpn) == expected
            assert len(asked) == expected, "only TLBs holding the VPN are asked"
            for got, want in zip(fast.logical_cores, slow.logical_cores):
                assert list(got.mmu.tlb._map.items()) == list(want.mmu.tlb._map.items())
                assert got.mmu.tlb.invalidations == want.mmu.tlb.invalidations


class TestThreadCompute:
    def test_compute_duration_matches_ipc(self):
        sim, thread, _ = make_thread()
        cpu = thread.cpu

        def body():
            yield from thread.compute(28_000)

        spawn(sim, body())
        sim.run()
        expected_ns = 28_000 / cpu.base_user_ipc / cpu.freq_ghz
        assert sim.now == pytest.approx(expected_ns)
        assert thread.perf.user_instructions == 28_000
        assert thread.perf.user_ipc == pytest.approx(cpu.base_user_ipc)

    def test_compute_slower_when_polluted(self):
        sim, thread, _ = make_thread()
        thread.core.pollution.add_kernel_work(10_000_000)  # saturate

        def body():
            yield from thread.compute(10_000)

        spawn(sim, body())
        sim.run()
        assert thread.perf.user_ipc < thread.cpu.base_user_ipc

    def test_compute_decays_pollution(self):
        sim, thread, _ = make_thread()
        thread.core.pollution.add_kernel_work(100_000)
        before = thread.core.pollution.value
        instructions = 500_000

        def body():
            yield from thread.compute(instructions)

        spawn(sim, body())
        sim.run()
        import math

        expected = before * math.exp(-instructions / thread.cpu.pollution_decay_instr)
        assert thread.core.pollution.value == pytest.approx(expected, rel=1e-6)
        assert thread.core.pollution.value < before

    def test_smt_contention_slows_both(self):
        cpu = CpuConfig()
        sim = Simulator()
        complex_ = CpuComplex(sim, cpu)
        t0 = ThreadContext(sim, "a", FakeProcess(), complex_.logical_core(0), cpu)
        t1 = ThreadContext(sim, "b", FakeProcess(), complex_.logical_core(1), cpu)

        done = {}

        def body(thread, tag):
            yield from thread.compute(1_000_000)
            done[tag] = sim.now

        spawn(sim, body(t0, "a"))
        spawn(sim, body(t1, "b"))
        sim.run()
        solo_ns = 1_000_000 / cpu.base_user_ipc / cpu.freq_ghz
        assert done["a"] > solo_ns * 1.3  # contended most of the run

    def test_miss_events_accrue(self):
        sim, thread, _ = make_thread()

        def body():
            yield from thread.compute(100_000)

        spawn(sim, body())
        sim.run()
        expected = 100 * thread.cpu.miss_rates_per_kinstr["l1d_miss"]
        assert thread.perf.miss_events["l1d_miss"] == pytest.approx(expected)


class TestThreadKernelAndBlock:
    def test_kernel_phase_charges_and_pollutes(self):
        sim, thread, _ = make_thread()

        def body():
            yield from thread.kernel_phase(1000.0, "submit")

        spawn(sim, body())
        sim.run()
        assert sim.now == pytest.approx(1000.0)
        expected_instr = thread.cpu.kernel_ns_to_instructions(1000.0)
        assert thread.perf.kernel_instructions == pytest.approx(expected_instr)
        assert thread.core.pollution.value > 0

    def test_zero_kernel_phase_noop(self):
        sim, thread, _ = make_thread()

        def body():
            yield from thread.kernel_phase(0.0)

        spawn(sim, body())
        sim.run()
        assert thread.perf.kernel_instructions == 0

    def test_block_goes_idle_and_counts_cycles(self):
        sim, thread, _ = make_thread()
        completion = Completion(sim)
        states = []

        def body():
            value = yield from thread.block(completion)
            states.append((value, sim.now))

        spawn(sim, body())
        sim.schedule(1.0, lambda: states.append(thread.core.state))
        sim.schedule(5000.0, completion.fire, "io-done")
        sim.run()
        assert states[0] is CoreState.IDLE
        assert states[1] == ("io-done", 5000.0)
        assert thread.perf.blocked_cycles == pytest.approx(
            thread.cpu.ns_to_cycles(5000.0)
        )

    def test_stall_counts_cycles(self):
        sim, thread, _ = make_thread()

        def body():
            yield from thread.stall(100.0)

        spawn(sim, body())
        sim.run()
        assert thread.perf.stall_cycles == pytest.approx(thread.cpu.ns_to_cycles(100.0))


# ----------------------------------------------------------------------
# the inlined pollution and SMT math against the helpers it inlines
# ----------------------------------------------------------------------
class _ReferenceThread(ThreadContext):
    """``compute``/``kernel_phase`` written through the helpers they
    inline: :meth:`LogicalCore.smt_factor`, :meth:`PollutionState.decay`
    and :meth:`PollutionState.add_kernel_work`."""

    def compute(self, instructions):
        remaining = float(instructions)
        core = self.core
        pollution = core.pollution
        while remaining > 0:
            chunk = min(remaining, COMPUTE_QUANTUM)
            ipc = (self.cpu.base_user_ipc * self.ipc_scale) * pollution.ipc_factor() \
                * core.smt_factor()
            cycles = chunk / ipc
            core.state = CoreState.USER
            yield cycles / self.cpu.freq_ghz
            self.perf.user_instructions += chunk
            self.perf.user_cycles += cycles
            for event, rate in pollution.miss_rates().items():
                self.perf.miss_events[event] += (chunk / 1000.0) * rate
            pollution.decay(chunk)
            remaining -= chunk
        core.state = CoreState.IDLE

    def kernel_phase(self, ns, name=""):
        if ns <= 0:
            return
        self.core.state = CoreState.KERNEL
        yield ns
        cycles = ns * self.cpu.freq_ghz
        instructions = cycles * self.cpu.kernel_ipc
        self.perf.kernel_instructions += instructions
        self.perf.kernel_cycles += cycles
        self.core.pollution.add_kernel_work(instructions)
        self.core.state = CoreState.STALLED


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("compute"), st.floats(min_value=0, max_value=90_000)),
        st.tuples(st.just("kernel"), st.floats(min_value=-5.0, max_value=8_000.0)),
    ),
    min_size=1,
    max_size=12,
)


@given(first=_STEPS, second=_STEPS, scale=st.sampled_from([1.0, 0.7]))
@settings(max_examples=60, deadline=None)
def test_inlined_pollution_math_is_bit_identical(first, second, scale):
    """Two SMT siblings interleaving compute and kernel phases end with the
    same clock, counters and pollution, float for float, as threads that
    call the helpers."""
    outcomes = []
    for thread_class in (ThreadContext, _ReferenceThread):
        sim = Simulator()
        cpu = CpuConfig(physical_cores=1, smt_ways=2)
        complex_ = CpuComplex(sim, cpu)
        threads = [
            thread_class(sim, f"t{lane}", FakeProcess(), complex_.logical_core(lane), cpu)
            for lane in (0, 1)
        ]
        times = []

        def body(thread, steps):
            thread.ipc_scale = scale
            for kind, amount in steps:
                if kind == "compute":
                    yield from thread.compute(amount)
                else:
                    yield from thread.kernel_phase(amount)
                times.append((thread.name, sim.now))

        for thread, steps in zip(threads, (first, second)):
            spawn(sim, body(thread, steps))
        sim.run()
        outcomes.append((
            times,
            complex_.physical_cores[0].pollution.value,
            [(t.perf.user_instructions, t.perf.user_cycles, t.perf.kernel_instructions,
              t.perf.kernel_cycles, dict(t.perf.miss_events)) for t in threads],
        ))
    assert outcomes[0] == outcomes[1]
