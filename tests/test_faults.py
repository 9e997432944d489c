"""Unit and integration tests for the fault-injection subsystem itself.

Covers plan validation, rule predicates, injector decision logic (opcode
and device matching, windows, caps, probability), device-level status
stamping, and the determinism guarantee: a fixed (seed, plan) pair drives
byte-identical runs.
"""

import pytest

from repro.config import PagingMode
from repro.core.system import build_system
from repro.errors import ConfigError, InvariantViolation
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
    assert_invariants,
    check_invariants,
    read_error_plan,
)
from repro.sim import RngStreams
from repro.storage.nvme import NVMeCommand, NVMeOpcode, NVMeStatus

from tests.helpers import build_mapped_system, tiny_config, touch_pages


# ----------------------------------------------------------------------
# plan construction and validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_probability_must_be_unit_interval(self):
        with pytest.raises(ConfigError):
            FaultRule(kind=FaultKind.READ_ERROR, probability=1.5)

    def test_lba_window_must_be_ordered(self):
        with pytest.raises(ConfigError):
            FaultRule(kind=FaultKind.READ_ERROR, lba_start=8, lba_end=8)

    def test_time_window_must_be_ordered(self):
        with pytest.raises(ConfigError):
            FaultRule(kind=FaultKind.READ_ERROR, start_ns=5.0, end_ns=1.0)

    def test_max_count_must_be_positive(self):
        with pytest.raises(ConfigError):
            FaultRule(kind=FaultKind.READ_ERROR, max_count=0)

    def test_rules_list_coerced_to_tuple(self):
        plan = FaultPlan(rules=[FaultRule(kind=FaultKind.READ_ERROR)])
        assert isinstance(plan.rules, tuple)

    def test_rule_kind_partition(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind=FaultKind.READ_ERROR),
                FaultRule(kind=FaultKind.QUEUE_STARVATION),
            )
        )
        assert len(plan.command_rules) == 1
        assert len(plan.starvation_rules) == 1

    def test_describe_is_json_friendly(self):
        import json

        plan = read_error_plan(0.25, device="ssd0", name="quarter")
        text = json.dumps(plan.describe())
        assert "quarter" in text and "0.25" in text

    def test_rule_predicates(self):
        rule = FaultRule(
            kind=FaultKind.READ_ERROR,
            device="a",
            lba_start=8,
            lba_end=16,
            start_ns=100.0,
            end_ns=200.0,
        )
        assert rule.applies_to_device("a") and not rule.applies_to_device("b")
        assert rule.covers_lba(8) and rule.covers_lba(15)
        assert not rule.covers_lba(7) and not rule.covers_lba(16)
        assert rule.in_window(100.0) and rule.in_window(199.9)
        assert not rule.in_window(99.9) and not rule.in_window(200.0)


# ----------------------------------------------------------------------
# injector decision logic
# ----------------------------------------------------------------------
def _injector(plan, seed=7):
    return FaultInjector(plan, RngStreams(seed).stream("fault-injector"))


def _read(lba=0):
    return NVMeCommand(NVMeOpcode.READ, nsid=1, lba=lba)


def _write(lba=0):
    return NVMeCommand(NVMeOpcode.WRITE, nsid=1, lba=lba)


class TestFaultInjector:
    def test_read_rule_ignores_writes(self):
        injector = _injector(read_error_plan(1.0))
        assert injector.decide("dev", _write(), 0.0) is None
        decision = injector.decide("dev", _read(), 0.0)
        assert decision is not None
        assert decision.status_name == "UNRECOVERED_READ"

    def test_write_rule_ignores_reads(self):
        plan = FaultPlan(rules=(FaultRule(kind=FaultKind.WRITE_ERROR),))
        injector = _injector(plan)
        assert injector.decide("dev", _read(), 0.0) is None
        assert injector.decide("dev", _write(), 0.0).status_name == "WRITE_FAULT"

    def test_device_filter(self):
        injector = _injector(read_error_plan(1.0, device="only-this"))
        assert injector.decide("other", _read(), 0.0) is None
        assert injector.decide("only-this", _read(), 0.0) is not None

    def test_max_count_exhausts(self):
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.READ_ERROR, max_count=2),)
        )
        injector = _injector(plan)
        assert injector.decide("dev", _read(), 0.0) is not None
        assert injector.decide("dev", _read(), 0.0) is not None
        assert injector.decide("dev", _read(), 0.0) is None
        assert injector.injected_total == 2

    def test_timeout_carries_extra_delay(self):
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.TIMEOUT, timeout_ns=12_345.0),)
        )
        decision = _injector(plan).decide("dev", _read(), 0.0)
        assert decision.status_name == "COMMAND_TIMEOUT"
        assert decision.extra_delay_ns == 12_345.0

    def test_probabilistic_decisions_are_seed_deterministic(self):
        plan = read_error_plan(0.3)
        a, b = _injector(plan, seed=11), _injector(plan, seed=11)
        outcomes_a = [a.decide("d", _read(), 0.0) is not None for _ in range(64)]
        outcomes_b = [b.decide("d", _read(), 0.0) is not None for _ in range(64)]
        assert outcomes_a == outcomes_b
        assert any(outcomes_a) and not all(outcomes_a)

    def test_first_eligible_rule_wins(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind=FaultKind.TIMEOUT, lba_start=0, lba_end=8),
                FaultRule(kind=FaultKind.READ_ERROR),
            )
        )
        injector = _injector(plan)
        assert injector.decide("d", _read(lba=0), 0.0).status_name == "COMMAND_TIMEOUT"
        assert injector.decide("d", _read(lba=8), 0.0).status_name == "UNRECOVERED_READ"

    def test_starvation_rule_windowed(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    kind=FaultKind.QUEUE_STARVATION, start_ns=100.0, end_ns=200.0
                ),
            )
        )
        injector = _injector(plan)
        assert not injector.starving(50.0)
        assert injector.starving(150.0)
        assert not injector.starving(250.0)


# ----------------------------------------------------------------------
# device-level integration
# ----------------------------------------------------------------------
class TestDeviceIntegration:
    def test_no_plan_means_no_injector(self):
        system, _, _ = build_mapped_system(PagingMode.HWDP)
        assert system.fault_injector is None
        assert system.device.fault_injector is None
        assert system.kernel.fault_injector is None

    def test_injected_read_error_stamps_status(self):
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.READ_ERROR, max_count=1),)
        )
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, fault_plan=plan
        )
        touch_pages(system, thread, vma, [0])
        assert system.device.read_errors == 1
        assert system.kernel.blockio.read_errors == 1

    def test_injected_timeout_delays_and_errors(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    kind=FaultKind.TIMEOUT, max_count=1, timeout_ns=500_000.0
                ),
            )
        )
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, fault_plan=plan
        )
        results = touch_pages(system, thread, vma, [0])
        # Timed-out command is reaped as an error; the retry succeeds.
        assert system.device.timeouts == 1
        assert results[0].pfn is not None
        assert system.sim.now > 500_000.0

    def test_error_completions_excluded_from_device_stats(self):
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.READ_ERROR, max_count=1),)
        )
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, fault_plan=plan
        )
        touch_pages(system, thread, vma, [0, 1])
        assert system.device.read_device_time.count == system.device.reads_completed


# ----------------------------------------------------------------------
# determinism: fixed (seed, plan) => identical runs
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("mode", [PagingMode.OSDP, PagingMode.HWDP])
    def test_same_seed_same_plan_identical_counters(self, mode):
        def one_run():
            plan = read_error_plan(0.3)
            system, thread, vma = build_mapped_system(
                mode, file_pages=96, fault_plan=plan
            )
            from repro.errors import IoError
            from repro.mem.address import PAGE_SHIFT

            def body():
                for index in range(96):
                    vaddr = vma.start + (index << PAGE_SHIFT)
                    try:
                        yield from thread.mem_access(vaddr, False)
                    except IoError:
                        pass

            proc = system.spawn(body(), "touch")
            while not proc.finished:
                system.sim.step()
            return system.kernel.counters.as_dict(), system.sim.now

        counters_a, now_a = one_run()
        counters_b, now_b = one_run()
        assert counters_a == counters_b
        assert now_a == now_b


# ----------------------------------------------------------------------
# the invariant checker itself
# ----------------------------------------------------------------------
class TestInvariantChecker:
    def test_clean_system_passes(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, list(range(16)))
        system.sim.run(until=system.sim.now + 2_000_000.0)
        report = assert_invariants(system)
        assert report.ok
        assert report.observed["resident"] >= 16 or report.observed["pending_sync"] > 0

    def test_leaked_frame_detected(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0])
        system.sim.run(until=system.sim.now + 2_000_000.0)
        # Simulate a leak: a frame allocated but tracked by no owner.
        system.kernel.frame_pool.alloc_batch(1)
        report = check_invariants(system)
        assert not report.ok
        assert any("frame leak" in violation for violation in report.violations)
        with pytest.raises(InvariantViolation):
            assert_invariants(system)

    def test_entry_left_in_cq_detected(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0])
        system.sim.run(until=system.sim.now + 2_000_000.0)
        assert check_invariants(system).ok
        # A lost wake-up: the entry is in the CQ but no drain will take it.
        system.kernel.blockio.qp.cq._items.append(
            NVMeCommand(NVMeOpcode.READ, nsid=1, lba=0, cid=999)
        )
        report = check_invariants(system)
        assert any("never took" in violation for violation in report.violations)
        assert not any("drain still pending" in v for v in report.violations)

    def test_pending_cq_drain_detected(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0])
        system.sim.run(until=system.sim.now + 2_000_000.0)
        # Checked between the CQ write and the drain it schedules.
        system.kernel.blockio.qp.cq.put_nowait(
            NVMeCommand(NVMeOpcode.READ, nsid=1, lba=0, cid=999)
        )
        report = check_invariants(system)
        assert any("drain still pending" in v for v in report.violations)
        assert any("never took" in v for v in report.violations)

    def test_leaked_pmshr_entry_detected(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, [0])
        system.sim.run(until=system.sim.now + 2_000_000.0)
        system.smu.pmshr.allocate(0xDEAD000, 0, 0, 0, 64)
        report = check_invariants(system)
        assert any("PMSHR" in violation for violation in report.violations)


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_resilience_validation(self):
        from repro.config import ResilienceConfig

        with pytest.raises(ConfigError):
            ResilienceConfig(smu_io_retries=-1)
        with pytest.raises(ConfigError):
            ResilienceConfig(os_retry_backoff_ns=-1.0)

    def test_sq_depth_validation(self):
        from repro.config import SmuConfig

        with pytest.raises(ConfigError):
            SmuConfig(sq_depth=0)

    def test_plan_rides_in_config(self):
        plan = read_error_plan(1.0)
        config = tiny_config(PagingMode.HWDP, fault_plan=plan)
        system = build_system(config)
        assert system.fault_injector is not None
        assert system.device.fault_injector is system.fault_injector
        assert system.kernel.fault_injector is system.fault_injector
