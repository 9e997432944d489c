"""End-to-end error-path tests: injected faults through SMU/OS/app layers.

Every test ends with the post-run invariant checker — the point of these
paths is not only that the right error surfaces, but that nothing leaks
on the way: no PMSHR entries, no frames, no in-flight tags, no per-pid
outstanding counts (which would hang a later munmap barrier).
"""

import pytest

from repro.config import PagingMode, ResilienceConfig
from repro.errors import IoError
from repro.faults import FaultKind, FaultPlan, FaultRule, assert_invariants
from repro.mem.address import PAGE_SHIFT
from repro.vm.mmu import TranslationKind

from tests.helpers import build_mapped_system, touch_pages


def quiesce(system, extra_ns=2_000_000.0):
    system.sim.run(until=system.sim.now + extra_ns)


def run_concurrent(system, bodies):
    """Spawn all bodies and step the sim until every one finishes."""
    procs = [system.spawn(body, f"concurrent-{i}") for i, body in enumerate(bodies)]
    while not all(proc.finished for proc in procs):
        if not system.sim.step():
            raise RuntimeError("concurrent bodies stalled: a wait was lost")
    return procs


def read_errors(max_count=None, probability=1.0):
    return FaultPlan(
        rules=(
            FaultRule(
                kind=FaultKind.READ_ERROR,
                max_count=max_count,
                probability=probability,
            ),
        ),
        name="read-errors",
    )


# ----------------------------------------------------------------------
# HWDP: SMU completion unit observes errors, retries, degrades
# ----------------------------------------------------------------------
class TestHwdpErrorPath:
    def test_retry_then_success(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, fault_plan=read_errors(max_count=1)
        )
        results = touch_pages(system, thread, vma, [0])
        assert results[0].kind is TranslationKind.HW_MISS
        counters = system.kernel.counters
        assert counters["smu.io_errors"] == 1
        assert counters["smu.io_retries"] == 1
        assert counters["smu.io_error_failures"] == 0
        quiesce(system)
        assert_invariants(system)

    def test_retries_exhausted_falls_back_to_os(self):
        # max_count = 1 initial attempt + 2 retries: the SMU's whole budget
        # fails, the OS fallback read (attempt 4) succeeds.
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, fault_plan=read_errors(max_count=3)
        )
        results = touch_pages(system, thread, vma, [0])
        assert results[0].kind is TranslationKind.HW_FALLBACK_FAULT
        assert results[0].pfn is not None
        counters = system.kernel.counters
        assert counters["smu.io_errors"] == 3
        assert counters["smu.io_error_failures"] == 1
        assert system.smu.io_error_failures == 1
        assert system.device.read_errors == 3
        # The failed miss released its PMSHR entry before failing over.
        assert system.smu.pmshr.outstanding == 0
        quiesce(system)
        assert_invariants(system)

    def test_coalesced_walk_fails_over_with_leader(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, fault_plan=read_errors(max_count=3)
        )
        process = thread.process
        other = system.workload_thread(process, index=1)
        results = {}

        def toucher(name, t):
            translation = yield from t.mem_access(vma.start, False)
            results[name] = translation

        run_concurrent(system, [toucher("leader", thread), toucher("waiter", other)])
        # Both walks complete despite the leader's miss failing in hardware.
        assert results["leader"].pfn == results["waiter"].pfn
        quiesce(system)
        assert_invariants(system)

    def test_retry_budget_configurable(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            fault_plan=read_errors(max_count=1),
            resilience=ResilienceConfig(smu_io_retries=0),
        )
        results = touch_pages(system, thread, vma, [0])
        # No retries allowed: the single error immediately degrades.
        assert results[0].kind is TranslationKind.HW_FALLBACK_FAULT
        assert system.kernel.counters["smu.io_retries"] == 0
        assert system.kernel.counters["smu.io_error_failures"] == 1
        quiesce(system)
        assert_invariants(system)


# ----------------------------------------------------------------------
# OSDP: kernel retries, then delivers SIGBUS-style IoError
# ----------------------------------------------------------------------
class TestOsdpErrorPath:
    def test_ioerror_delivered_after_retries(self):
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, fault_plan=read_errors()
        )
        caught = {}

        def body():
            try:
                yield from thread.mem_access(vma.start, False)
            except IoError as exc:
                caught["exc"] = exc

        run_concurrent(system, [body()])
        assert "exc" in caught
        counters = system.kernel.counters
        assert counters["fault.io_errors"] == 3  # 1 attempt + 2 retries
        assert counters["fault.io_retries"] == 2
        assert counters["fault.io_errors_delivered"] == 1
        quiesce(system)
        # The allocated frame was returned: nothing leaks.
        assert_invariants(system)

    def test_transient_error_recovers(self):
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, fault_plan=read_errors(max_count=1)
        )
        results = touch_pages(system, thread, vma, [0])
        assert results[0].kind is TranslationKind.OS_FAULT
        assert results[0].pfn is not None
        assert system.kernel.counters["fault.io_errors_delivered"] == 0
        quiesce(system)
        assert_invariants(system)

    def test_coalesced_waiter_gets_ioerror(self):
        system, thread, vma = build_mapped_system(
            PagingMode.OSDP, fault_plan=read_errors()
        )
        other = system.workload_thread(thread.process, index=1)
        failures = []

        def toucher(t):
            try:
                yield from t.mem_access(vma.start, False)
            except IoError:
                failures.append(t.name)

        run_concurrent(system, [toucher(thread), toucher(other)])
        # Leader and page-lock sleeper both observe the failure; the
        # sleeper must not hang on a completion that never fires.
        assert len(failures) == 2
        assert system.kernel.counters["fault.coalesced_io_errors"] == 1
        quiesce(system)
        assert_invariants(system)


# ----------------------------------------------------------------------
# writeback errors surface at msync (errseq_t semantics)
# ----------------------------------------------------------------------
class TestWritebackErrors:
    def test_msync_reports_latched_write_error_once(self):
        plan = FaultPlan(rules=(FaultRule(kind=FaultKind.WRITE_ERROR),))
        system, thread, vma = build_mapped_system(PagingMode.OSDP, fault_plan=plan)
        kernel = system.kernel
        file = vma.file
        outcome = {}

        def body():
            yield from kernel.file_write(thread, file, 0)
            yield 200_000.0  # let the write complete (with its error)
            try:
                yield from kernel.sys_msync(thread, vma)
            except IoError as exc:
                outcome["raised"] = exc
            # errseq consumed: a second sync point reports clean.
            synced = yield from kernel.sys_msync(thread, vma)
            outcome["second"] = synced

        run_concurrent(system, [body()])
        assert "raised" in outcome
        assert "second" in outcome
        assert file.write_errors == 1
        assert not file.pending_write_error
        assert kernel.counters["writeback.errors"] == 1
        assert kernel.counters["msync.io_errors"] == 1
        assert kernel.blockio.write_errors == 1
        quiesce(system)
        assert_invariants(system)


# ----------------------------------------------------------------------
# free-page-queue starvation (satellite: queue-empty fallback coverage)
# ----------------------------------------------------------------------
class TestQueueStarvation:
    def test_queue_empty_fallback_under_load(self):
        # No kpoold and a tiny queue: touching far more pages than the
        # boot fill drives the queue dry; every dry miss must release its
        # PMSHR entry and complete through the OS path.
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            file_pages=96,
            free_queue_depth=16,
            kpoold_enabled=False,
        )
        results = touch_pages(system, thread, vma, list(range(96)))
        counters = system.kernel.counters
        assert counters["smu.queue_empty_failures"] > 0
        assert all(r.pfn is not None for r in results)
        fallbacks = [
            r for r in results if r.kind is TranslationKind.HW_FALLBACK_FAULT
        ]
        assert len(fallbacks) > 0
        assert system.smu.pmshr.outstanding == 0
        quiesce(system)
        assert_invariants(system)

    def test_injected_refill_starvation(self):
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.QUEUE_STARVATION),),
            name="starve-refills",
        )
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            file_pages=96,
            free_queue_depth=16,
            kpoold_period_ns=20_000.0,
            fault_plan=plan,
        )
        results = touch_pages(system, thread, vma, list(range(96)))
        counters = system.kernel.counters
        # Every refill (kpoold and the fallback's sync refill) was
        # suppressed, so the queue stayed dry after the boot fill.
        assert counters["refill.starved"] > 0
        assert counters["smu.queue_empty_failures"] > 0
        assert counters["refill.sync_pages"] == 0
        assert all(r.pfn is not None for r in results)
        quiesce(system)
        assert_invariants(system)


# ----------------------------------------------------------------------
# munmap SMU barrier vs. error-path misses (satellite)
# ----------------------------------------------------------------------
class TestBarrierWithFailedMiss:
    def test_barrier_drains_when_miss_fails(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP,
            fault_plan=read_errors(max_count=3),
            device_read_ns=50_000.0,
        )
        smu = system.smu
        process = thread.process
        order = []

        def toucher():
            translation = yield from thread.mem_access(vma.start, False)
            order.append(("touch-done", translation.kind))

        def barrier_waiter():
            yield 10_000.0  # arrive while the failing miss is in flight
            assert smu.outstanding_for(process) > 0
            yield from smu.barrier(process)
            order.append(("barrier-done", smu.outstanding_for(process)))

        run_concurrent(system, [toucher(), barrier_waiter()])
        # The barrier returned (no hang) once the error path drained the
        # per-pid count — before the OS fallback completed the miss.
        assert ("barrier-done", 0) in order
        assert smu.outstanding_for(process) == 0

    def test_munmap_completes_after_failed_misses(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, fault_plan=read_errors(max_count=3)
        )
        touch_pages(system, thread, vma, [0, 1, 2])

        def unmap():
            yield from system.kernel.sys_munmap(thread, vma)

        run_concurrent(system, [unmap()])
        assert vma not in thread.process.layout.vmas
        quiesce(system)
        assert_invariants(system)


# ----------------------------------------------------------------------
# SQ backpressure (satellite: no hard overflow on SMU queues)
# ----------------------------------------------------------------------
class TestSqBackpressure:
    def test_full_sq_waits_instead_of_crashing(self):
        system, thread, vma = build_mapped_system(
            PagingMode.HWDP, sq_depth=1, device_read_ns=20_000.0
        )
        other = system.workload_thread(thread.process, index=1)
        results = []

        def toucher(t, page):
            translation = yield from t.mem_access(
                vma.start + (page << PAGE_SHIFT), False
            )
            results.append(translation)

        run_concurrent(system, [toucher(thread, 0), toucher(other, 1)])
        assert len(results) == 2
        assert all(r.pfn is not None for r in results)
        assert system.smu.host.sq_backpressure_waits > 0
        quiesce(system)
        assert_invariants(system)


# ----------------------------------------------------------------------
# SWDP: emulated path retries and fails over like the hardware
# ----------------------------------------------------------------------
class TestSwdpErrorPath:
    def test_swdp_fails_over_to_os_path(self):
        system, thread, vma = build_mapped_system(
            PagingMode.SWDP, fault_plan=read_errors(max_count=3)
        )
        results = touch_pages(system, thread, vma, [0])
        assert results[0].pfn is not None
        counters = system.kernel.counters
        assert counters["fault.swdp_io_errors"] == 3
        assert counters["fault.swdp_io_error_failures"] == 1
        assert system.kernel.fault_handler.sw_pmshr.outstanding == 0
        quiesce(system)
        assert_invariants(system)
