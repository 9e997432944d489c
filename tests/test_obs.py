"""Tests for repro.obs: miss-lifecycle spans, exporters, metrics, and the
zero-perturbation guarantee."""

import json

import pytest

from repro.config import PagingMode
from repro.errors import SimulationError
from repro.obs import (
    COALESCED,
    COMPLETED,
    PATH_HWDP,
    PATH_OSDP,
    PATH_SWDP,
    MetricsRegistry,
    MissSpan,
    TraceSink,
    chrome_trace,
    span_breakdown,
    validate_chrome_trace,
)
from repro.obs.export import breakdown_report

from tests.helpers import build_mapped_system, touch_pages

#: The kernel phases of one OSDP fault (the rows of Fig. 3).
OS_PHASES = (
    "exception_walk",
    "handler_entry",
    "page_alloc",
    "io_submit",
    "context_switch_out",
    "interrupt_delivery",
    "io_completion",
    "context_switch_in",
    "metadata_update",
    "return",
)


def traced_system(mode, **kwargs):
    system, thread, vma = build_mapped_system(mode, **kwargs)
    sink = TraceSink()
    sink.attach(system.sim, unit="test")
    return system, thread, vma, sink


def hand_span(path, *events):
    span = MissSpan(0, "unit", path, "t0", 0.0)
    for time_ns, name, duration_ns in events:
        span.event(time_ns, name, duration_ns)
    return span


class TestSpanBreakdown:
    def test_totals_and_counts(self):
        spans = [
            hand_span(PATH_OSDP, (0.0, "io_submit", 100.0), (5.0, "exception", 50.0)),
            hand_span(PATH_OSDP, (10.0, "io_submit", 140.0)),
            hand_span(PATH_HWDP, (20.0, "io_submit", 999.0)),
        ]
        breakdown = span_breakdown(spans, PATH_OSDP)
        assert breakdown.totals_ns == {"io_submit": 240.0, "exception": 50.0}
        assert breakdown.counts == {"io_submit": 2, "exception": 1}
        assert breakdown.mean_ns("io_submit") == 120.0
        assert breakdown.total_ns == 290.0
        assert breakdown.fraction("exception") == pytest.approx(50.0 / 290.0)
        # Without a path every span counts.
        assert span_breakdown(spans).counts["io_submit"] == 3

    def test_empty(self):
        breakdown = span_breakdown([])
        assert breakdown.total_ns == 0.0
        assert breakdown.mean_ns("anything") == 0.0
        assert breakdown.fraction("anything") == 0.0

    def test_to_text_sorted_by_total(self):
        span = hand_span(PATH_OSDP, (0.0, "alpha", 10.0), (1.0, "beta", 30.0))
        text = span_breakdown([span]).to_text("demo")
        assert "demo" in text
        assert "alpha" in text and "beta" in text
        assert "TOTAL" in text
        # Sorted by total, descending: beta first.
        assert text.index("beta") < text.index("alpha")


class TestOsdpSpans:
    def test_span_per_fault_with_full_lifecycle(self):
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, range(8))
        spans = sink.spans_by_path(PATH_OSDP)
        assert len(spans) == 8
        assert sink.span_count() == system.kernel.counters["fault.exceptions"]
        assert sink.open_spans == 0
        for span in spans:
            assert span.closed
            assert span.outcome == COMPLETED
            assert span.pfn is not None
            assert span.duration_ns > 0
            names = [name for _, name, _ in span.events]
            # Fault entry ... io submit ... device ... PTE update/return.
            assert names[0] == "exception_walk"
            assert "io_submit" in names
            assert "device_service" in names
            assert names[-1] == "return"

    def test_component_instants_recorded(self):
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, range(4))
        names = {instant.name for instant in sink.instants}
        assert {"nvme.submit", "nvme.complete", "kernel.pte_install"} <= names

    def test_spans_capture_fault_phases(self):
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, [0, 1])
        breakdown = span_breakdown(sink.spans, PATH_OSDP)
        for phase in OS_PHASES:
            assert breakdown.counts[phase] == 2, phase
        costs = system.config.osdp_costs
        assert breakdown.mean_ns("io_submit") == pytest.approx(costs.io_submit_ns)
        kernel_ns = breakdown.total_ns - breakdown.totals_ns["device_service"]
        assert kernel_ns == pytest.approx(2 * costs.total_cpu_ns, rel=0.01)

    def test_spans_hold_every_kernel_phase_of_the_faults(self):
        # The spans are the one record of the fault path's kernel phases:
        # every kernel cycle the faults charge the thread is in a span.
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        cycles_before = thread.perf.kernel_cycles
        touch_pages(system, thread, vma, range(6))
        breakdown = span_breakdown(sink.spans, PATH_OSDP)
        kernel_ns = breakdown.total_ns - breakdown.totals_ns["device_service"]
        charged_ns = (thread.perf.kernel_cycles - cycles_before) / system.config.cpu.freq_ghz
        assert kernel_ns == pytest.approx(charged_ns)
        assert set(breakdown.counts) == set(OS_PHASES) | {"device_service"}


class TestHwdpSpans:
    def test_hardware_pipeline_segments(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(8))
        spans = sink.spans_by_path(PATH_HWDP)
        assert len(spans) == 8
        assert len(spans) == system.smu.misses_handled
        assert sink.open_spans == 0
        for span in spans:
            assert span.outcome == COMPLETED
            names = [name for _, name, _ in span.events]
            for expected in (
                "request_cam_lookup",
                "pmshr_allocate",
                "free_page_fetch",
                "sq_submit",
                "nvme_service",
                "completion_snoop",
                "page_table_update",
                "notify_broadcast",
            ):
                assert expected in names, f"{expected} missing from {names}"

    def test_hwdp_spans_carry_no_os_phases(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        cycles_before = thread.perf.kernel_cycles
        touch_pages(system, thread, vma, [0, 1])
        names = {name for span in sink.spans for _, name, _ in span.events}
        assert sink.span_count(PATH_HWDP) == 2
        assert names.isdisjoint(OS_PHASES)
        # Hardware path: no kernel time charged to the thread at all.
        assert thread.perf.kernel_cycles == cycles_before

    def test_pmshr_and_host_instants(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(4))
        names = {instant.name for instant in sink.instants}
        assert {
            "pmshr.allocate",
            "pmshr.release",
            "smu_host.sq_doorbell",
            "smu_host.cq_snoop",
        } <= names

    def test_swdp_emulation_emits_hw_install_instants(self):
        system, thread, vma, sink = traced_system(PagingMode.SWDP)
        touch_pages(system, thread, vma, range(3))
        names = {instant.name for instant in sink.instants}
        assert {"pmshr.allocate", "pmshr.release", "kernel.hw_pte_install"} <= names

    def test_coalesced_miss_spans(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        other = system.workload_thread(thread.process, index=1)
        page = vma.start

        def toucher(t):
            def body():
                yield from t.mem_access(page)

            return body

        procs = [
            system.spawn(toucher(thread)(), "a"),
            system.spawn(toucher(other)(), "b"),
        ]
        while not all(p.finished for p in procs):
            assert system.sim.step()
        outcomes = sorted(s.outcome for s in sink.spans_by_path(PATH_HWDP))
        assert outcomes == [COALESCED, COMPLETED]
        coalesced = next(s for s in sink.spans if s.outcome == COALESCED)
        assert any(name == "coalesced_wait" for _, name, _ in coalesced.events)


class TestSwdpSpans:
    def test_emulated_path_retags_span(self):
        system, thread, vma, sink = traced_system(PagingMode.SWDP)
        touch_pages(system, thread, vma, range(6))
        spans = sink.spans_by_path(PATH_SWDP)
        assert len(spans) == 6
        for span in spans:
            names = [name for _, name, _ in span.events]
            assert names[0] == "exception_walk"
            assert "emu_submit" in names
            assert "device_service" in names


class TestChromeTraceExport:
    def test_schema_valid_and_counts_match(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(5))
        data = chrome_trace(sink)
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["span_count"] == 5
        slices = [
            e
            for e in data["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("miss:")
        ]
        assert len(slices) == 5
        # JSON-serialisable end to end (what write_chrome_trace emits).
        json.dumps(data)

    def test_units_get_distinct_pids(self):
        # One sink follows several simulators in turn, as the CLI does.
        sink = TraceSink()
        for unit in ("cell-a", "cell-b"):
            system, thread, vma = build_mapped_system(PagingMode.OSDP)
            sink.attach(system.sim, unit=unit)
            touch_pages(system, thread, vma, range(2))
        assert sink.units == ["cell-a", "cell-b"]
        assert [span.unit for span in sink.spans] == ["cell-a"] * 2 + ["cell-b"] * 2
        assert sink.open_spans == 0
        data = chrome_trace(sink)
        span_pids = {
            e["pid"]
            for e in data["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("miss:")
        }
        assert len(span_pids) == 2

    def test_validator_flags_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]}) != []
        bad_dur = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0, "dur": -1}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(bad_dur))

    def test_breakdown_report_lists_every_path(self):
        system, thread, vma, sink = traced_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(3))
        report = breakdown_report(sink)
        assert "hwdp" in report
        assert "nvme_service" in report
        assert breakdown_report(TraceSink()) == "(no spans recorded)"


class TestSinkWiring:
    def test_second_sink_on_one_simulator_raises(self):
        system, thread, vma, sink = traced_system(PagingMode.OSDP)
        second = TraceSink()
        with pytest.raises(SimulationError, match="trace sink"):
            second.attach(system.sim, unit="second")
        assert second.units == []
        touch_pages(system, thread, vma, range(3))
        assert system.sim.trace is sink
        assert sink.span_count(PATH_OSDP) == 3


class TestZeroPerturbation:
    @pytest.mark.parametrize("mode", [PagingMode.OSDP, PagingMode.SWDP, PagingMode.HWDP])
    def test_traced_run_is_byte_identical(self, mode):
        def run(traced):
            system, thread, vma = build_mapped_system(mode)
            if traced:
                sink = TraceSink()
                sink.attach(system.sim, unit="probe")
            touch_pages(system, thread, vma, range(16))
            return (
                system.sim.now,
                system.sim.events_dispatched,
                system.kernel.counters.as_dict(),
                thread.perf.user_instructions,
                thread.perf.kernel_instructions,
            )

        assert run(traced=False) == run(traced=True)


class TestMetricsRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.register_gauge("x", lambda: 1)
        with pytest.raises(ValueError, match="registered twice"):
            registry.register_gauge("x", lambda: 2)

    def test_system_registry_collects_unified_namespace(self):
        system, thread, vma = build_mapped_system(PagingMode.HWDP)
        touch_pages(system, thread, vma, range(8))
        snapshot = system.metrics.collect()
        # No exception was ever taken, so the counter was never recorded.
        assert snapshot.get("kernel.fault.exceptions", 0) == 0
        assert snapshot["smu0.misses_handled"] == 8
        assert snapshot["smu0.pmshr.allocated"] == 8
        assert snapshot["device.reads_completed"] >= 8
        assert snapshot["sim.events_dispatched"] == system.sim.events_dispatched
        assert snapshot["free_queue0.occupancy"] >= 0
        # The snapshot is one flat JSON-ready mapping.
        json.dumps(snapshot)

    def test_osdp_registry_has_no_smu_sources(self):
        system, thread, vma = build_mapped_system(PagingMode.OSDP)
        touch_pages(system, thread, vma, range(2))
        snapshot = system.metrics.collect()
        assert snapshot["kernel.fault.major"] == 2
        assert not any(key.startswith("smu0.") for key in snapshot)


class TestEngineObservation:
    def test_observed_run_matches_unobserved(self):
        from repro.experiments import engine
        from repro.experiments.runner import QUICK
        from repro.obs.runtime import Observation

        plain = engine.run_spec("fig03", QUICK)
        observation = Observation(trace=TraceSink(), metrics=True)
        observed = engine.run_spec("fig03", QUICK, observation=observation)
        assert observed.to_text() == plain.to_text()
        assert observation.trace.span_count() > 0
        assert observation.trace.units == ["fig03"]
        assert [unit for unit, _ in observation.registries] == ["fig03"]

    def test_fig03_reads_the_runs_own_sink(self):
        from repro.experiments.fig03_fault_breakdown import _cell
        from repro.experiments.runner import QUICK
        from repro.obs import runtime
        from repro.obs.runtime import Observation

        plain = _cell(QUICK, {})
        observation = Observation(trace=TraceSink())
        observation.set_unit("fig03")
        runtime.activate(observation)
        try:
            traced = _cell(QUICK, {})
        finally:
            runtime.deactivate()
        assert json.dumps(traced) == json.dumps(plain)
        sink = observation.trace
        assert sink.units == ["fig03"]
        assert sink.span_count(PATH_OSDP) == sink.span_count() == traced["faults"] == 79

    def test_observation_bypasses_cache_reads(self, tmp_path):
        from repro.experiments import engine
        from repro.experiments.cache import CellCache
        from repro.experiments.runner import QUICK
        from repro.obs.runtime import Observation

        cache = CellCache(tmp_path / "cache")
        first = engine.execute(["fig03"], QUICK, cache=cache)
        assert first.computed == 1
        # Warm cache, no observation: served from cache, nothing to trace.
        warm = engine.execute(["fig03"], QUICK, cache=cache)
        assert warm.cached == 1
        # Observation forces recompute so spans exist; payload unchanged.
        observation = Observation(trace=TraceSink())
        traced = engine.execute(["fig03"], QUICK, cache=cache, observation=observation)
        assert traced.computed == 1
        assert observation.trace.span_count() > 0
        assert traced.results[0].to_text() == first.results[0].to_text()
