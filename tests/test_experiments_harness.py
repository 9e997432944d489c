"""Tests for the experiment harness: result tables, scales, prewarm helpers,
and the cheap experiments end to end."""

import numpy as np
import pytest

from repro.config import PagingMode
from repro.experiments import groups, run_spec, runner, spec_names
from repro.experiments.runner import (
    QUICK,
    ExperimentResult,
    build,
    prewarm_pages,
    uniform_resident_pages,
    usable_data_frames,
    zipfian_hot_pages,
)
from repro.experiments.workload_runs import run_kv_workload
from repro.workloads.distributions import fnv1a_64


class TestExperimentResult:
    def make(self):
        result = ExperimentResult(
            name="t", title="demo", headers=["a", "b"],
            paper_reference={"k": "v"},
        )
        result.add_row(a=1, b=2.5)
        result.add_row(a=2, b=None)
        return result

    def test_column(self):
        assert self.make().column("a") == [1, 2]
        assert self.make().column("b") == [2.5, None]

    def test_row_where(self):
        result = self.make()
        assert result.row_where(a=2)["b"] is None
        with pytest.raises(KeyError):
            result.row_where(a=99)

    def test_to_text_renders_all_parts(self):
        text = self.make().to_text()
        assert "== t: demo ==" in text
        assert "a" in text and "b" in text
        assert "2.5" in text
        assert "-" in text  # None placeholder
        assert "paper reference" in text
        assert "k: v" in text

    def test_float_formatting(self):
        result = ExperimentResult(name="t", title="x", headers=["v"])
        result.add_row(v=12345.678)
        result.add_row(v=0.123456)
        text = result.to_text()
        assert "12,346" in text
        assert "0.123" in text


class TestScales:
    def test_quick_smaller_than_paper_shape(self):
        assert QUICK.memory_frames < runner.PAPER_SHAPE.memory_frames
        assert QUICK.ops_per_thread < runner.PAPER_SHAPE.ops_per_thread

    def test_registry_complete(self):
        expected = {
            "fig01", "fig02", "fig03", "fig04", "table1", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17", "area",
            "tail-latency", "variance", "resilience",
        }
        names = set(spec_names())
        assert expected <= names
        # Everything beyond the core set belongs to a registered group.
        grouped = {name for members in groups().values() for name in members}
        assert names - expected == grouped - expected


class TestPrewarmHelpers:
    def test_zipfian_hot_pages_coldest_first(self):
        pages = zipfian_hot_pages(1000, 10)
        assert len(pages) == 10
        assert len(set(pages)) == 10
        # The last element is the single hottest page: fnv(0) % n.
        assert pages[-1] == fnv1a_64(0) % 1000

    def test_zipfian_hot_pages_capped_at_dataset(self):
        pages = zipfian_hot_pages(8, 100)
        assert len(set(pages)) == len(pages) <= 8

    def test_uniform_resident_pages(self):
        rng = np.random.default_rng(0)
        pages = uniform_resident_pages(100, 40, rng)
        assert len(pages) == 40
        assert len(set(pages)) == 40
        assert all(0 <= p < 100 for p in pages)

    def test_prewarm_installs_up_to_budget(self):
        from repro.os.vma import MmapFlags
        from repro.workloads.fio import FioRandomRead

        system = build(PagingMode.HWDP, QUICK)
        driver = FioRandomRead(ops_per_thread=1, file_pages=QUICK.memory_frames * 4)
        driver.prepare(system, 1)
        budget = usable_data_frames(system)
        installed = prewarm_pages(
            system, driver.threads[0], driver.vma, range(QUICK.memory_frames * 4)
        )
        assert installed == budget
        assert len(system.kernel.reclaim) == installed

    def test_prewarm_skips_resident(self):
        from repro.workloads.fio import FioRandomRead

        system = build(PagingMode.HWDP, QUICK)
        driver = FioRandomRead(ops_per_thread=1, file_pages=256)
        driver.prepare(system, 1)
        first = prewarm_pages(system, driver.threads[0], driver.vma, [0, 1, 2])
        second = prewarm_pages(system, driver.threads[0], driver.vma, [0, 1, 2, 3])
        assert first == 3
        assert second == 1


class TestRunKvWorkload:
    def test_same_seed_same_result(self):
        runs = [
            run_kv_workload("ycsb-c", PagingMode.HWDP, QUICK, threads=2)
            for _ in range(2)
        ]
        assert runs[0].elapsed_ns == runs[1].elapsed_ns
        assert runs[0].throughput == runs[1].throughput

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_kv_workload("nosuch", PagingMode.OSDP, QUICK)

    def test_ops_scale_with_coverage_for_ycsb(self):
        cell = run_kv_workload("ycsb-c", PagingMode.HWDP, QUICK, threads=4, ratio=2.0)
        dataset = int(2.0 * QUICK.memory_frames)
        expected = max(32, int(QUICK.cold_coverage * dataset) // 4) * 4
        assert cell.driver.total_operations == expected

    def test_fio_uses_scale_ops(self):
        cell = run_kv_workload("fio", PagingMode.HWDP, QUICK, threads=2)
        assert cell.driver.total_operations == 2 * QUICK.ops_per_thread


class TestCheapExperimentsEndToEnd:
    def test_table1_all_rows_match(self):
        result = run_spec("table1", QUICK)
        assert all(row["matches"] for row in result.rows)

    def test_fig02_static(self):
        result = run_spec("fig02", QUICK)
        assert result.rows[-1]["ssd_gap_cycles"] < 1e5

    def test_area(self):
        result = run_spec("area", QUICK)
        total = result.row_where(component="TOTAL")
        assert total["area_mm2"] == pytest.approx(0.014, rel=0.01)

    def test_fig03_runs(self):
        result = run_spec("fig03", QUICK)
        measured = result.row_where(phase="measured mean fault latency")
        assert measured["ns"] > 10_000.0

    def test_fig17_monotone(self):
        result = run_spec("fig17", QUICK)
        reductions = result.column("reduction_pct")
        assert reductions == sorted(reductions)
