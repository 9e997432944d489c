"""Tests for the system builder and System run helpers."""

import pytest

from repro.config import CpuConfig, PagingMode
from repro.core.system import build_system
from repro.errors import ConfigError, SimulationError
from repro.sim import Completion
from repro.workloads.fio import FioRandomRead

from tests.helpers import tiny_config


class TestModes:
    def test_osdp_has_no_hwdp_machinery(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        assert system.smu is None
        assert system.kpted is None
        assert system.kpoold is None
        assert system.kernel.free_page_queue is None
        for core in system.cpu_complex.logical_cores:
            assert core.mmu.smu is None

    def test_hwdp_wires_smu_to_every_mmu(self):
        system = build_system(tiny_config(PagingMode.HWDP))
        assert system.smu is not None
        assert system.smu_complex is not None
        assert system.smu_complex[0] is system.smu
        for core in system.cpu_complex.logical_cores:
            assert core.mmu.smu is system.smu_complex
        assert system.kernel.smu is system.smu_complex

    def test_swdp_has_queue_and_daemons_but_no_smu(self):
        system = build_system(tiny_config(PagingMode.SWDP))
        assert system.smu is None
        assert system.kernel.free_page_queue is not None
        assert system.kernel.smu_blockio is not None
        assert system.kpted is not None

    def test_boot_fills_free_page_queue(self):
        system = build_system(tiny_config(PagingMode.HWDP, free_queue_depth=32))
        queue = system.kernel.free_page_queue
        assert queue.occupancy == 32
        assert system.kernel.frame_pool.used_frames == 32

    def test_fault_handler_installed_everywhere(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        for core in system.cpu_complex.logical_cores:
            assert core.mmu.fault_handler is not None


class TestThreadPlacement:
    def test_workload_thread_core_mapping(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        process = system.create_process()
        t0 = system.workload_thread(process, 0)
        t1 = system.workload_thread(process, 1)
        smt = system.config.cpu.smt_ways
        assert t0.core.core_id == 0
        assert t1.core.core_id == smt

    def test_lane_parameter(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        process = system.create_process()
        sibling = system.workload_thread(process, 0, lane=1)
        assert sibling.core.core_id == 1

    def test_out_of_range_rejected(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        process = system.create_process()
        with pytest.raises(ConfigError):
            system.workload_thread(process, 99)
        with pytest.raises(ConfigError):
            system.workload_thread(process, 0, lane=5)

    def test_kthreads_on_second_lanes_of_last_cores(self):
        system = build_system(tiny_config(PagingMode.HWDP))
        cpu = system.config.cpu
        names = {t.name: t.core.core_id for t in system.kthread_threads}
        assert names["kpted"] == (cpu.physical_cores - 1) * cpu.smt_ways + 1
        assert names["kpoold"] == (cpu.physical_cores - 2) * cpu.smt_ways + 1

    def test_kthreads_without_smt(self):
        from dataclasses import replace

        config = tiny_config(PagingMode.HWDP)
        config = replace(config, cpu=CpuConfig(physical_cores=4, smt_ways=1))
        system = build_system(config)
        names = {t.name: t.core.core_id for t in system.kthread_threads}
        assert names["kpted"] == 3
        assert names["kpoold"] == 2


class TestRun:
    def test_run_returns_finish_time_and_stops_daemons(self):
        system = build_system(tiny_config(PagingMode.HWDP))

        def body():
            yield 1234.0

        proc = system.spawn(body(), "w")
        finish = system.run([proc])
        assert finish == 1234.0
        assert system.kernel.shutdown

    def test_run_detects_lost_wait(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        never = Completion(system.sim, "never")

        def body():
            yield never

        proc = system.spawn(body(), "stuck")
        with pytest.raises(SimulationError):
            system.run([proc])

    def test_run_max_events_detects_lost_wait(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        never = Completion(system.sim, "never")

        def body():
            yield never

        proc = system.spawn(body(), "stuck")
        with pytest.raises(SimulationError, match="a wait was lost"):
            system.run([proc], max_events=100_000)

    def test_setup_coroutine_detects_lost_wait(self):
        system = build_system(tiny_config(PagingMode.OSDP))
        never = Completion(system.sim, "never")

        def setup():
            yield never

        with pytest.raises(SimulationError, match="a wait was lost"):
            FioRandomRead(ops_per_thread=1, file_pages=64).run_setup_coroutine(
                system, setup()
            )

    def test_run_max_events_guard(self):
        system = build_system(tiny_config(PagingMode.HWDP))

        def body():
            while True:
                yield 1.0

        proc = system.spawn(body(), "loop")
        with pytest.raises(SimulationError, match="did not finish within 100 events"):
            system.run([proc], max_events=100)
