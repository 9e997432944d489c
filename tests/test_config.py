"""Tests for configuration validation and the calibrated cost tables."""

import pytest

from repro.config import (
    BLOCKS_PER_PAGE,
    DEVICE_PRESETS,
    OPTANE_PMM,
    OPTANE_SSD,
    PAGE_SIZE,
    ZSSD,
    ControlPlaneConfig,
    CpuConfig,
    DeviceConfig,
    MemoryConfig,
    OsdpCosts,
    PagingMode,
    SmuConfig,
    SwdpCosts,
    SystemConfig,
    table2_configuration,
)
from repro.errors import ConfigError


class TestCpuConfig:
    def test_defaults_match_table2(self):
        cpu = CpuConfig()
        assert cpu.freq_ghz == 2.8
        assert cpu.physical_cores == 8
        assert cpu.smt_ways == 2
        assert cpu.logical_cores == 16

    def test_cycle_conversions_roundtrip(self):
        cpu = CpuConfig()
        assert cpu.ns_to_cycles(cpu.cycles_to_ns(97)) == pytest.approx(97)
        assert cpu.cycles_to_ns(2.8) == pytest.approx(1.0)

    def test_kernel_instruction_conversion(self):
        cpu = CpuConfig()
        # 1000 ns at 2.8 GHz and kernel IPC 0.8 → 2240 instructions.
        assert cpu.kernel_ns_to_instructions(1000.0) == pytest.approx(2240.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CpuConfig(freq_ghz=0)
        with pytest.raises(ConfigError):
            CpuConfig(physical_cores=0)
        with pytest.raises(ConfigError):
            CpuConfig(smt_share_factor=0.0)
        with pytest.raises(ConfigError):
            CpuConfig(smt_share_factor=1.5)


class TestOsdpCosts:
    def test_fractions_match_figure3_on_zssd(self):
        costs = OsdpCosts()
        device = ZSSD.read_latency_ns
        assert costs.exception_walk_ns / device == pytest.approx(0.0245, abs=0.001)
        assert costs.io_submit_ns / device == pytest.approx(0.0985, abs=0.001)
        assert costs.interrupt_delivery_ns / device == pytest.approx(0.025, abs=0.001)
        assert costs.context_switch_out_ns / device == pytest.approx(0.0985, abs=0.001)
        assert costs.io_completion_ns / device == pytest.approx(0.206, abs=0.001)
        # Aggregate overhead ≈ 76.3 % of device time (paper Fig 3).
        assert costs.critical_path_ns / device == pytest.approx(0.763, abs=0.03)

    def test_before_after_match_figure11a(self):
        costs = OsdpCosts()
        # HWDP removes 2.38 µs before / 6.16 µs after; hardware keeps ~0.1 µs.
        assert costs.before_device_ns == pytest.approx(2_380 + 80, abs=150)
        assert costs.after_device_ns == pytest.approx(6_160 + 40, abs=150)

    def test_context_switch_out_not_on_critical_path(self):
        costs = OsdpCosts()
        assert costs.total_cpu_ns - costs.critical_path_ns == costs.context_switch_out_ns

    def test_phase_table_complete(self):
        costs = OsdpCosts()
        table = costs.phase_table()
        assert sum(table.values()) == pytest.approx(costs.total_cpu_ns)
        assert len(table) == 10


class TestSwdpCosts:
    def test_total_overhead_matches_figure17_backsolve(self):
        costs = SwdpCosts()
        # ≈1.9 µs total software overhead (see config module docstring).
        assert costs.critical_path_ns == pytest.approx(1_900, abs=100)


class TestSmuConfig:
    def test_figure11b_constants(self):
        smu = SmuConfig()
        assert smu.nvme_command_write_ns == pytest.approx(77.16)
        assert smu.doorbell_write_ns == pytest.approx(1.60)
        assert smu.entry_update_cycles == 97
        assert smu.cam_lookup_cycles == 5

    def test_hardware_path_is_nanoseconds(self):
        smu = SmuConfig()
        cpu = CpuConfig()
        assert smu.before_device_ns(cpu) < 200.0
        assert smu.after_device_ns(cpu) < 100.0

    def test_sizing_matches_paper(self):
        smu = SmuConfig()
        assert smu.pmshr_entries == 32
        assert smu.pmshr_entry_bits == 300
        assert smu.devices_per_smu == 8
        assert smu.nvme_descriptor_bits == 352
        assert smu.prefetch_buffer_entries == 16
        assert smu.free_page_queue_depth == 4096

    def test_validation(self):
        with pytest.raises(ConfigError):
            SmuConfig(pmshr_entries=0)
        with pytest.raises(ConfigError):
            SmuConfig(free_page_queue_depth=0)
        with pytest.raises(ConfigError):
            SmuConfig(devices_per_smu=9)

    def test_extensions_default_off(self):
        smu = SmuConfig()
        assert smu.long_io_timeout_ns is None
        assert smu.readahead_degree == 0


class TestDevices:
    def test_presets_match_figure17(self):
        assert ZSSD.read_latency_ns == 10_900.0
        assert OPTANE_PMM.read_latency_ns == 2_100.0
        assert OPTANE_SSD.read_latency_ns < ZSSD.read_latency_ns
        assert set(DEVICE_PRESETS) == {"z-ssd", "optane-ssd", "optane-pmm"}

    def test_validation(self):
        with pytest.raises(ConfigError):
            DeviceConfig(read_latency_ns=0)
        with pytest.raises(ConfigError):
            DeviceConfig(parallel_ops=0)

    def test_block_geometry(self):
        assert PAGE_SIZE == 4096
        assert BLOCKS_PER_PAGE == 8


class TestSystemConfig:
    def test_mode_switch_preserves_everything_else(self):
        config = SystemConfig(mode=PagingMode.OSDP)
        hwdp = config.with_mode(PagingMode.HWDP)
        assert hwdp.mode is PagingMode.HWDP
        assert hwdp.cpu == config.cpu
        assert hwdp.device == config.device

    def test_device_switch(self):
        config = SystemConfig().with_device(OPTANE_PMM)
        assert config.device.name == "optane-pmm"

    def test_control_plane_periods_match_paper(self):
        plane = ControlPlaneConfig()
        assert plane.kpted_period_ns == 1e9  # 1 second
        assert plane.kpoold_period_ns == 4e6  # 4 milliseconds

    def test_memory_watermarks_ordered(self):
        memory = MemoryConfig(total_frames=10_000)
        assert 0 < memory.low_watermark < memory.high_watermark < 10_000


class TestControlPlaneConfig:
    """Daemon periods re-arm forever, so a non-positive one never ends."""

    @pytest.mark.parametrize("period_ns", [0.0, -1.0])
    def test_kpted_period_must_be_positive(self, period_ns):
        with pytest.raises(ConfigError):
            ControlPlaneConfig(kpted_period_ns=period_ns)

    @pytest.mark.parametrize("period_ns", [0.0, -1.0])
    def test_kpoold_period_must_be_positive(self, period_ns):
        with pytest.raises(ConfigError):
            ControlPlaneConfig(kpoold_period_ns=period_ns)


class TestTable2:
    def test_contents(self):
        table = table2_configuration()
        assert table["Server"] == "Dell R730"
        assert table["Kernel"] == "Linux 4.9.30"
        assert "Z-SSD" in table["Storage devices"]
