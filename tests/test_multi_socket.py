"""Tests for multi-socket SMU routing (3-bit SID, 'home SMU' selection)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import DeviceConfig, PagingMode, SystemConfig
from repro.core.smu import SmuComplex
from repro.core.system import build_system
from repro.errors import ConfigError, SmuError
from repro.os.vma import MmapFlags
from repro.storage.nvme import NVMeDevice
from repro.vm import make_lba_pte

from tests.helpers import tiny_config


def build_two_socket_system(**kwargs):
    config = replace(tiny_config(PagingMode.HWDP, **kwargs), sockets=2)
    system = build_system(config)
    process = system.create_process("app")
    thread = system.workload_thread(process, index=0)
    file = system.kernel.fs.create_file("data", 16)
    holder = {}

    def do_mmap():
        holder["vma"] = yield from system.kernel.sys_mmap(
            thread, file, 16, MmapFlags.FASTMAP
        )

    proc = system.spawn(do_mmap(), "mmap")
    while not proc.finished:
        system.sim.step()
    return system, thread, holder["vma"]


def drive(system, thread, vaddr):
    result = {}

    def body():
        result["t"] = yield from thread.mem_access(vaddr)

    proc = system.spawn(body(), "drive")
    while not proc.finished:
        if not system.sim.step():
            raise RuntimeError("stalled")
    return result["t"]


class TestComplexConstruction:
    def test_two_sockets_two_smus(self):
        system, _, _ = build_two_socket_system()
        assert len(system.smu_complex) == 2
        assert system.smu_complex[0].socket_id == 0
        assert system.smu_complex[1].socket_id == 1

    def test_socket_count_validated(self):
        with pytest.raises(ConfigError):
            SystemConfig(sockets=0)
        with pytest.raises(ConfigError):
            SystemConfig(sockets=9)

    def test_complex_rejects_misordered_smus(self):
        system, _, _ = build_two_socket_system()
        with pytest.raises(SmuError):
            SmuComplex(list(reversed(system.smu_complex.smus)))
        with pytest.raises(SmuError):
            SmuComplex([])

    def test_unknown_socket_rejected_at_routing(self):
        system, thread, vma = build_two_socket_system()
        thread.process.page_table.set_pte(vma.start, make_lba_pte(8, socket_id=5))
        with pytest.raises(SmuError):
            drive(system, thread, vma.start)


class TestHomeSmuRouting:
    def _attach_remote_device(self, system, read_ns=4_000.0):
        device = NVMeDevice(
            system.sim,
            DeviceConfig(name="remote", read_latency_ns=read_ns, latency_sigma=0.0),
            np.random.default_rng(3),
        )
        device.create_namespace(1 << 16)
        device_id = system.smu_complex[1].host.install_device(device, nsid=1)
        return device, device_id

    def test_default_misses_stay_on_socket_zero(self):
        system, thread, vma = build_two_socket_system()
        drive(system, thread, vma.start)
        assert system.smu_complex[0].misses_handled == 1
        assert system.smu_complex[1].misses_handled == 0

    def test_sid_routes_to_second_socket(self):
        system, thread, vma = build_two_socket_system()
        device, device_id = self._attach_remote_device(system)
        thread.process.page_table.set_pte(
            vma.start, make_lba_pte(8, device_id=device_id, socket_id=1)
        )
        translation = drive(system, thread, vma.start)
        assert system.smu_complex[1].misses_handled == 1
        assert system.smu_complex[0].misses_handled == 0
        assert device.reads_completed == 1
        assert translation.miss_latency_ns == pytest.approx(4_000.0, abs=500.0)

    def test_aggregate_stats(self):
        system, thread, vma = build_two_socket_system()
        device, device_id = self._attach_remote_device(system)
        thread.process.page_table.set_pte(
            vma.start, make_lba_pte(8, device_id=device_id, socket_id=1)
        )
        drive(system, thread, vma.start)
        drive(system, thread, vma.start + 4096)  # socket 0
        assert system.smu_complex.misses_handled == 2

    def test_munmap_barrier_covers_all_sockets(self):
        system, thread, vma = build_two_socket_system()
        device, device_id = self._attach_remote_device(system, read_ns=50_000.0)
        thread.process.page_table.set_pte(
            vma.start, make_lba_pte(8, device_id=device_id, socket_id=1)
        )

        unmapped = {}

        def misser():
            yield from thread.mem_access(vma.start)

        def unmapper():
            yield 1_000.0  # let the miss start first
            yield from system.kernel.sys_munmap(thread, vma)
            unmapped["at"] = system.sim.now

        p0 = system.spawn(misser(), "miss")
        p1 = system.spawn(unmapper(), "unmap")
        while not (p0.finished and p1.finished):
            if not system.sim.step():
                raise RuntimeError("stalled")
        # munmap waited for the 50 µs remote-socket miss to land.
        assert unmapped["at"] >= 50_000.0
