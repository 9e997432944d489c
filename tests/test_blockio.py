"""Tests for the kernel block-I/O stack (OS-managed queues + interrupts)."""

import numpy as np
import pytest

from repro.config import DeviceConfig
from repro.errors import KernelError
from repro.os.blockio import BlockIoStack
from repro.sim import Simulator, spawn
from repro.storage.nvme import NVMeCommand, NVMeDevice, NVMeOpcode


def make_stack(read_ns=5_000.0, write_ns=6_000.0, parallel=2):
    sim = Simulator()
    device = NVMeDevice(
        sim,
        DeviceConfig(
            name="d",
            read_latency_ns=read_ns,
            write_latency_ns=write_ns,
            parallel_ops=parallel,
            latency_sigma=0.0,
        ),
        np.random.default_rng(0),
    )
    device.create_namespace(1 << 16)
    return sim, device, BlockIoStack(sim, device)


class TestBlockIo:
    def test_read_completion_fires_with_command(self):
        sim, device, stack = make_stack()
        done = stack.submit_read(nsid=1, lba=0, dma_addr=7)
        got = {}

        def waiter():
            command = yield done
            got["command"] = command
            got["time"] = sim.now

        spawn(sim, waiter())
        sim.run()
        assert got["time"] == pytest.approx(5_000.0)
        assert got["command"].dma_addr == 7
        assert stack.inflight == 0

    def test_completion_latches_for_late_waiters(self):
        sim, device, stack = make_stack()
        done = stack.submit_read(nsid=1, lba=0)

        def late():
            yield 20_000.0
            yield done
            assert sim.now == 20_000.0

        spawn(sim, late())
        sim.run()

    def test_concurrent_ios_tracked_independently(self):
        sim, device, stack = make_stack(parallel=4)
        completions = [stack.submit_read(nsid=1, lba=8 * i) for i in range(4)]
        order = []

        def waiter(index):
            yield completions[index]
            order.append(index)

        for index in range(4):
            spawn(sim, waiter(index))
        sim.run()
        assert sorted(order) == [0, 1, 2, 3]
        assert stack.reads_submitted == 4

    def test_reads_and_writes_counted_separately(self):
        sim, device, stack = make_stack()
        stack.submit_read(nsid=1, lba=0)
        stack.submit_write(nsid=1, lba=8)
        stack.submit_write(nsid=1, lba=16)
        sim.run()
        assert stack.reads_submitted == 1
        assert stack.writes_submitted == 2
        assert device.reads_completed == 1
        assert device.writes_completed == 2

    def test_inflight_count(self):
        sim, device, stack = make_stack()
        stack.submit_read(nsid=1, lba=0)
        stack.submit_read(nsid=1, lba=8)
        assert stack.inflight == 2
        sim.run()
        assert stack.inflight == 0

    def test_inflight_counts_writes_until_their_cq_entry(self):
        # Writes return no completion, but the kernel's write throttle and
        # the quiescence invariant both read them through ``inflight``.
        sim, device, stack = make_stack(parallel=1)
        assert stack.submit_write(nsid=1, lba=0) is None
        stack.submit_write(nsid=1, lba=8)
        stack.submit_read(nsid=1, lba=16)
        assert stack.inflight == 3
        sim.run(until=6_000.0)
        assert stack.inflight == 2
        sim.run()
        assert stack.inflight == 0
        assert device.writes_completed == 2

    @pytest.mark.parametrize("opcode", [NVMeOpcode.READ, NVMeOpcode.WRITE])
    def test_unknown_cid_raises(self, opcode):
        sim, device, stack = make_stack()
        stack.submit_write(nsid=1, lba=0)
        with pytest.raises(KernelError, match="unknown cid 99"):
            stack._interrupt_dispatcher(NVMeCommand(opcode, nsid=1, lba=0, cid=99))
        assert stack.inflight == 1

    def test_two_stacks_on_one_device_are_isolated(self):
        sim, device, stack_a = make_stack()
        stack_b = BlockIoStack(sim, device)
        done_a = stack_a.submit_read(nsid=1, lba=0)
        done_b = stack_b.submit_read(nsid=1, lba=8)
        sim.run()
        assert done_a.done and done_b.done
        assert stack_a.qp.qid != stack_b.qp.qid
