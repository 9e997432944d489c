"""Tests for the NVMe device model and latency model."""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OPTANE_PMM, ZSSD, DeviceConfig
from repro.errors import StorageError
from repro.sim import Completion, Simulator, spawn
from repro.storage import DeviceLatencyModel, NVMeCommand, NVMeDevice, NVMeOpcode
from repro.storage.nvme import NVMeStatus


def make_device(sim=None, config=None):
    sim = sim or Simulator()
    config = config or DeviceConfig(name="test", read_latency_ns=10_000.0,
                                    write_latency_ns=12_000.0, parallel_ops=2,
                                    latency_sigma=0.0)
    device = NVMeDevice(sim, config, np.random.default_rng(7))
    device.create_namespace(capacity_blocks=1 << 20)
    return sim, device


class TestLatencyModel:
    def test_deterministic_when_sigma_zero(self):
        model = DeviceLatencyModel(
            DeviceConfig(name="d", read_latency_ns=5000.0, latency_sigma=0.0),
            np.random.default_rng(0),
        )
        assert model.read_service_ns() == 5000.0

    def test_lognormal_variation_is_tight(self):
        model = DeviceLatencyModel(ZSSD, np.random.default_rng(0))
        samples = [model.read_service_ns() for _ in range(2000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(ZSSD.read_latency_ns, rel=0.02)
        assert max(samples) < ZSSD.read_latency_ns * 1.3

    def test_write_interference_inflates_reads(self):
        model = DeviceLatencyModel(
            DeviceConfig(name="d", read_latency_ns=1000.0, latency_sigma=0.0,
                         write_interference=2.0),
            np.random.default_rng(0),
        )
        assert model.read_service_ns(0.0) == 1000.0
        assert model.read_service_ns(0.5) == 2000.0
        assert model.read_service_ns(1.0) == 3000.0
        # Occupancy clamped to [0, 1].
        assert model.read_service_ns(5.0) == 3000.0

    def test_pmm_is_fastest_preset(self):
        assert OPTANE_PMM.read_latency_ns < ZSSD.read_latency_ns

    @pytest.mark.parametrize("sigma", [0.03, 0.2])
    def test_batched_draws_match_one_scalar_draw_per_command(self, sigma):
        # The model draws its multipliers 512 at a time from the device's
        # own stream; each service time must equal the scalar draw it
        # replaces.  3,000 commands cross five buffer refills, and reads
        # at several write occupancies interleave with writes.
        config = DeviceConfig(name="d", read_latency_ns=10_900.0,
                              write_latency_ns=12_500.0, latency_sigma=sigma,
                              write_interference=0.6)
        model = DeviceLatencyModel(config, np.random.default_rng(42))
        reference = np.random.default_rng(42)
        occupancies = [0.0, 0.25, 0.5, 1.0, 3.0]
        for index in range(3_000):
            if index % 3 == 2:
                got = model.write_service_ns()
                want = float(config.write_latency_ns * reference.lognormal(0.0, sigma))
            else:
                occupancy = occupancies[index % len(occupancies)]
                got = model.read_service_ns(occupancy)
                inflation = 1.0 + config.write_interference * min(1.0, occupancy)
                want = float(config.read_latency_ns
                             * reference.lognormal(0.0, sigma)) * inflation
            assert type(got) is float
            assert got == want, index

    def test_zero_sigma_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        model = DeviceLatencyModel(
            DeviceConfig(name="d", read_latency_ns=5000.0, write_latency_ns=7000.0,
                         latency_sigma=0.0),
            rng,
        )
        assert [model.read_service_ns(), model.write_service_ns()] == [5000.0, 7000.0]
        assert rng.bit_generator.state == before


class TestNVMeDevice:
    def test_read_completes_with_device_time(self):
        sim, device = make_device()
        qp = device.create_queue_pair()
        done = []

        def waiter():
            command = yield from qp.cq.get()
            done.append(command)

        spawn(sim, waiter())
        command = NVMeCommand(NVMeOpcode.READ, nsid=1, lba=0)
        sim.schedule(0.0, device.submit, qp, command)
        sim.run()
        assert len(done) == 1
        assert done[0].device_time_ns == pytest.approx(10_000.0)
        assert device.reads_completed == 1
        assert qp.outstanding == 0

    def test_parallel_ops_limit_queues_commands(self):
        sim, device = make_device()  # capacity 2
        qp = device.create_queue_pair()
        completions = []

        def waiter(n):
            for _ in range(n):
                command = yield from qp.cq.get()
                completions.append((command.lba, sim.now))

        spawn(sim, waiter(4))
        for i in range(4):
            command = NVMeCommand(NVMeOpcode.READ, nsid=1, lba=i * 8)
            sim.schedule(0.0, device.submit, qp, command)
        sim.run()
        times = sorted(t for _, t in completions)
        # Two at 10us, two queued behind them at 20us.
        assert times[0] == pytest.approx(10_000.0)
        assert times[3] == pytest.approx(20_000.0)

    def test_writes_inflate_concurrent_reads(self):
        sim = Simulator()
        config = DeviceConfig(name="d", read_latency_ns=10_000.0,
                              write_latency_ns=50_000.0, parallel_ops=4,
                              latency_sigma=0.0, write_interference=1.0)
        device = NVMeDevice(sim, config, np.random.default_rng(1))
        device.create_namespace(capacity_blocks=1 << 20)
        qp = device.create_queue_pair()
        read_times = []

        def read_waiter():
            while len(read_times) < 1:
                command = yield from qp.cq.get()
                if not command.is_write:
                    read_times.append(command.device_time_ns)

        spawn(sim, read_waiter())
        sim.schedule(0.0, device.submit, qp, NVMeCommand(NVMeOpcode.WRITE, nsid=1, lba=0))
        sim.schedule(0.0, device.submit, qp, NVMeCommand(NVMeOpcode.WRITE, nsid=1, lba=8))
        # Read arrives while 2 of 4 slots run writes → 1.5x inflation.
        sim.schedule(1_000.0, device.submit, qp, NVMeCommand(NVMeOpcode.READ, nsid=1, lba=16))
        sim.run()
        assert read_times[0] == pytest.approx(15_000.0)

    def test_unknown_namespace_rejected(self):
        sim, device = make_device()
        qp = device.create_queue_pair()
        with pytest.raises(StorageError):
            device.submit(qp, NVMeCommand(NVMeOpcode.READ, nsid=9, lba=0))

    def test_lba_out_of_range_rejected(self):
        sim, device = make_device()
        qp = device.create_queue_pair()
        with pytest.raises(StorageError):
            device.submit(qp, NVMeCommand(NVMeOpcode.READ, nsid=1, lba=1 << 20))

    def test_queue_overflow_rejected(self):
        sim, device = make_device()
        qp = device.create_queue_pair(depth=1)
        device.submit(qp, NVMeCommand(NVMeOpcode.READ, nsid=1, lba=0))
        with pytest.raises(StorageError):
            device.submit(qp, NVMeCommand(NVMeOpcode.READ, nsid=1, lba=8))

    def test_queue_pairs_are_isolated(self):
        sim, device = make_device()
        qp_os = device.create_queue_pair(owner="os")
        qp_smu = device.create_queue_pair(interrupt_enabled=False, owner="smu")
        assert qp_os.qid != qp_smu.qid
        got = []

        def smu_waiter():
            command = yield from qp_smu.cq.get()
            got.append(("smu", command.cid))

        spawn(sim, smu_waiter())
        sim.schedule(0.0, device.submit, qp_smu,
                     NVMeCommand(NVMeOpcode.READ, nsid=1, lba=0, cid=5))
        sim.schedule(0.0, device.submit, qp_os,
                     NVMeCommand(NVMeOpcode.READ, nsid=1, lba=8, cid=6))
        sim.run()
        # The SMU waiter only saw its own queue's completion.
        assert got == [("smu", 5)]

    def test_namespace_block_allocator(self):
        _, device = make_device()
        namespace = device.namespaces[1]
        first = namespace.allocate_page_blocks()
        second = namespace.allocate_page_blocks()
        assert second == first + 8

    def test_namespace_exhaustion(self):
        _, device = make_device()
        namespace = device.namespaces[1]
        with pytest.raises(StorageError):
            namespace.allocate_blocks((1 << 20) + 1)


# ----------------------------------------------------------------------
# differential check: callbacks against the coroutine reference
# ----------------------------------------------------------------------
class RefServer:
    """The k-server station as a process helper: ``yield from service(d)``.

    The reference the callback :class:`repro.sim.Server` must match: a
    queued job waits on a ticket, and the release fires the next ticket,
    whose zero-delay wake-up adds the queue wait and takes the slot.
    """

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self._busy = 0
        self._waiters = deque()
        self.busy_time_ns = 0.0
        self.jobs_served = 0
        self.total_queue_wait_ns = 0.0

    @property
    def busy(self):
        return self._busy

    @property
    def queue_length(self):
        return len(self._waiters)

    def service(self, duration):
        if self._busy >= self.capacity:
            enqueue_time = self.sim.now
            ticket = Completion(self.sim, "ref-ticket")
            self._waiters.append(ticket)
            yield ticket
            self.total_queue_wait_ns += self.sim.now - enqueue_time
        self._busy += 1
        service_time = duration()
        try:
            yield service_time
        finally:
            self._busy -= 1
            self.busy_time_ns += service_time
            self.jobs_served += 1
            if self._waiters:
                self._waiters.popleft().fire()


class RefNVMeDevice(NVMeDevice):
    """The device side as one process per command over :class:`RefServer`."""

    def __init__(self, sim, config, rng):
        super().__init__(sim, config, rng)
        self._server = RefServer(sim, config.parallel_ops)

    def submit(self, qp, command):
        qp.outstanding += 1
        qp.submitted += 1
        command.submit_time_ns = self.sim.now
        spawn(self.sim, self._execute(qp, command), "ref-cmd")

    def _service_time(self, command):
        if command.opcode is NVMeOpcode.WRITE:
            self._writes_in_service += 1
            duration = self.latency_model.write_service_ns()
            self.sim.schedule(duration, self._write_done)
        else:
            occupancy = self._writes_in_service / self._parallel_ops
            duration = self.latency_model.read_service_ns(occupancy)
        return duration

    def _execute(self, qp, command):
        yield from self._server.service(lambda: self._service_time(command))
        if self.fault_injector is not None:
            decision = self.fault_injector.decide(self.name, command, self.sim.now)
            if decision is not None:
                if decision.extra_delay_ns > 0.0:
                    yield decision.extra_delay_ns
                command.status = NVMeStatus[decision.status_name]
        command.complete_time_ns = self.sim.now
        qp.outstanding -= 1
        qp.completed += 1
        qp.slot_freed.fire(qp)
        status = command.status
        if status is not NVMeStatus.SUCCESS:
            if status is NVMeStatus.COMMAND_TIMEOUT:
                self.timeouts += 1
            elif command.opcode is NVMeOpcode.WRITE:
                self.write_errors += 1
            else:
                self.read_errors += 1
        elif command.opcode is NVMeOpcode.WRITE:
            self.writes_completed += 1
            self.write_device_time.add(command.complete_time_ns - command.submit_time_ns)
        else:
            self.reads_completed += 1
            self.read_device_time.add(command.complete_time_ns - command.submit_time_ns)
        qp.cq.put_nowait(command)


class StubInjector:
    """Fault decisions keyed by command id; logs when each was asked."""

    def __init__(self, faults):
        self.faults = faults
        self.asked = []

    def decide(self, device_name, command, now):
        self.asked.append((command.cid, now))
        fault = self.faults.get(command.cid)
        if fault is None:
            return None
        status_name, extra_delay_ns = fault
        return SimpleNamespace(status_name=status_name, extra_delay_ns=extra_delay_ns)


#: Arrival grid: a multiple of the device latencies below, so arrivals,
#: service ends and timeouts share timestamps.
GRID_NS = 5_000.0

#: Timeouts complete late by one or three grid steps; "error" faults are
#: the media error matching the opcode.
TIMEOUTS = {
    "timeout-short": ("COMMAND_TIMEOUT", 5_000.0),
    "timeout-long": ("COMMAND_TIMEOUT", 15_000.0),
}


def run_stream(reference, stream, parallel_ops, sigma, seed):
    """Drive one command stream through one path; return what it observed."""
    sim = Simulator()
    config = DeviceConfig(name="diff", read_latency_ns=10_000.0,
                          write_latency_ns=20_000.0, parallel_ops=parallel_ops,
                          latency_sigma=sigma)
    device_cls = RefNVMeDevice if reference else NVMeDevice
    device = device_cls(sim, config, np.random.default_rng(seed))
    device.create_namespace(capacity_blocks=1 << 20)
    pairs = [device.create_queue_pair(), device.create_queue_pair(owner="smu")]
    deliveries = {0: [], 1: []}

    def deliver(label, command):
        deliveries[label].append((command.cid, sim.now))

    for label, qp in enumerate(pairs):
        if reference:
            def consumer(qp=qp, label=label):
                while True:
                    command = yield from qp.cq.get()
                    deliver(label, command)

            spawn(sim, consumer(), f"ref-consumer-{label}")
        else:
            qp.cq.consume(deliver, label)

    faults = {}
    commands = []
    for cid, (slot, pair, is_write, fault) in enumerate(stream):
        opcode = NVMeOpcode.WRITE if is_write else NVMeOpcode.READ
        if fault == "error":
            faults[cid] = ("WRITE_FAULT" if is_write else "UNRECOVERED_READ", 0.0)
        elif fault is not None:
            faults[cid] = TIMEOUTS[fault]
        command = NVMeCommand(opcode, nsid=1, lba=cid * 8, cid=cid)
        commands.append(command)
        sim.schedule(slot * GRID_NS, device.submit, pairs[pair], command)
    device.fault_injector = injector = StubInjector(faults)
    sim.run()
    server = device._server
    return {
        "commands": [(c.cid, c.complete_time_ns, c.status) for c in commands],
        "deliveries": deliveries,
        "asked": injector.asked,
        "device": (device.reads_completed, device.writes_completed,
                   device.read_errors, device.write_errors, device.timeouts,
                   device.read_device_time.samples, device.write_device_time.total,
                   device._writes_in_service, device.in_flight),
        "server": (server.busy, server.queue_length, server.busy_time_ns,
                   server.jobs_served, server.total_queue_wait_ns),
        "pairs": [(qp.outstanding, qp.submitted, qp.completed, len(qp.cq))
                  for qp in pairs],
        "events": sim.events_dispatched,
    }


command_streams = st.lists(
    st.tuples(
        st.integers(0, 12),  # arrival slot on the grid
        st.integers(0, 1),  # queue pair
        st.booleans(),  # write?
        st.sampled_from([None, None, None, "error", "timeout-short", "timeout-long"]),
    ),
    min_size=1,
    max_size=40,
)


class TestCallbacksMatchCoroutineReference:
    @settings(max_examples=80, deadline=None)
    @given(
        stream=command_streams,
        parallel_ops=st.integers(1, 4),
        sigma=st.sampled_from([0.0, 0.03]),
        seed=st.integers(0, 2**16),
    )
    def test_random_streams_match(self, stream, parallel_ops, sigma, seed):
        reference = run_stream(True, stream, parallel_ops, sigma, seed)
        callbacks = run_stream(False, stream, parallel_ops, sigma, seed)
        assert callbacks == reference

    def test_contended_burst_matches(self):
        # Every command arrives at once on a one-slot device: every start
        # but the first is a hand-off, and completions coincide with the
        # timeouts' late completions.
        stream = [(0, cid % 2, cid % 3 == 0, "timeout-short" if cid == 2 else None)
                  for cid in range(12)]
        reference = run_stream(True, stream, 1, 0.0, 1)
        callbacks = run_stream(False, stream, 1, 0.0, 1)
        assert callbacks == reference
        assert callbacks["server"][4] > 0  # commands did queue
