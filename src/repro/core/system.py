"""System builder: assemble a simulated machine in OSDP / SWDP / HWDP mode.

This is the package's main entry point::

    from repro.config import SystemConfig, PagingMode
    from repro.core.system import build_system

    system = build_system(SystemConfig(mode=PagingMode.HWDP))
    process = system.create_process("app")
    thread = system.workload_thread(process, index=0)
    ... spawn workload coroutines ...
    system.run([...])

Mode differences (paper Figure 10):

* **OSDP** — vanilla kernel; no SMU, no free-page queue, no kpted/kpoold
  (kswapd still runs, as on stock Linux); the fast-mmap flag is ignored.
* **SWDP** — the paper's software-emulated SMU (§VI-A): LBA-augmented PTEs,
  the emulation path in the fault handler, kpted + kpoold running.
* **HWDP** — the proposal: the SMU attached to every MMU, kpted + kpoold
  running, exceptions only for fallback cases.

Thread placement matches the paper's pinning: workload thread *i* runs on
physical core *i*'s first SMT lane; the kernel daemons (kpted, kpoold, and
kswapd — the latter in every mode) take the second lanes of the last
physical cores, so an 8-thread run contends with them — exactly the effect
the paper reports at 8 threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.config import PagingMode, SystemConfig
from repro.core.smu import Smu, SmuComplex
from repro.cpu.core import CpuComplex
from repro.cpu.thread import ThreadContext
from repro.errors import ConfigError, SimulationError
from repro.obs.metrics import system_metrics
from repro.obs.runtime import observe_system
from repro.os.kernel import Kernel
from repro.os.kthreads import Kpoold, Kpted, Kswapd
from repro.os.process import ProcessContext
from repro.sim import Process, RngStreams, Simulator, spawn
from repro.storage.nvme import NVMeDevice


@dataclass
class System:
    """A fully wired simulated machine."""

    sim: Simulator
    config: SystemConfig
    rng: RngStreams
    cpu_complex: CpuComplex
    device: NVMeDevice
    kernel: Kernel
    #: Socket 0's SMU (the common single-socket case); the full set lives
    #: in :attr:`smu_complex`.
    smu: Optional[Smu] = None
    smu_complex: Optional[SmuComplex] = None
    kpted: Optional[Kpted] = None
    kpoold: Optional[Kpoold] = None
    kswapd: Optional[Kswapd] = None
    #: Present only when the config carries a fault plan.
    fault_injector: Optional[Any] = None
    #: Unified metrics registry over every component's counters (see
    #: :mod:`repro.obs.metrics`); populated by :func:`build_system`.
    metrics: Optional[Any] = None
    kthread_threads: List[ThreadContext] = field(default_factory=list)
    _kthread_processes: List[Process] = field(default_factory=list)

    # ------------------------------------------------------------------
    def create_process(self, name: str = "app") -> ProcessContext:
        return self.kernel.create_process(name)

    def workload_thread(
        self, process: ProcessContext, index: int, name: Optional[str] = None, lane: int = 0
    ) -> ThreadContext:
        """Thread pinned to physical core ``index``, SMT lane ``lane``."""
        cpu = self.config.cpu
        if not 0 <= index < cpu.physical_cores:
            raise ConfigError(f"no physical core {index}")
        if not 0 <= lane < cpu.smt_ways:
            raise ConfigError(f"no SMT lane {lane}")
        core = self.cpu_complex.logical_core(index * cpu.smt_ways + lane)
        return ThreadContext(
            self.sim, name or f"worker-{index}.{lane}", process, core, cpu
        )

    # ------------------------------------------------------------------
    def run(
        self,
        processes: Sequence[Process],
        max_events: Optional[int] = None,
        stop_daemons: bool = True,
    ) -> float:
        """Run until every given workload process finishes; returns the
        finish time in ns.  Kernel daemons are stopped afterwards unless
        ``stop_daemons=False`` (multi-phase workloads that will run again
        on the same machine, e.g. a shared warmup before the measured
        phase).

        Completion is tracked with each process's synchronous
        ``on_finish`` countdown hook — no per-event ``all(...)`` scan, no
        extra events, so the dispatch sequence is identical to stepping
        manually until the last process finishes.
        """
        sim = self.sim
        remaining = 0

        def count_down(_process: Process) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                sim.stop()

        for process in processes:
            if not process.finished and process.on_finish is not count_down:
                remaining += 1
                process.on_finish = count_down
        if remaining:
            started = sim.events_dispatched
            sim.run(max_events=max_events)
            if remaining:
                dispatched = sim.events_dispatched - started
                if max_events is not None and dispatched >= max_events:
                    raise SimulationError(
                        f"workload did not finish within {max_events} events"
                    )
                raise SimulationError(
                    "event queue drained but workload processes have not "
                    "finished — a wait was lost"
                )
        finish = sim.now
        if stop_daemons:
            self.kernel.stop()
        return finish

    def spawn(self, body: Any, name: str = "workload") -> Process:
        return spawn(self.sim, body, name)


def build_system(config: SystemConfig, namespace_blocks: int = 1 << 24) -> System:
    """Construct a machine per ``config`` (see module docstring)."""
    sim = Simulator()
    rng = RngStreams(config.master_seed)
    cpu_complex = CpuComplex(sim, config.cpu)
    device = NVMeDevice(sim, config.device, rng.stream("device"))
    kernel = Kernel(sim, config, cpu_complex, device, namespace_blocks)
    if config.fault_plan is not None:
        # Imported lazily so fault-free builds never touch the faults
        # package; the injector draws from its own named stream, keeping
        # device/workload RNG sequences identical with or without a plan.
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(config.fault_plan, rng.stream("fault-injector"))
        device.fault_injector = injector
        kernel.fault_injector = injector
    else:
        injector = None
    system = System(
        sim=sim,
        config=config,
        rng=rng,
        cpu_complex=cpu_complex,
        device=device,
        kernel=kernel,
        fault_injector=injector,
    )

    if config.mode is PagingMode.HWDP:
        smus = [
            Smu(sim, config, kernel, socket_id=socket)
            for socket in range(config.sockets)
        ]
        complex_ = SmuComplex(smus)
        # The primary device attaches to socket 0's SMU; further devices
        # (tests, multi-device setups) install on whichever SMU serves them.
        device_id = smus[0].host.install_device(device, nsid=1)
        if device_id != 0:
            raise ConfigError("first installed device must get ID 0")
        kernel.smu = complex_
        system.smu = smus[0]
        system.smu_complex = complex_
        for core in cpu_complex.logical_cores:
            core.mmu.smu = complex_

    if config.mode is not PagingMode.OSDP:
        _boot_free_page_queue(kernel)
    _start_kernel_daemons(system)
    system.metrics = system_metrics(system)
    # Attach any process-global observation (the experiments CLI's
    # --trace/--metrics); a single no-op check when none is active.
    observe_system(system)
    return system


def _boot_free_page_queue(kernel: Kernel) -> None:
    """Initial queue fill at boot (before any workload runs)."""
    for queue in kernel.iter_free_queues():
        frames = kernel.frame_pool.alloc_batch(queue.depth)
        queue.refill(frames)
        queue.prefetch_now()


def _start_kernel_daemons(system: System) -> None:
    config = system.config
    cpu = config.cpu
    kernel = system.kernel
    daemon_process = kernel.create_process("kernel-daemons")

    def daemon_core(slot: int) -> int:
        """Daemon *slot* gets the second SMT lane of the slot-th core from
        the end (or the core itself without SMT)."""
        physical = cpu.physical_cores - 1 - slot
        if cpu.smt_ways >= 2:
            return physical * cpu.smt_ways + 1
        return physical

    def start(name: str, slot: int, daemon_class):
        thread = ThreadContext(
            system.sim,
            name,
            daemon_process,
            system.cpu_complex.logical_core(daemon_core(slot)),
            cpu,
            kernel_context=True,
        )
        daemon = daemon_class(kernel, thread)
        system.kthread_threads.append(thread)
        system._kthread_processes.append(spawn(system.sim, daemon.run(), name))
        return daemon

    # kswapd runs in every mode (vanilla Linux behaviour).
    if config.control_plane.kswapd_enabled:
        system.kswapd = start("kswapd", 2, Kswapd)

    if config.mode is PagingMode.OSDP:
        return
    system.kpted = start("kpted", 0, Kpted)
    if config.control_plane.kpoold_enabled:
        system.kpoold = start("kpoold", 1, Kpoold)
