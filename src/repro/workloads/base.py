"""Workload driver scaffolding.

A workload driver owns the files/stores it needs, prepares them on a fresh
:class:`repro.core.system.System`, and produces per-thread coroutine bodies.
The common pattern::

    driver = FioRandomRead(ops_per_thread=2000, file_pages=8192)
    driver.prepare(system, num_threads=4)
    procs = driver.launch(system)
    elapsed = system.run(procs)
    throughput = driver.total_operations / elapsed

Per-operation latencies land in ``driver.op_latency`` (one accumulator per
thread merged on demand), which is what the latency figures plot.
"""

from __future__ import annotations

import abc
from typing import Any, Generator, List, Optional

from repro.core.system import System
from repro.cpu.thread import ThreadContext
from repro.errors import WorkloadError
from repro.sim import Process, StatAccumulator


class WorkloadDriver(abc.ABC):
    """Base class for all workload drivers."""

    name = "workload"

    def __init__(self) -> None:
        self.system: Optional[System] = None
        self.threads: List[ThreadContext] = []
        self.per_thread_latency: List[StatAccumulator] = []
        self._prepared = False

    # ------------------------------------------------------------------
    def prepare(self, system: System, num_threads: int) -> None:
        """Create processes/files/mappings and the worker threads."""
        if self._prepared:
            raise WorkloadError("driver already prepared")
        if num_threads < 1:
            raise WorkloadError("need at least one thread")
        self.system = system
        self._setup(system, num_threads)
        self._prepared = True

    @abc.abstractmethod
    def _setup(self, system: System, num_threads: int) -> None:
        """Create state and populate ``self.threads``."""

    @abc.abstractmethod
    def _thread_body(self, thread: ThreadContext, index: int) -> Generator[Any, Any, None]:
        """The coroutine one worker runs."""

    # ------------------------------------------------------------------
    def launch(self, system: System) -> List[Process]:
        if not self._prepared:
            raise WorkloadError("prepare() must run before launch()")
        procs = []
        for index, thread in enumerate(self.threads):
            procs.append(
                system.spawn(self._thread_body(thread, index), f"{self.name}-{index}")
            )
        return procs

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _new_latency_stat(self, index: int) -> StatAccumulator:
        stat = StatAccumulator(f"{self.name}-lat-{index}")
        self.per_thread_latency.append(stat)
        return stat

    def run_setup_coroutine(self, system: System, body: Generator) -> Any:
        """Run a setup coroutine (mmap etc.) to completion immediately."""
        proc = system.spawn(body, f"{self.name}-setup")
        system.run([proc], stop_daemons=False)
        return proc.result

    # ------------------------------------------------------------------
    @property
    def total_operations(self) -> int:
        return sum(thread.perf.operations for thread in self.threads)

    @property
    def op_latency(self) -> StatAccumulator:
        """All threads' per-op latencies merged."""
        merged = StatAccumulator(f"{self.name}-latency")
        for stat in self.per_thread_latency:
            merged.extend(stat.samples)
        return merged

    def throughput_ops_per_sec(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0:
            return 0.0
        return self.total_operations / (elapsed_ns / 1e9)
