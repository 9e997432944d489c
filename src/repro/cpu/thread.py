"""Software thread contexts and their execution primitives.

A :class:`ThreadContext` is what workload drivers program against.  Its
methods are simulation coroutines:

``compute(instructions)``
    Execute user instructions.  Effective IPC = base IPC × pollution factor
    × SMT share; miss events accrue and pollution decays as the user code
    re-warms its state.
``mem_access(vaddr, is_write)``
    Issue one memory access through the logical core's MMU.  On a hardware
    page miss the pipeline *stalls* (no issue slots consumed); on an OS
    fault the handler's kernel phases and I/O blocking run inside this
    thread (see :mod:`repro.os.fault`).
``kernel_phase(ns, name)``
    Used by the OS model to charge one fault-path phase to this thread:
    occupies the core in KERNEL state, retires kernel instructions, and
    pollutes the physical core's microarchitectural state.
``block(completion)``
    Context-switched out: the core goes IDLE (an SMT sibling gets full
    width) until the completion fires.
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional

from repro.config import CpuConfig
from repro.cpu.core import CoreState, LogicalCore
from repro.cpu.perf import PerfCounters
from repro.errors import SimulationError
from repro.sim import Signal, Simulator

#: Instruction-batch quantum: small enough that SMT/pollution state is
#: sampled every few microseconds, large enough to keep event counts low.
COMPUTE_QUANTUM = 20_000

#: Enum members bound as module locals: the execution primitives below set
#: core state once or twice per event, where the class-attribute chain
#: shows up in profiles.
_IDLE = CoreState.IDLE
_USER = CoreState.USER
_KERNEL = CoreState.KERNEL
_STALLED = CoreState.STALLED

_exp = math.exp


class ThreadContext:
    """One software thread pinned to one logical core."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        process: Any,
        core: LogicalCore,
        cpu: CpuConfig,
        kernel_context: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.process = process
        self.core = core
        self.cpu = cpu
        #: Kernel daemons (kpted/kpoold) charge all work as kernel time.
        self.kernel_context = kernel_context
        self.perf = PerfCounters(name)
        #: Workload-specific IPC multiplier (SPEC-like kernels differ in
        #: inherent ILP; see :mod:`repro.workloads.spec`).
        self.ipc_scale = 1.0
        #: Open miss-lifecycle span this thread is currently inside (see
        #: :mod:`repro.obs.trace`); kernel phases charged while it is set
        #: land in the span as typed events, the one record of the phases
        #: a fault took (fig03 and ``--trace`` read them).
        self.active_span = None
        core.bind(self)
        self.finished = False
        # -- hot-path caches (values are fixed for the thread's lifetime) --
        self._freq = cpu.freq_ghz
        self._kernel_ipc = cpu.kernel_ipc
        #: ``(event, base_rate, pollution_sensitivity)`` rows mirroring the
        #: config dicts, so the per-quantum miss-event loop needs no dict
        #: lookups (iteration order matches the config dict's).
        self._miss_tuples = tuple(
            (event, cpu.miss_rates_per_kinstr[event], cpu.miss_pollution_sensitivity[event])
            for event in cpu.miss_rates_per_kinstr
        )
        self._process_kernel = getattr(process, "kernel", None)

    # ------------------------------------------------------------------
    # user execution
    # ------------------------------------------------------------------
    # repro: hot-path
    def compute(self, instructions: float) -> Generator[Any, Any, None]:
        """Retire ``instructions`` user instructions on this core.

        :meth:`LogicalCore.smt_factor` and :meth:`PollutionState.decay`
        are inlined per quantum with the same float expressions.
        """
        if instructions < 0:
            raise SimulationError(f"negative instruction count {instructions}")
        remaining = float(instructions)
        core = self.core
        pollution = core.pollution
        siblings = core.siblings()
        smt_share = core._smt_share
        perf = self.perf
        miss_events = perf.miss_events
        miss_tuples = self._miss_tuples
        freq = self._freq
        penalty = pollution._ipc_penalty
        decay_instr = pollution._decay_instr
        # ``base * scale`` is the constant prefix of the IPC product; the
        # association ``((base * scale) * pollution) * smt`` matches the
        # original left-to-right fold bit for bit.
        scaled_base_ipc = self.cpu.base_user_ipc * self.ipc_scale
        while remaining > 0:
            chunk = min(remaining, COMPUTE_QUANTUM)
            smt = 1.0
            for lane in siblings:
                state = lane.state
                if state is _USER or state is _KERNEL:
                    smt = smt_share
                    break
            ipc = scaled_base_ipc * (1.0 - penalty * pollution.value) * smt
            cycles = chunk / ipc
            core.state = _USER
            yield cycles / freq
            perf.user_instructions += chunk
            perf.user_cycles += cycles
            kilo = chunk / 1000.0
            value = pollution.value
            for event, base, sensitivity in miss_tuples:
                miss_events[event] += kilo * (base * (1.0 + sensitivity * value))
            # ``chunk`` is positive here, so the decay always applies.
            pollution.value = value * _exp(-chunk / decay_instr)
            remaining -= chunk
        core.state = _IDLE

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------
    def mem_access(self, vaddr: int, is_write: bool = False) -> Generator[Any, Any, Any]:
        """One load/store; returns the MMU's :class:`Translation`."""
        core = self.core
        previous_state = core.state
        # While the walker/SMU works, the pipeline is stalled, not issuing.
        core.state = _STALLED
        translation = yield from core.mmu.translate(self, vaddr, is_write)
        core.state = previous_state
        self.perf.record_translation(translation.kind.label, translation.miss_latency_ns)
        kernel = self._process_kernel
        if kernel is not None:
            # Models the hardware access/dirty bits the OS samples: walks
            # (TLB misses) refresh LRU recency, writes mark pages dirty.
            kernel.note_access(translation.pfn, is_write)
        return translation

    # ------------------------------------------------------------------
    # kernel-side charging (called by the OS model on this thread)
    # ------------------------------------------------------------------
    # repro: hot-path
    def kernel_phase(self, ns: float, name: str = "") -> Generator[Any, Any, None]:
        """Run one kernel phase of ``ns`` length in this thread's context.

        :meth:`PollutionState.add_kernel_work` is inlined with the same
        float expression.
        """
        if ns <= 0:
            return
        span = self.active_span
        if span is not None:
            span.event(self.sim.now, name, ns)
        core = self.core
        core.state = _KERNEL
        yield ns
        cycles = ns * self._freq
        instructions = cycles * self._kernel_ipc
        perf = self.perf
        perf.kernel_instructions += instructions
        perf.kernel_cycles += cycles
        if instructions > 0:
            pollution = core.pollution
            value = pollution.value
            pollution.value = value + (1.0 - value) * (
                1.0 - _exp(-instructions / pollution._saturation_instr)
            )
        core.state = _STALLED

    def block(self, signal: Signal) -> Generator[Any, Any, Any]:
        """Context-switched out until ``signal`` fires; core goes IDLE."""
        self.core.state = _IDLE
        blocked_at = self.sim.now
        value = yield signal
        self.perf.blocked_cycles += (self.sim.now - blocked_at) * self._freq
        self.core.state = _STALLED
        return value

    def mwait(self, signal: Signal) -> Generator[Any, Any, Any]:
        """monitor/mwait-style wait: the core halts (STALLED, not issuing)
        until the watched memory is written — the SW-emulated SMU's
        completion wait (paper §VI-A)."""
        self.core.state = _STALLED
        waited_from = self.sim.now
        value = yield signal
        self.perf.stall_cycles += (self.sim.now - waited_from) * self._freq
        self.core.state = _STALLED
        return value

    def stall(self, ns: float) -> Generator[Any, Any, None]:
        """Pipeline-stalled delay (hardware miss handling wait)."""
        if ns <= 0:
            return
        self.core.state = _STALLED
        yield ns
        self.perf.stall_cycles += ns * self._freq

    # ------------------------------------------------------------------
    def note_operation(self, count: int = 1) -> None:
        """Record completed workload operations (throughput accounting)."""
        self.perf.operations += count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadContext {self.name} core={self.core.core_id}>"
