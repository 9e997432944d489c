"""Per-layer host-time attribution by wrapping each package's entry points.

The benchmark never edits the simulator.  Instead :func:`install` replaces
selected methods on the simulator's classes with timing wrappers and
:func:`uninstall` puts the originals back.  Wrappers must be installed
before ``build_system``: the builder captures bound methods (the kernel
stores ``fault_handler.handle`` on every MMU, each daemon's ``run()``
generator is created at boot), so a later patch would miss them.

Attribution is self time.  The tracer keeps one "current bucket" and the
host time since it last changed; entering or leaving a wrapped call charges
the elapsed time to the bucket that was current, so a bucket's total is its
calls' inclusive time minus the time of the wrapped calls nested inside
them.  Generator entry points (most of the model is coroutines) do no work
when called; their wrapper returns a proxy that is timed on every resume.
"""

from __future__ import annotations

import collections
import inspect
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Bucket charged while no wrapped call is active (harness code, the
#: ``System.run`` bookkeeping around the event loop).
HOST = "host"


def entry_points() -> List[Tuple[str, str, type, str]]:
    """``(bucket, counter, class, method)`` for every wrapped entry point.

    ``counter`` names the call tally; layer-level metrics sum every counter
    under the layer's prefix.  Sub-buckets (``os.fault``, ``os.kthreads``)
    roll up into their layer's self time.
    """
    from repro.core.free_page_queue import FreePageQueue
    from repro.core.host_controller import SmuHostController
    from repro.core.pmshr import Pmshr
    from repro.core.prefetcher import Prefetcher
    from repro.core.smu import Smu
    from repro.core.system import System
    from repro.cpu.thread import ThreadContext
    from repro.mem.physmem import FramePool
    from repro.os.blockio import BlockIoStack
    from repro.os.fault import PageFaultHandler
    from repro.os.kernel import Kernel
    from repro.os.kthreads import Kpoold, Kpted, Kswapd
    from repro.os.page_cache import PageCache
    from repro.sim.engine import Simulator
    from repro.storage.nvme import NVMeDevice
    from repro.vm.mmu import Mmu
    from repro.vm.page_table import PageTable
    from repro.vm.tlb import Tlb
    from repro.workloads import distributions
    from repro.workloads.kvstore import KVStore

    points = [("sim", "sim.run", Simulator, "run")]
    for method in ("compute", "mem_access", "kernel_phase", "block", "mwait",
                   "stall", "note_operation"):
        points.append(("cpu", f"cpu.{method}", ThreadContext, method))
    points.append(("vm", "vm.translate", Mmu, "translate"))
    points.append(("vm", "vm.walk", PageTable, "walk"))
    for method in ("get_pte", "set_pte", "clear_pte", "read_entry", "write_entry",
                   "set_entry_lba_bit", "mark_sync_pending", "collect_pending_sync"):
        points.append(("vm", f"vm.page_table.{method}", PageTable, method))
    for method in ("lookup", "fill", "invalidate", "flush"):
        points.append(("vm", f"vm.tlb.{method}", Tlb, method))
    points.append(("os.fault", "os.fault.handle", PageFaultHandler, "handle"))
    for daemon in (Kpted, Kpoold, Kswapd):
        points.append(("os.kthreads", f"os.kthreads.{daemon.__name__.lower()}",
                       daemon, "run"))
    for method in ("alloc_frame", "direct_reclaim", "evict_page",
                   "install_resident_page", "map_cached_page", "hw_install_page",
                   "sync_hw_page", "note_access", "refill_free_page_queue",
                   "file_write"):
        points.append(("os", f"os.{method}", Kernel, method))
    for method in ("lookup", "insert", "remove"):
        points.append(("os", f"os.page_cache.{method}", PageCache, method))
    for method in ("submit_read", "submit_write", "_interrupt_dispatcher"):
        points.append(("os", f"os.blockio.{method.lstrip('_')}", BlockIoStack, method))
    points.append(("core", "core.handle_miss", Smu, "handle_miss"))
    points.append(("core", "core.on_completion", Smu, "_on_completion"))
    for method in ("lookup_or_allocate", "release"):
        points.append(("core", f"core.pmshr.{method}", Pmshr, method))
    for method in ("pop", "refill", "give_back"):
        points.append(("core", f"core.free_queue.{method}", FreePageQueue, method))
    for method in ("await_sq_slot", "issue_read", "_completion_unit"):
        points.append(("core", f"core.host.{method.lstrip('_')}", SmuHostController,
                       method))
    for method in ("observe_demand_miss", "_prefetch_pipeline"):
        points.append(("core", f"core.prefetch.{method.lstrip('_')}", Prefetcher,
                       method))
    points.append(("storage", "storage.submit", NVMeDevice, "submit"))
    points.append(("storage", "storage.execute", NVMeDevice, "_execute"))
    for method in ("alloc", "try_alloc", "alloc_batch", "free"):
        points.append(("mem", f"mem.{method}", FramePool, method))
    points.append(("workloads", "workloads.body", System, "spawn"))
    for method in ("get", "put", "insert", "read_modify_write", "scan"):
        points.append(("workloads", f"workloads.kv.{method}", KVStore, method))
    for name in ("UniformGenerator", "ZipfianGenerator", "ScrambledZipfianGenerator",
                 "LatestGenerator"):
        cls = getattr(distributions, name)
        for method in ("next", "draw"):
            points.append(("workloads", f"workloads.keygen.{name}.{method}", cls,
                           method))
    return points


class LayerTracer:
    """Self-time per bucket and call counts per entry point."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.defaultdict(int)
        self._bucket = HOST
        self._since = perf_counter()
        self._stack: List[str] = []

    def reset(self) -> None:
        """Zero every tally; the caller is at top level (no wrapped call)."""
        self.times.clear()
        self.calls.clear()
        self._stack.clear()
        self._bucket = HOST
        self._since = perf_counter()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Tallies so far, charging the open interval to the current bucket."""
        now = perf_counter()
        self.times[self._bucket] += now - self._since
        self._since = now
        return {"times": dict(self.times), "calls": dict(self.calls)}

    def enter(self, bucket: str) -> None:
        now = perf_counter()
        self.times[self._bucket] += now - self._since
        self._stack.append(self._bucket)
        self._bucket = bucket
        self._since = now

    def exit(self) -> None:
        now = perf_counter()
        self.times[self._bucket] += now - self._since
        self._bucket = self._stack.pop()
        self._since = now


class _TimedGenerator:
    """Generator proxy that charges every resume to one bucket.

    Works under ``yield from`` (which calls ``send``/``throw``/``close`` on
    any iterator) and as a process body (``Process`` drives ``send``).
    """

    __slots__ = ("_gen", "_bucket", "_tracer")

    def __init__(self, gen: Any, bucket: str, tracer: LayerTracer):
        self._gen = gen
        self._bucket = bucket
        self._tracer = tracer

    def __iter__(self) -> "_TimedGenerator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        tracer.enter(self._bucket)
        try:
            return self._gen.send(None)
        finally:
            tracer.exit()

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        tracer.enter(self._bucket)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args: Any) -> Any:
        tracer = self._tracer
        tracer.enter(self._bucket)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()

    def close(self) -> None:
        self._gen.close()


def _spin(seconds: float) -> None:
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        pass


def _wrap(func: Callable, bucket: str, counter: str,
          tracer: Optional[LayerTracer], spin_s: float) -> Callable:
    """A timing wrapper for one entry point (``tracer=None``: spin only)."""
    if tracer is None:
        def spinning(*args, **kwargs):
            _spin(spin_s)
            return func(*args, **kwargs)

        return spinning

    calls = tracer.calls
    if counter == "workloads.body":
        # System.spawn(body, name): the entry point is the driver body the
        # caller hands in, not spawn itself.
        def spawn(system, body, *args, **kwargs):
            calls[counter] += 1
            return func(system, _TimedGenerator(body, bucket, tracer), *args, **kwargs)

        return spawn

    enter, leave = tracer.enter, tracer.exit
    if inspect.isgeneratorfunction(func):
        def generator(*args, **kwargs):
            calls[counter] += 1
            if spin_s:
                enter(bucket)
                _spin(spin_s)
                leave()
            return _TimedGenerator(func(*args, **kwargs), bucket, tracer)

        return generator

    def plain(*args, **kwargs):
        calls[counter] += 1
        enter(bucket)
        try:
            if spin_s:
                _spin(spin_s)
            return func(*args, **kwargs)
        finally:
            leave()

    return plain


class Installation:
    """Patched methods, restorable by :meth:`uninstall`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


def install(tracer: Optional[LayerTracer],
            inject: Optional[Dict[str, float]] = None) -> Installation:
    """Wrap entry points for ``tracer`` and/or busy-wait injection.

    ``inject`` maps a counter name (e.g. ``"core.handle_miss"``) to a host
    busy-wait in seconds added to every call of that entry point.  With
    ``tracer=None`` only the injected entry points are wrapped, so an
    untraced run carries no other wrapper.
    """
    inject = dict(inject or {})
    installation = Installation()
    for bucket, counter, cls, name in entry_points():
        spin_s = inject.pop(counter, 0.0)
        if tracer is None and not spin_s:
            continue
        original = cls.__dict__[name]
        installation._saved.append((cls, name, original))
        setattr(cls, name, _wrap(original, bucket, counter, tracer, spin_s))
    if inject:
        installation.uninstall()
        raise KeyError(f"unknown entry points for injection: {sorted(inject)}")
    return installation


def layer_totals(snapshot: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Fold a snapshot into ``<layer>.self_s`` and ``<layer>.calls``."""
    totals: Dict[str, float] = collections.defaultdict(float)
    for bucket, seconds in snapshot["times"].items():
        if bucket == HOST:
            continue
        layer = bucket.split(".", 1)[0]
        totals[f"{layer}.self_s"] += seconds
        if bucket != layer:
            totals[f"{bucket}.self_s"] += seconds
    for counter, count in snapshot["calls"].items():
        totals[f"{counter.split('.', 1)[0]}.calls"] += count
    return dict(totals)


def calls_under(snapshot: Dict[str, Dict[str, float]], prefix: str) -> int:
    """Calls of every entry point whose counter is ``prefix`` or under it."""
    return sum(
        count for counter, count in snapshot["calls"].items()
        if counter == prefix or counter.startswith(prefix + ".")
    )
