"""Resilience under injected storage errors (beyond the paper).

The paper's §IV-D describes *one* degraded path — the dry free-page queue
falling back to a conventional OS fault.  This experiment stresses the
full error surface: NVMe read errors injected at increasing rates while
OSDP and HWDP machines run the same random-read workload.  For each
(mode, error-rate) cell it reports throughput and latency degradation
against the same mode's fault-free baseline, how many misses each path
retried or abandoned, and how many errors reached the application as
SIGBUS.  The post-run invariant checker runs inside every cell — a leak
on any error path fails the experiment, not just a unit test.

One cell per (mode, error-rate) pair — 8 cells, engine-parallel.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.config import PagingMode
from repro.errors import IoError
from repro.experiments.registry import Cell, ExperimentSpec, register
from repro.experiments.runner import (
    QUICK,
    ExperimentResult,
    ExperimentScale,
    experiment_config,
)
from repro.faults import assert_invariants, read_error_plan
from repro.mem.address import PAGE_SHIFT
from repro.os.vma import MmapFlags
from repro.sim import StatAccumulator

_MODES = (PagingMode.OSDP, PagingMode.HWDP)
_ERROR_RATES = (0.0, 0.05, 0.2, 0.5)
_THREADS = 2

TITLE = "throughput/latency degradation under injected NVMe read errors"


def _cells(scale: ExperimentScale) -> List[Cell]:
    return [
        Cell.make(mode=mode.value, error_rate=rate)
        for mode in _MODES
        for rate in _ERROR_RATES
    ]


def _cell(scale: ExperimentScale, params: Dict) -> Dict:
    from repro.core.system import build_system

    mode = PagingMode(params["mode"])
    rate = params["error_rate"]
    config = experiment_config(mode, scale)
    if rate > 0.0:
        config = replace(
            config, fault_plan=read_error_plan(rate, name=f"read-errors-{rate}")
        )
    system = build_system(config)
    kernel = system.kernel

    dataset_pages = max(64, 2 * scale.memory_frames)
    file = kernel.fs.create_file("data", dataset_pages)
    process = system.create_process("app")
    threads = [system.workload_thread(process, index=i) for i in range(_THREADS)]

    proc = system.spawn(
        kernel.sys_mmap(threads[0], file, dataset_pages, MmapFlags.FASTMAP), "mmap"
    )
    system.run([proc], stop_daemons=False)
    vma = proc.result

    latency = StatAccumulator("op-latency")
    tallies = {"ops": 0, "sigbus": 0}
    ops = scale.ops_per_thread

    def body(thread, stream_name):
        rng = system.rng.stream(stream_name)
        for _ in range(ops):
            page = int(rng.integers(dataset_pages))
            vaddr = vma.start + (page << PAGE_SHIFT)
            started = system.sim.now
            try:
                yield from thread.mem_access(vaddr, False)
            except IoError:
                # SIGBUS delivered: the op fails but the run continues —
                # exactly what an application with a handler would see.
                tallies["sigbus"] += 1
            else:
                latency.add(system.sim.now - started)
            tallies["ops"] += 1

    workers = [
        system.spawn(body(thread, f"resilience-{i}"), f"worker-{i}")
        for i, thread in enumerate(threads)
    ]
    start = system.sim.now
    elapsed = system.run(workers) - start

    # Drain fire-and-forget writeback traffic, then require every error
    # path to have cleaned up after itself.
    system.sim.run(until=system.sim.now + 2_000_000.0)
    assert_invariants(system)

    counters = kernel.counters
    injected = (
        system.fault_injector.injected_total if system.fault_injector else 0
    )
    return {
        "mode": mode.value,
        "error_rate": rate,
        "throughput_ops_per_sec": tallies["ops"] / (elapsed / 1e9),
        "mean_latency_ns": latency.mean if latency.count else 0.0,
        "injected": injected,
        "smu_io_errors": counters.get("smu.io_errors"),
        "smu_io_retries": counters.get("smu.io_retries"),
        "smu_fallbacks": counters.get("smu.io_error_failures"),
        "os_io_errors": counters.get("fault.io_errors"),
        "os_io_retries": counters.get("fault.io_retries"),
        "sigbus": tallies["sigbus"],
    }


def _merge(scale: ExperimentScale, payloads: List[Dict]) -> ExperimentResult:
    result = ExperimentResult(
        name="resilience",
        title=TITLE,
        headers=[
            "mode",
            "error_rate",
            "kops_per_sec",
            "degradation_pct",
            "mean_latency_us",
            "injected",
            "smu_retries",
            "smu_fallbacks",
            "os_retries",
            "sigbus",
        ],
        paper_reference={
            "scope": "beyond the paper: §IV-D describes the queue-empty "
            "fallback; this sweep exercises the full storage-error surface"
        },
    )
    baselines = {
        p["mode"]: p["throughput_ops_per_sec"]
        for p in payloads
        if p["error_rate"] == 0.0
    }
    for payload in payloads:
        baseline = baselines.get(payload["mode"], 0.0)
        degradation = (
            100.0 * (1.0 - payload["throughput_ops_per_sec"] / baseline)
            if baseline
            else None
        )
        result.add_row(
            mode=payload["mode"],
            error_rate=payload["error_rate"],
            kops_per_sec=payload["throughput_ops_per_sec"] / 1000.0,
            degradation_pct=degradation,
            mean_latency_us=payload["mean_latency_ns"] / 1000.0,
            injected=payload["injected"],
            smu_retries=payload["smu_io_retries"],
            smu_fallbacks=payload["smu_fallbacks"],
            os_retries=payload["os_io_retries"],
            sigbus=payload["sigbus"],
        )
    return result


SPEC = register(
    ExperimentSpec(
        name="resilience",
        title=TITLE,
        cells=_cells,
        cell_fn=_cell,
        merge=_merge,
        aliases=("faults",),
    )
)
