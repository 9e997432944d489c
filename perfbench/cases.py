"""The benchmark's four workloads: one measured repetition each.

Every function here runs one repetition and returns a :class:`Rep`; it
raises when an output check fails.  ``run.py`` repeats them for the
requested time and folds the repetitions into metrics.

Machine workloads (``fio-hwdp``, ``fio-osdp``, ``ycsb-a-hwdp``) build the
paper-shape machine (4,096 frames), a dataset twice the size of memory and
4 closed-loop threads, pre-warm memory with the steady-state resident set
that ``repro.experiments.workload_runs`` uses, and time ``System.run``.
``zoo-warm`` times one warm-start ``execute()`` of the 50-cell policy-zoo
grid at quick scale.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from layers import LayerTracer

from repro.config import PagingMode
from repro.experiments.runner import (
    PAPER_SHAPE,
    QUICK,
    build,
    prewarm_pages,
    uniform_resident_pages,
    usable_data_frames,
    zipfian_hot_pages,
)
from repro.experiments.workload_runs import YCSB_PREWARM_FRACTION
from repro.faults import assert_invariants
from repro.sim.trace import StatAccumulator
from repro.workloads.fio import FioRandomRead
from repro.workloads.ycsb import YcsbWorkload

#: name -> (driver kind, paging mode, operations per thread).  Op counts give
#: tens of thousands of operations per run, so p99.9 has >= 10 samples
#: beyond it, and about one second of host time per repetition.
MACHINE = {
    "fio-hwdp": ("fio", PagingMode.HWDP, 4000),
    "fio-osdp": ("fio", PagingMode.OSDP, 4000),
    "ycsb-a-hwdp": ("ycsb-a", PagingMode.HWDP, 8000),
}
ZOO = "zoo-warm"
WORKLOADS = tuple(MACHINE) + (ZOO,)

THREADS = 4
DATASET_RATIO = 2
#: Simulated time run after the measured phase so in-flight daemon, SMU
#: and device work settles before the invariant check (as policy-zoo does).
DRAIN_NS = 2_000_000.0
#: The seed the recorded tables under benchmarks/output were made with.
GOLDEN_SEED = 0xD5EED


class CheckFailed(RuntimeError):
    """An output check of the benchmark failed."""


@dataclasses.dataclass
class Rep:
    """One measured repetition."""

    run_s: float
    ops: int
    #: sim_kops / sim_p50_us / sim_p999_us.
    sim: Dict[str, float]
    #: Per-layer metrics read from simulated state (repeat exactly).
    counts: Dict[str, float]
    #: Digest of the simulated outcome; every rep of one seed must agree.
    digest: str
    setup: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Tracer snapshot of the measured phase (traced reps only).
    layers: Optional[Dict[str, Dict[str, float]]] = None
    #: experiments-layer figures (zoo-warm only).
    experiments: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Merged table text (zoo-warm only).
    table: str = ""


# ----------------------------------------------------------------------
# simulated-state counters shared by both kinds of workload
# ----------------------------------------------------------------------
def raw_counters(system: Any, threads: List[Any]) -> Dict[str, float]:
    """Cumulative counters the per-layer metrics are deltas of."""
    kernel = system.kernel
    counters = kernel.counters
    cores = system.cpu_complex.logical_cores
    smus = system.smu_complex.smus if system.smu_complex is not None else []
    device = system.device
    return {
        "events": system.sim.events_dispatched,
        "tlb_hits": sum(core.mmu.tlb.hits for core in cores),
        "tlb_misses": sum(core.mmu.tlb.misses for core in cores),
        "hw_misses": sum(core.mmu.hw_misses for core in cores),
        "hw_fallbacks": sum(core.mmu.hw_fallbacks for core in cores),
        "fault_major": counters.get("fault.major"),
        "fault_coalesced": counters.get("fault.coalesced"),
        "evicted": counters.get("reclaim.evicted"),
        "kpted_synced": counters.get("kpted.pages_synced"),
        "write_submitted": counters.get("write.submitted"),
        "misses_handled": sum(smu.misses_handled for smu in smus),
        "pmshr_allocated": sum(smu.pmshr.stats.get("allocated") for smu in smus),
        "pmshr_coalesced": sum(smu.pmshr.stats.get("coalesced") for smu in smus),
        "fq_refilled": sum(q.stats.get("refilled") for q in kernel.iter_free_queues()),
        "prefetch_issued": sum(smu.readahead.stats.get("issued") for smu in smus),
        "reads": device.reads_completed,
        "writes": device.writes_completed,
        "read_ns": device.read_device_time.total,
        "write_ns": device.write_device_time.total,
        "read_samples": len(device.read_device_time.samples),
        # Cumulative busy time; NVMeDevice.utilisation() only divides it by
        # the time since boot.
        "busy_ns": device._server.busy_time_ns,
        "wait_ns": sum(
            (t.perf.stall_cycles + t.perf.blocked_cycles) / t.cpu.freq_ghz
            for t in threads
        ),
        "sim_ns": system.sim.now,
    }


def counter_delta(system: Any, before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, Any]:
    """``after - before``, plus the device read-time samples in between."""
    delta: Dict[str, Any] = {key: after[key] - before[key] for key in before}
    samples = system.device.read_device_time.samples
    delta["read_list"] = samples[int(before["read_samples"]):int(after["read_samples"])]
    delta["capacity"] = system.device.config.parallel_ops
    return delta


def derive_counts(deltas: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer count metrics from one or more summed counter deltas."""
    total: Dict[str, float] = {}
    reads: List[float] = []
    busy_capacity_ns = 0.0
    for delta in deltas:
        for key, value in delta.items():
            if key == "read_list":
                reads.extend(value)
            elif key != "capacity":
                total[key] = total.get(key, 0) + value
        busy_capacity_ns += delta["sim_ns"] * delta["capacity"]
    read_stat = StatAccumulator("read-us")
    read_stat.extend(reads)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "sim.events": int(total["events"]),
        "cpu.wait_ms_sim": total["wait_ns"] / 1e6,
        "vm.tlb_hit_ratio": ratio(total["tlb_hits"], total["tlb_hits"] + total["tlb_misses"]),
        "os.fault.major": int(total["fault_major"]),
        "os.fault.coalesced": int(total["fault_coalesced"]),
        "os.reclaim.evicted": int(total["evicted"]),
        "os.kpted.synced": int(total["kpted_synced"]),
        "os.write.submitted": int(total["write_submitted"]),
        "core.misses_handled": int(total["misses_handled"]),
        "core.hw_fallback_ratio": ratio(
            total["hw_fallbacks"], total["hw_misses"] + total["hw_fallbacks"]
        ),
        "core.pmshr.coalesce_ratio": ratio(
            total["pmshr_coalesced"], total["pmshr_allocated"] + total["pmshr_coalesced"]
        ),
        "core.free_queue.refilled": int(total["fq_refilled"]),
        "core.prefetch.issued": int(total["prefetch_issued"]),
        "storage.reads": int(total["reads"]),
        "storage.writes": int(total["writes"]),
        "storage.read_us_mean": ratio(total["read_ns"], total["reads"]) / 1e3,
        "storage.read_us_p99": read_stat.percentile(99.0) / 1e3,
        "storage.write_us_mean": ratio(total["write_ns"], total["writes"]) / 1e3,
        "storage.busy_frac": ratio(total["busy_ns"], busy_capacity_ns),
    }


def latency_metrics(samples: List[float], ops: int, elapsed_ns: float) -> Dict[str, float]:
    """Simulated throughput and operation-latency percentiles."""
    stat = StatAccumulator("op-latency")
    stat.extend(samples)
    return {
        "sim_kops": ops / (elapsed_ns / 1e9) / 1e3,
        "sim_p50_us": stat.percentile(50.0) / 1e3,
        # With >= 10,000 operations, the highest percentile that keeps at
        # least ten samples beyond it.
        "sim_p999_us": stat.percentile(99.9) / 1e3,
    }


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# machine workloads
# ----------------------------------------------------------------------
def run_machine(name: str, seed: int, tracer: Optional[LayerTracer] = None) -> Rep:
    """One repetition of a machine workload; raises :class:`CheckFailed`."""
    kind, mode, ops_per_thread = MACHINE[name]
    dataset_pages = DATASET_RATIO * PAPER_SHAPE.memory_frames
    started = perf_counter()
    system = build(mode, PAPER_SHAPE, seed=seed)
    built = perf_counter()
    if kind == "fio":
        driver = FioRandomRead(ops_per_thread=ops_per_thread, file_pages=dataset_pages)
    else:
        driver = YcsbWorkload("a", ops_per_thread=ops_per_thread,
                              num_records=dataset_pages)
    driver.prepare(system, THREADS)
    prepared = perf_counter()
    # The steady-state pre-warm of workload_runs.run_kv_workload: a random
    # resident subset for uniform keys, half the budget of the zipfian hot
    # set for YCSB.
    budget = usable_data_frames(system)
    if kind == "fio":
        vma = driver.vma
        pages = uniform_resident_pages(
            dataset_pages, budget, system.rng.stream("prewarm-uniform")
        )
    else:
        vma = driver.store.vma
        pages = zipfian_hot_pages(dataset_pages, int(budget * YCSB_PREWARM_FRACTION))
    prewarm_pages(system, driver.threads[0], vma, pages)
    for thread in driver.threads + system.kthread_threads:
        thread.perf.reset()
    processes = driver.launch(system)
    before = raw_counters(system, driver.threads)
    if tracer is not None:
        tracer.reset()
    warmed = perf_counter()
    system.run(processes)
    finished = perf_counter()
    layers = tracer.snapshot() if tracer is not None else None
    after = raw_counters(system, driver.threads)
    counts = derive_counts([counter_delta(system, before, after)])

    system.sim.run(until=system.sim.now + DRAIN_NS)
    assert_invariants(system)
    ops = driver.total_operations
    if ops != THREADS * ops_per_thread:
        raise CheckFailed(f"{name}: {ops} operations completed, "
                          f"expected {THREADS * ops_per_thread}")
    sim = latency_metrics(driver.op_latency.samples, ops, after["sim_ns"] - before["sim_ns"])
    digest = _digest({
        "events": system.sim.events_dispatched,
        "ops": ops,
        "sim_ns": system.sim.now,
        "metrics": system.metrics.collect(),
        "sim": sim,
        "counts": counts,
    })
    return Rep(
        run_s=finished - warmed,
        ops=ops,
        sim=sim,
        counts=counts,
        digest=digest,
        setup={
            "build_s": built - started,
            "prepare_s": prepared - built,
            "prewarm_s": warmed - prepared,
        },
        layers=layers,
    )


# ----------------------------------------------------------------------
# zoo-warm
# ----------------------------------------------------------------------
@contextlib.contextmanager
def seeded_zoo(seed: int) -> Iterator[None]:
    """Run policy-zoo cells under ``master_seed=seed``.

    The grid builds every machine through the ``experiment_config`` name
    bound in its module, with the default seed; rebinding that name is the
    only way in without editing the simulator.
    """
    from repro.experiments import policy_zoo, runner

    original = policy_zoo.experiment_config
    policy_zoo.experiment_config = functools.partial(runner.experiment_config, seed=seed)
    try:
        yield
    finally:
        policy_zoo.experiment_config = original


def _cell_name(params: Dict[str, Any]) -> str:
    return "-".join(str(params[key]) for key in sorted(params))


def _zoo_spec(side_dir: Path, tracer: Optional[LayerTracer]) -> Any:
    """policy-zoo with its warm phases instrumented.

    ``prefix`` runs in a forked group leader and ``finish`` in a forked
    child per cell, so their counters, latency samples and layer times are
    written to ``side_dir`` for the parent to merge.
    """
    from repro.experiments import get_spec

    spec = get_spec("policy-zoo")
    warm = spec.warmup

    def write(name: str, record: Dict[str, Any]) -> None:
        (side_dir / f"{name}.json").write_text(json.dumps(record))

    def prefix(scale: Any, group: Dict[str, Any]) -> Any:
        if tracer is not None:
            tracer.reset()
        ctx = warm.prefix(scale, group)
        write(f"prefix-{_cell_name(group)}", {
            "events": ctx["system"].sim.events_dispatched,
            "layers": tracer.snapshot() if tracer is not None else None,
        })
        return ctx

    def finish(scale: Any, params: Dict[str, Any], ctx: Any) -> Dict[str, Any]:
        if tracer is not None:
            tracer.reset()
        system, driver = ctx["system"], ctx["driver"]
        before = raw_counters(system, driver.threads)
        payload = warm.finish(scale, params, ctx)
        layers = tracer.snapshot() if tracer is not None else None
        delta = counter_delta(system, before, raw_counters(system, driver.threads))
        ops = driver.total_operations
        write(f"cell-{_cell_name(params)}", {
            "delta": delta,
            "ops": ops,
            # The measured phase's simulated length, as the cell's
            # throughput column states it.
            "elapsed_ns": ops / (payload["throughput_kops"] * 1e3) * 1e9,
            "latency": driver.op_latency.samples,
            "layers": layers,
        })
        return payload

    return dataclasses.replace(
        spec, warmup=dataclasses.replace(warm, prefix=prefix, finish=finish)
    )


def run_zoo(seed: int, work_dir: Path, tracer: Optional[LayerTracer] = None) -> Rep:
    """One warm-start execution of the policy-zoo grid."""
    from repro.experiments import execute
    from repro.experiments.engine import scale_to_dict
    from repro.experiments.journal import RunJournal, load_state

    rep_dir = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        side_dir = rep_dir / "cells"
        side_dir.mkdir()
        spec = _zoo_spec(side_dir, tracer)
        journal = RunJournal.create(
            scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
            root=rep_dir / "runs", fsync="never",
        )
        try:
            with seeded_zoo(seed):
                started = perf_counter()
                report = execute([spec], QUICK, journal=journal)
                finished = perf_counter()
        finally:
            journal.close()
        cells = load_state(journal.directory).cells[spec.name]
        records = {path.stem: json.loads(path.read_text())
                   for path in sorted(side_dir.glob("*.json"))}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)

    result = report.result_for(spec.name)
    warm_cells = report.supervision.get("warm_cells", 0)
    expected = len(spec.cells(QUICK))
    if result is None or len(result.rows) != expected:
        raise CheckFailed(f"{ZOO}: merged table is missing cells")
    cell_records = [r for name, r in records.items() if name.startswith("cell-")]
    if warm_cells != expected or len(cell_records) != expected:
        raise CheckFailed(f"{ZOO}: {warm_cells} of {expected} cells ran warm")
    run_s = finished - started
    cells_s = sum(record.wall_s or 0.0 for record in cells.values())

    ops = sum(r["ops"] for r in cell_records)
    elapsed_ns = sum(r["elapsed_ns"] for r in cell_records)
    sim = latency_metrics([s for r in cell_records for s in r["latency"]], ops, elapsed_ns)
    counts = derive_counts([r["delta"] for r in cell_records])
    counts["sim.events"] = sum(r["delta"]["events"] for r in cell_records) + sum(
        r["events"] for name, r in records.items() if name.startswith("prefix-")
    )
    # The table's own tallies (measured phase only) for the three columns
    # it carries.
    counts["os.reclaim.evicted"] = sum(result.column("reclaimed"))
    counts["storage.reads"] = sum(result.column("device_reads"))
    counts["core.prefetch.issued"] = sum(p or 0 for p in result.column("prefetches"))
    table = result.to_text()

    layers = None
    if tracer is not None:
        layers = {"times": {}, "calls": {}}
        for record in records.values():
            for part in ("times", "calls"):
                for key, value in record["layers"][part].items():
                    layers[part][key] = layers[part].get(key, 0) + value
    return Rep(
        run_s=run_s,
        ops=ops,
        sim=sim,
        counts=counts,
        digest=_digest({"table": table, "sim": sim, "counts": counts}),
        layers=layers,
        experiments={
            "cells_s": cells_s,
            "other_s": run_s - cells_s,
            "warm_groups": report.supervision.get("warm_groups", 0),
            "warm_cells": warm_cells,
            "cold_cells": report.computed - warm_cells,
        },
        table=table,
    )


def check_zoo_table(seed: int, table: str, root: Path) -> None:
    """The warm table must equal a cold run's, and the recording at the
    golden seed."""
    from repro.experiments import execute

    with seeded_zoo(seed):
        cold = execute(["policy-zoo"], QUICK, warm_start=False)
    if cold.results[0].to_text() != table:
        raise CheckFailed(f"{ZOO}: warm-start table differs from a cold run")
    if seed == GOLDEN_SEED:
        recorded = (root / "benchmarks" / "output" / "policy-zoo.txt").read_text()
        if recorded.rstrip("\n") != table:
            raise CheckFailed(f"{ZOO}: table differs from benchmarks/output/policy-zoo.txt")


def registry_import_s(root: Path) -> float:
    """Host time for a fresh interpreter to import the experiment registry
    (which imports every package) — zoo-warm's set-up."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import repro.experiments"
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code, str(root / "src")],
                   check=True, cwd=root)
    return perf_counter() - started


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set size so far (ru_maxrss is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0
