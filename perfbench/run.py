"""The repository benchmark: one workload, measured for a fixed time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fio-hwdp --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced repetitions and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.  See README.md in this
directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("fio-hwdp", "fio-osdp", "ycsb-a-hwdp", "zoo-warm")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_kops": "kops/s",
    "sim_p50_us": "us",
    "sim_p999_us": "us",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "cpu.self_s": "s",
    "cpu.calls": "count",
    "cpu.mem_access.calls": "count",
    "cpu.compute.calls": "count",
    "cpu.kernel_phase.calls": "count",
    "cpu.wait_ms_sim": "ms",
    "vm.self_s": "s",
    "vm.calls": "count",
    "vm.translate.calls": "count",
    "vm.walk.calls": "count",
    "vm.tlb_hit_ratio": "ratio",
    "os.self_s": "s",
    "os.calls": "count",
    "os.fault.calls": "count",
    "os.fault.self_s": "s",
    "os.fault.major": "count",
    "os.fault.coalesced": "count",
    "os.note_access.calls": "count",
    "os.kthreads.self_s": "s",
    "os.reclaim.evicted": "count",
    "os.kpted.synced": "count",
    "os.write.submitted": "count",
    "core.self_s": "s",
    "core.calls": "count",
    "core.handle_miss.calls": "count",
    "core.misses_handled": "count",
    "core.hw_fallback_ratio": "ratio",
    "core.pmshr.coalesce_ratio": "ratio",
    "core.free_queue.refilled": "count",
    "core.prefetch.issued": "count",
    "storage.self_s": "s",
    "storage.submit.calls": "count",
    "storage.reads": "count",
    "storage.writes": "count",
    "storage.read_us_mean": "us",
    "storage.read_us_p99": "us",
    "storage.write_us_mean": "us",
    "storage.busy_frac": "ratio",
    "mem.self_s": "s",
    "mem.calls": "count",
    "workloads.self_s": "s",
    "workloads.calls": "count",
    "workloads.kv.calls": "count",
    "workloads.keygen.calls": "count",
    "setup.build_s": "s",
    "setup.prepare_s": "s",
    "setup.prewarm_s": "s",
    "experiments.cells_s": "s",
    "experiments.other_s": "s",
    "experiments.warm_groups": "count",
    "experiments.warm_cells": "count",
    "experiments.cold_cells": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: Untraced repetitions a --trace 0 run makes at least, so medians exist.
MIN_REPS = 3
#: zoo-warm set-up: fresh interpreters importing the experiment registry.
IMPORT_REPEATS = 3
#: Entry points whose call tallies are reported as ``<counter>.calls``.
CALL_COUNTERS = (
    "cpu.mem_access",
    "cpu.compute",
    "cpu.kernel_phase",
    "vm.translate",
    "vm.walk",
    "os.fault",
    "os.note_access",
    "core.handle_miss",
    "storage.submit",
    "workloads.kv",
    "workloads.keygen",
)


class Outcome:
    """Repetitions of one benchmark run and what went wrong in them."""

    def __init__(self) -> None:
        self.warmup: List[Any] = []
        self.untraced: List[Any] = []
        self.traced: List[Any] = []
        self.attempts = 0
        self.failed_attempts = 0
        #: A check over the whole set of repetitions failed.
        self.set_failed = False

    def fail(self, message: str, whole_set: bool = True) -> None:
        self.set_failed = self.set_failed or whole_set
        sys.stderr.write(f"perfbench: check failed: {message}\n")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            inject: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """Run ``workload`` for ``seconds`` and return the result object.

    ``inject`` adds a host busy-wait to named entry points (see
    :func:`layers.install`); the benchmark's own tests use it to show that
    a cost added to one layer lands on that layer.
    """
    import cases
    import layers

    zoo = workload == cases.ZOO
    work_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    outcome = Outcome()
    setup_import_s: List[float] = []
    rss_mb = 0.0
    try:
        if zoo:
            work_dir.mkdir(parents=True, exist_ok=True)
            setup_import_s = [cases.registry_import_s(ROOT) for _ in range(IMPORT_REPEATS)]

        def attempt(tracer: Optional[layers.LayerTracer], into: List[Any]) -> None:
            outcome.attempts += 1
            # The previous repetition's machine is cyclic garbage; collect
            # it here rather than inside the next timed phase.
            gc.collect()
            installation = (layers.install(tracer, inject)
                            if tracer is not None or inject else None)
            try:
                rep = (cases.run_zoo(seed, work_dir, tracer) if zoo
                       else cases.run_machine(workload, seed, tracer))
            except Exception:  # a failed check or a crashed simulation
                outcome.failed_attempts += 1
                outcome.fail(traceback.format_exc(), whole_set=False)
                return
            finally:
                if installation is not None:
                    installation.uninstall()
            into.append(rep)

        # A first repetition runs slower (lazy imports, first-touch
        # allocations); it is checked like the others but not timed.
        attempt(None, outcome.warmup)
        tracer = layers.LayerTracer() if trace else None
        deadline = perf_counter() + seconds
        rounds = 0
        while True:
            attempt(None, outcome.untraced)
            if tracer is not None:
                attempt(tracer, outcome.traced)
            rounds += 1
            if perf_counter() >= deadline and rounds >= (1 if trace else MIN_REPS):
                break
        rss_mb = cases.peak_rss_mb(with_children=zoo)
        reps = outcome.warmup + outcome.untraced + outcome.traced
        if len({rep.digest for rep in reps}) > 1:
            outcome.fail("repetitions disagree on the simulated outcome "
                         "(traced vs untraced, or run to run)")
        if len({json.dumps(rep.layers["calls"], sort_keys=True)
                for rep in outcome.traced}) > 1:
            outcome.fail("entry-point call counts differ between traced repetitions")
        if zoo and reps:
            try:
                cases.check_zoo_table(seed, reps[0].table, ROOT)
            except Exception:
                outcome.fail(traceback.format_exc())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = outcome.warmup + outcome.untraced + outcome.traced
    ops = reps[0].ops if reps else 1
    attempted = outcome.attempts * ops
    failed = attempted if outcome.set_failed else outcome.failed_attempts * ops
    metrics: Dict[str, float] = {}
    if outcome.untraced and (not trace or outcome.traced):
        if trace:
            metrics = per_layer(outcome, zoo)
            units = PER_LAYER
        else:
            metrics = end_to_end(outcome, setup_import_s, rss_mb)
            units = END_TO_END
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in units.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def end_to_end(outcome: Outcome, setup_import_s: List[float],
               rss_mb: float) -> Dict[str, float]:
    reps = outcome.untraced
    if setup_import_s:
        setup_s = median(setup_import_s)
    else:
        setup_s = median([sum(rep.setup.values()) for rep in reps])
    return {
        "run_s": median([rep.run_s for rep in reps]),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        **reps[0].sim,
    }


def per_layer(outcome: Outcome, zoo: bool) -> Dict[str, float]:
    import layers

    untraced, traced = outcome.untraced, outcome.traced
    run_s = median([rep.run_s for rep in untraced])
    totals = [layers.layer_totals(rep.layers) for rep in traced]
    median_totals = {
        key: median([total.get(key, 0.0) for total in totals])
        for key in {key for total in totals for key in total}
    }
    metrics: Dict[str, float] = {
        name: median_totals.get(name, 0.0)
        for name in PER_LAYER if name.endswith(".self_s")
    }
    for layer in ("cpu", "vm", "os", "core", "mem", "workloads"):
        metrics[f"{layer}.calls"] = int(median_totals.get(f"{layer}.calls", 0))
    for counter in CALL_COUNTERS:
        metrics[f"{counter}.calls"] = layers.calls_under(traced[0].layers, counter)
    metrics.update(traced[0].counts)
    metrics["sim.ns_per_event"] = run_s / metrics["sim.events"] * 1e9
    for part in ("build_s", "prepare_s", "prewarm_s"):
        metrics[f"setup.{part}"] = (
            0.0 if zoo else median([rep.setup[part] for rep in untraced])
        )
    for name in ("cells_s", "other_s"):
        metrics[f"experiments.{name}"] = (
            median([rep.experiments[name] for rep in untraced]) if zoo else 0.0
        )
    for name in ("warm_groups", "warm_cells", "cold_cells"):
        metrics[f"experiments.{name}"] = untraced[0].experiments.get(name, 0)
    metrics["trace.overhead_pct"] = (
        median([rep.run_s for rep in traced]) / run_s - 1.0
    ) * 100.0
    metrics["trace.unattributed_pct"] = median([
        rep.layers["times"].get(layers.HOST, 0.0) / sum(rep.layers["times"].values())
        for rep in traced
    ]) * 100.0
    return metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simulator source under {source}\n")
        return 2
    sys.path.insert(0, str(source))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
