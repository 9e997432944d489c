"""Perf harness: measure events/sec and wall time per experiment.

This is the speed campaign's recording instrument.  Each invocation runs a
set of ``(experiment, scale)`` measurements cold (no cell cache, serial,
in-process), counts every simulator's dispatched events through the
observation runtime, and writes one ``BENCH_<n>.json`` snapshot next to
this file.  Successive snapshots — ``BENCH_1.json``, ``BENCH_2.json``, … —
form the repo's recorded perf trajectory: compare any two to see where
engine work moved the needle.

Usage::

    python benchmarks/perf.py                     # default suite, record next BENCH_<n>.json
    python benchmarks/perf.py --only fig11 fig13  # subset, quick scale
    python benchmarks/perf.py --only fig13 --scale paper-shape
    python benchmarks/perf.py --out /tmp/bench.json --label "my experiment"
    python benchmarks/perf.py --only fig11 fig13 --check benchmarks/BENCH_2.json

``--check BASELINE`` compares the fresh run against a recorded snapshot
and exits 1 if any matching ``(experiment, scale)`` entry regressed by
more than ``--tolerance`` (default 0.25, i.e. >25 % events/sec loss), or
dispatched a different number of events than the baseline — the CI perf
gate.  A faster engine must run the same simulation, so the event count
is checked exactly.  Entries present in only one of the two runs are
ignored, so the CI subset can check against a full-suite baseline.

The default suite is the full registry at quick scale plus the headline
contended grid, fig13, at paper shape.  Measurements are wall-clock and
therefore host-dependent; the snapshot records the host so cross-machine
comparisons can be discounted (or gated with a looser tolerance via
``REPRO_PERF_TOLERANCE``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
_REPO_SRC = BENCH_DIR.parent / "src"
if str(_REPO_SRC) not in sys.path:
    sys.path.insert(0, str(_REPO_SRC))

from repro.experiments import registry  # noqa: E402
from repro.experiments.engine import execute, scale_to_dict  # noqa: E402
from repro.experiments.journal import RunJournal  # noqa: E402
from repro.experiments.runner import PAPER_SHAPE, QUICK  # noqa: E402
from repro.obs.runtime import Observation  # noqa: E402

#: Bump when the snapshot layout changes.
#:
#: * 1 — per-experiment entries + naive totals.
#: * 2 — suite totals exclude zero-event analytic experiments (fig02
#:   records ``events: 0`` and would drag the aggregate events/sec);
#:   ``totals.measured_wall_s``/``totals.excluded_zero_event`` record the
#:   exclusion, and an optional ``warm_start`` section carries paired
#:   cold-vs-warm grid measurements (tables asserted byte-identical).
BENCH_SCHEMA = 2

_SCALES = {"quick": QUICK, "paper-shape": PAPER_SHAPE}


def default_suite():
    """The recorded trajectory's measurement set: the full registry at
    quick scale, plus the headline contended grid at paper shape."""
    suite = [(name, "quick") for name in registry.spec_names()]
    suite.append(("fig13", "paper-shape"))
    return suite


def measure(name: str, scale_name: str) -> dict:
    """Run one experiment cold and return its perf entry.

    The run goes through the engine's observation path: serial,
    in-process, cache reads bypassed — exactly the cold single-host
    regime the speed campaign targets.  Event counts come from each
    cell's simulator; the observation hook itself never perturbs the
    simulation (tables stay byte-identical, CI-enforced elsewhere).
    """
    sims = []
    observation = Observation(on_system=lambda unit, system: sims.append(system.sim))
    spec = registry.get_spec(name)
    started = time.perf_counter()
    report = execute([spec], _SCALES[scale_name], observation=observation)
    wall_s = time.perf_counter() - started
    events = sum(sim.events_dispatched for sim in sims)
    return {
        "experiment": spec.name,
        "scale": scale_name,
        "cells": report.total_cells,
        "sims": len(sims),
        "events": events,
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else None,
    }


def run_suite(suite, label: str) -> dict:
    results = []
    for name, scale_name in suite:
        entry = measure(name, scale_name)
        results.append(entry)
        print(
            f"[perf: {entry['experiment']}@{entry['scale']}: "
            f"{entry['events']} events in {entry['wall_s']:.2f}s "
            f"= {entry['events_per_sec']:,.0f} events/s]",
            file=sys.stderr,
        )
    total_wall = sum(r["wall_s"] for r in results)
    total_events = sum(r["events"] for r in results)
    # Zero-event analytic experiments (fig02's closed-form tables) cost
    # wall time but dispatch nothing; folding them into the aggregate
    # would under-report the engine's events/sec.
    measured = [r for r in results if r["events"] > 0]
    measured_wall = sum(r["wall_s"] for r in measured)
    excluded = sorted(r["experiment"] for r in results if r["events"] == 0)
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "results": results,
        "totals": {
            "wall_s": round(total_wall, 4),
            "measured_wall_s": round(measured_wall, 4),
            "events": total_events,
            "events_per_sec": round(total_events / measured_wall, 1)
            if measured_wall > 0
            else None,
            "excluded_zero_event": excluded,
            "note": "events_per_sec excludes zero-event analytic experiments",
        },
    }


_WARM_LEG_SCRIPT = """\
import json, sys, time
src, name, scale_name, warm_flag, out = sys.argv[1:6]
sys.path.insert(0, src)
from repro.experiments import registry
from repro.experiments.engine import execute
from repro.experiments.runner import PAPER_SHAPE, QUICK
scale = {"quick": QUICK, "paper-shape": PAPER_SHAPE}[scale_name]
spec = registry.get_spec(name)
started = time.perf_counter()
report = execute([spec], scale, warm_start=warm_flag == "1")
wall_s = time.perf_counter() - started
with open(out, "w") as handle:
    json.dump(
        {
            "wall_s": wall_s,
            "table": report.results[0].to_text(),
            "cells": report.total_cells,
            "warm_groups": report.supervision.get("warm_groups", 0),
            "warm_cells": report.supervision.get("warm_cells", 0),
        },
        handle,
    )
"""


def _warm_leg(name: str, scale_name: str, warm: bool) -> dict:
    import subprocess
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run(
            [
                sys.executable,
                "-c",
                _WARM_LEG_SCRIPT,
                str(_REPO_SRC),
                name,
                scale_name,
                "1" if warm else "0",
                out.name,
            ],
            check=True,
        )
        with open(out.name) as handle:
            return json.load(handle)


def measure_warm_grid(name: str, scale_name: str) -> dict:
    """Paired cold-vs-warm measurement of a warmup-sharing grid.

    Each leg runs in its own fresh interpreter: a shared process would
    hand the second leg pre-built caches and charge the warm executor's
    forks for the first leg's dirtied heap (copy-on-write touches every
    refcounted page), skewing the ratio in either direction.  The merged
    tables must be byte-identical before the ratio is reported, so a
    recorded speedup can never hide a divergent result.
    """
    cold = _warm_leg(name, scale_name, warm=False)
    warm = _warm_leg(name, scale_name, warm=True)
    if cold["table"] != warm["table"]:
        raise SystemExit(
            f"warm-start {name}@{scale_name} diverged from the cold grid"
        )
    return {
        "experiment": name,
        "scale": scale_name,
        "cells": warm["cells"],
        "warm_groups": warm["warm_groups"],
        "warm_cells": warm["warm_cells"],
        "cold_wall_s": round(cold["wall_s"], 4),
        "warm_wall_s": round(warm["wall_s"], 4),
        "speedup": round(cold["wall_s"] / warm["wall_s"], 3)
        if warm["wall_s"] > 0
        else None,
        "tables_identical": True,
    }


# ----------------------------------------------------------------------
# trajectory files
# ----------------------------------------------------------------------
def bench_files():
    """Recorded snapshots, ordered by sequence number."""
    entries = []
    for path in BENCH_DIR.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            entries.append((int(match.group(1)), path))
    return [path for _, path in sorted(entries)]

def next_bench_path() -> pathlib.Path:
    existing = bench_files()
    if not existing:
        return BENCH_DIR / "BENCH_1.json"
    last = int(re.fullmatch(r"BENCH_(\d+)\.json", existing[-1].name).group(1))
    return BENCH_DIR / f"BENCH_{last + 1}.json"


def write_snapshot(snapshot: dict, path: pathlib.Path) -> None:
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"[perf: snapshot -> {path}]", file=sys.stderr)


# ----------------------------------------------------------------------
# supervision / journaling overhead gate
# ----------------------------------------------------------------------
def measure_overhead(name: str, scale_name: str, repeats: int) -> dict:
    """Paired measurement of the journaled happy path vs a plain run.

    The two modes are identical — same experiment, cold, serial,
    in-process, observation counting events — except that one writes a run
    journal (default ``fsync="critical"`` policy, so the per-cell
    ``dispatched``/``done`` records skip the fsync exactly as a real run
    does).  Each repeat runs the two modes back to back and contributes
    one journaled/plain wall-time ratio; the reported overhead is the
    *median* ratio, so slow drift (CPU frequency, a noisy neighbour)
    cancels within a pair and a single outlier pair cannot fail the gate.
    """
    import shutil
    import tempfile

    spec = registry.get_spec(name)
    scale = _SCALES[scale_name]
    walls = {"plain": [], "journaled": []}
    events = {"plain": 0, "journaled": 0}
    for repeat in range(repeats):
        for mode in ("plain", "journaled"):
            sims = []
            observation = Observation(
                on_system=lambda unit, system: sims.append(system.sim)
            )
            journal = None
            scratch = None
            if mode == "journaled":
                scratch = tempfile.mkdtemp(prefix="repro-overhead-")
                journal = RunJournal.create(
                    scale=scale_to_dict(scale),
                    jobs=1,
                    specs=[spec.name],
                    run_id=f"overhead-{repeat}",
                    root=pathlib.Path(scratch),
                )
            started = time.perf_counter()
            execute([spec], scale, observation=observation, journal=journal)
            walls[mode].append(time.perf_counter() - started)
            events[mode] = sum(sim.events_dispatched for sim in sims)
            if journal is not None:
                journal.run_end("complete", exit_code=0)
                journal.close()
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
    ratios = sorted(
        journaled / plain
        for plain, journaled in zip(walls["plain"], walls["journaled"])
    )
    median_ratio = ratios[len(ratios) // 2]
    if len(ratios) % 2 == 0:
        median_ratio = (median_ratio + ratios[len(ratios) // 2 - 1]) / 2.0
    plain_wall = min(walls["plain"])
    journaled_wall = min(walls["journaled"])
    return {
        "experiment": spec.name,
        "scale": scale_name,
        "repeats": repeats,
        "plain_wall_s": round(plain_wall, 4),
        "journaled_wall_s": round(journaled_wall, 4),
        "plain_events_per_sec": round(events["plain"] / plain_wall, 1),
        "journaled_events_per_sec": round(events["journaled"] / journaled_wall, 1),
        "overhead": round(median_ratio - 1.0, 4),
    }


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def check_regressions(fresh: dict, baseline: dict, tolerance: float):
    """Compare matching (experiment, scale) entries; return failure lines.

    An entry fails when its events/sec fell by more than ``tolerance``,
    or when its dispatched-event count differs from the baseline's
    (entries without an ``events`` field skip the count check).
    """
    recorded = {
        (entry["experiment"], entry["scale"]): entry
        for entry in baseline.get("results", [])
    }
    failures = []
    for entry in fresh["results"]:
        key = (entry["experiment"], entry["scale"])
        old = recorded.get(key)
        if old is None:
            continue
        if "events" in old and "events" in entry and entry["events"] != old["events"]:
            failures.append(
                f"{key[0]}@{key[1]}: dispatched {entry['events']:,} events, "
                f"baseline dispatched {old['events']:,}"
            )
        if not old.get("events_per_sec"):
            continue
        floor = old["events_per_sec"] * (1.0 - tolerance)
        if entry["events_per_sec"] < floor:
            failures.append(
                f"{key[0]}@{key[1]}: {entry['events_per_sec']:,.0f} events/s "
                f"< {floor:,.0f} (baseline {old['events_per_sec']:,.0f} "
                f"- {tolerance:.0%})"
            )
    return failures


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf.py",
        description="Measure events/sec and wall time per experiment.",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="experiments to measure (default: the full recorded suite)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="scale for --only measurements (default: quick)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the snapshot here instead of the next BENCH_<n>.json",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="measure and report only; write no snapshot file",
    )
    parser.add_argument("--label", default="", help="free-form snapshot label")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a recorded BENCH_*.json; exit 1 on an "
        "events/sec regression or a changed event count",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_PERF_TOLERANCE", "0.25")),
        help="allowed fractional events/sec loss for --check (default 0.25)",
    )
    parser.add_argument(
        "--overhead-check",
        action="store_true",
        help="paired-measure the journaled happy path vs a plain run and "
        "exit 1 if journaling costs more than --overhead-tolerance",
    )
    parser.add_argument(
        "--overhead-tolerance",
        type=float,
        default=float(os.environ.get("REPRO_SUPERVISION_TOLERANCE", "0.02")),
        help="allowed fractional wall-time cost of journaling (default 0.02)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="interleaved repeats per mode for --overhead-check (default 5)",
    )
    parser.add_argument(
        "--warm-grid",
        metavar="NAME",
        help="also pair-measure this warmup-sharing grid cold vs warm "
        "(at --scale) and record it under the snapshot's warm_start section",
    )
    parser.add_argument(
        "--no-warm-grid",
        action="store_true",
        help="skip the default suite's policy-zoo@paper-shape warm-start "
        "measurement",
    )
    args = parser.parse_args(argv)

    if args.overhead_check:
        name = args.only[0] if args.only else "variance"
        entry = measure_overhead(name, args.scale, max(1, args.repeats))
        print(
            f"[perf: overhead {entry['experiment']}@{entry['scale']}: "
            f"plain {entry['plain_wall_s']:.2f}s "
            f"({entry['plain_events_per_sec']:,.0f} events/s), "
            f"journaled {entry['journaled_wall_s']:.2f}s "
            f"({entry['journaled_events_per_sec']:,.0f} events/s), "
            f"overhead {entry['overhead']:+.2%}]",
            file=sys.stderr,
        )
        verdict = "FAILED" if entry["overhead"] > args.overhead_tolerance else "OK"
        print(
            f"[perf: overhead check: {verdict} "
            f"(tolerance {args.overhead_tolerance:.0%})]",
            file=sys.stderr,
        )
        return 1 if verdict == "FAILED" else 0

    if args.only:
        try:
            suite = [(spec.name, args.scale) for spec in registry.resolve(args.only)]
        except KeyError as error:
            parser.error(str(error.args[0]))
    else:
        suite = default_suite()

    snapshot = run_suite(suite, args.label)
    totals = snapshot["totals"]
    rate = totals["events_per_sec"]
    print(
        f"[perf: TOTAL {totals['events']} events in "
        f"{totals['measured_wall_s']:.2f}s measured "
        f"({totals['wall_s']:.2f}s suite) = "
        + (f"{rate:,.0f} events/s]" if rate else "no measured events]"),
        file=sys.stderr,
    )

    warm_grids = []
    if args.warm_grid:
        warm_grids.append((args.warm_grid, args.scale))
    elif not args.only and not args.no_warm_grid:
        warm_grids.append(("policy-zoo", "paper-shape"))
    if warm_grids:
        snapshot["warm_start"] = []
        for grid_name, grid_scale in warm_grids:
            entry = measure_warm_grid(grid_name, grid_scale)
            snapshot["warm_start"].append(entry)
            print(
                f"[perf: warm-start {entry['experiment']}@{entry['scale']}: "
                f"cold {entry['cold_wall_s']:.2f}s, warm "
                f"{entry['warm_wall_s']:.2f}s = {entry['speedup']:.2f}x "
                f"({entry['warm_cells']}/{entry['cells']} cells in "
                f"{entry['warm_groups']} groups, tables identical)]",
                file=sys.stderr,
            )

    if not args.no_record:
        path = pathlib.Path(args.out) if args.out else next_bench_path()
        write_snapshot(snapshot, path)

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_regressions(snapshot, baseline, args.tolerance)
        for line in failures:
            print(f"[perf: REGRESSION {line}]", file=sys.stderr)
        verdict = "FAILED" if failures else "OK"
        print(
            f"[perf: check vs {args.check}: {verdict} "
            f"({len(failures)} regressions, tolerance {args.tolerance:.0%})]",
            file=sys.stderr,
        )
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
