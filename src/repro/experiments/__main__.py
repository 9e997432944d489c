"""Command-line entry point: ``python -m repro.experiments``.

Runs the requested experiments (default: the full registry, ablations
included) at the chosen scale and prints the reproduced tables next to the
paper's reference values.  Every cell runs in one placement — inline,
forked from a warm prefix, or on a supervised worker — and every placement
renders byte-identical tables: cells are independent seeded simulations
and merge in declaration order.

Usage::

    python -m repro.experiments                      # everything, quick scale
    python -m repro.experiments --list               # what exists
    python -m repro.experiments --only fig13 --jobs 4
    python -m repro.experiments --only ablations --scale paper-shape
    python -m repro.experiments --only fig12 --out results/ --no-cache
    python -m repro.experiments --run-id nightly --jobs 4 --timeout 60
    python -m repro.experiments --resume nightly     # pick up where it died

Conventions:

* result tables go to **stdout** (one blank line between experiments);
  progress/timing lines go to **stderr**;
* ``--out DIR`` additionally writes each table to ``DIR/<name>.txt``;
* computed cells are cached under ``benchmarks/.cache/`` (disable with
  ``--no-cache``; the cache key covers scale, params, and source version);
* ``--journal`` / ``--run-id ID`` record a crash-safe run journal under
  ``benchmarks/.runs/<run_id>/``; ``--resume ID`` replays it, skips
  ``done`` cells via the cache, and re-dispatches the rest (byte-identical
  to an uninterrupted run); ``--retry-failed`` also re-dispatches
  terminally failed cells;
* ``--jobs N`` (N > 1), ``--timeout`` or ``--max-retries`` run cells on
  the supervised worker pool: a hung or crashed cell is killed, retried
  with backoff on a fresh worker, and fully journaled instead of aborting
  the grid.  ``--jobs`` sizes only that pool, whose workers run every
  cell cold;
* otherwise, experiments that declare shared-warmup structure simulate
  each warmup prefix **once** per group and fork their cells from the
  live warmed-up process, keeping one prefix or cell per CPU in the
  process's affinity mask simulating across all groups (``taskset -c 0``
  runs them one at a time; ``--no-warm-start`` gives the serial cold
  grid — output is byte-identical either way), and every other cell runs
  inline;
* ``--trace`` / ``--metrics`` / ``--sanitize`` run every cell inline so
  its simulator can be observed;
* ``--cache-prune [MB]`` bounds ``benchmarks/.cache/`` (LRU) and
  ``benchmarks/.runs/`` (oldest finished run first) and exits; with
  ``$REPRO_CACHE_MAX_MB`` / ``$REPRO_RUNS_MAX_MB`` set, every run prunes
  automatically on exit;
* SIGINT/SIGTERM drain in-flight cells, journal a ``suspended`` record,
  and exit 3 (a second signal aborts immediately); only this process
  answers them, and forked warm processes ignore both;
* exit code 0 = success, 1 = an experiment failed, 2 = usage error
  (including a refused resume), 3 = suspended and resumable.

See ``docs/execution.md`` for the full run lifecycle and journal schema.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
import traceback
from pathlib import Path

from repro.experiments import registry
from repro.experiments.cache import CellCache
from repro.experiments.engine import (
    SupervisorConfig,
    execute,
    plan_resume,
    scale_to_dict,
)
from repro.experiments.journal import (
    RUN_COMPLETE,
    RUN_FAILED,
    RUN_SUSPENDED,
    RunJournal,
    find_run,
    load_state,
    prune_runs,
)
from repro.experiments.runner import PAPER_SHAPE, QUICK

_SCALES = {"quick": QUICK, "paper-shape": PAPER_SHAPE, "paper": PAPER_SHAPE}

#: Exit code for a drained, journaled, resumable interruption.
EXIT_SUSPENDED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures and tables.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="experiments to run by name, alias, or group "
        "(default: the full registry); see --list",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_specs",
        help="list registered experiments and exit",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="NAME",
        help="run only this experiment/group (repeatable; combines with "
        "positional names)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="run size (quick ~ CI, paper-shape ~ larger runs; "
        "'paper' is a legacy alias)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="supervised worker processes (default: 1, no pool: warm-start "
        "prefixes and cells still run one per usable CPU across all groups; "
        "with --resume defaults to the original run's setting)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also write each result to DIR/<name>.txt",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell, bypassing benchmarks/.cache/",
    )
    parser.add_argument(
        "--journal",
        action="store_true",
        help="record a crash-safe run journal under benchmarks/.runs/ "
        "(auto-generated run id; implied by --run-id and --resume)",
    )
    parser.add_argument(
        "--run-id",
        metavar="ID",
        help="journal this run under the given id (implies --journal)",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        help="resume a journaled run: skip done cells via the cache, "
        "re-dispatch the rest (refuses if the source code changed)",
    )
    parser.add_argument(
        "--retry-failed",
        action="store_true",
        help="with --resume, also re-dispatch terminally failed cells",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-cell wall-clock budget (scaled by each experiment's "
        "cost hint and the scale's stretch); a hung cell is killed, "
        "retried on a fresh worker, and journaled",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for crashed/hung/raising cells (default: 1)",
    )
    parser.add_argument(
        "--no-warm-start",
        action="store_true",
        help="disable shared-warmup prefix forking: simulate every cell's "
        "warmup from scratch even when its experiment declares warmup "
        "structure (output is byte-identical either way)",
    )
    parser.add_argument(
        "--cache-prune",
        nargs="?",
        type=int,
        const=-1,
        default=None,
        metavar="MB",
        help="prune benchmarks/.cache/ and benchmarks/.runs/ to the given "
        "size cap (LRU for the cache, oldest-finished-run-first for runs) "
        "and exit; without a value, caps come from $REPRO_CACHE_MAX_MB / "
        "$REPRO_RUNS_MAX_MB (default 512 each).  When those variables are "
        "set, every run also prunes automatically on exit",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record every page miss's lifecycle and write a Perfetto-"
        "loadable Chrome-trace JSON to PATH (forces serial in-process "
        "execution; result tables are byte-identical to an untraced run)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the unified per-cell metrics snapshots (one dotted-name "
        "JSON object per experiment cell) to PATH (forces serial "
        "in-process execution)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run every cell under the simulation-order sanitizer and "
        "report same-timestamp tie-break hazards after the run (forces "
        "serial in-process execution; exit 1 if any hazard is found)",
    )
    return parser


def _list_specs(out) -> None:
    specs = registry.all_specs()
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        extras = []
        if spec.group:
            extras.append(f"group: {spec.group}")
        if spec.aliases:
            extras.append("alias: " + ", ".join(spec.aliases))
        suffix = f"  [{'; '.join(extras)}]" if extras else ""
        print(f"{spec.name.ljust(width)}  {spec.title}{suffix}", file=out)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_specs:
        _list_specs(sys.stdout)
        return 0
    if args.cache_prune is not None:
        return _prune_storage(args.cache_prune)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retry_failed and not args.resume:
        parser.error("--retry-failed only makes sense with --resume")

    cache = None if args.no_cache else CellCache()
    journal = None
    skip_failed = None

    requested = list(args.names) + list(args.only)
    if args.resume:
        if requested:
            parser.error("--resume restores the original run's experiments; "
                         "don't pass experiment names with it")
        try:
            state = load_state(find_run(args.resume))
            plan = plan_resume(state, retry_failed=args.retry_failed)
        except (FileNotFoundError, ValueError, KeyError) as error:
            parser.error(str(error))
        if plan.mismatches:
            print(
                f"[resume {args.resume}: REFUSED — the source tree no longer "
                "matches the journal:]",
                file=sys.stderr,
            )
            for line in plan.mismatches:
                print(f"  {line}", file=sys.stderr)
            print(
                "[rerun from scratch (the cache already misses on the new "
                "keys), or check out the original revision to resume]",
                file=sys.stderr,
            )
            return 2
        specs = plan.specs
        scale = plan.scale
        jobs = args.jobs if args.jobs is not None else plan.jobs
        skip_failed = plan.skip_failed
        if cache is None:
            print(
                "[resume: --no-cache recomputes previously-done cells "
                "(output stays byte-identical)]",
                file=sys.stderr,
            )
        journal = RunJournal.attach(args.resume, argv=list(argv or sys.argv[1:]))
        done = sum(len(state.done_keys(name)) for name in state.specs)
        print(
            f"[resume {args.resume}: {len(specs)} experiments, {done} cells "
            f"already done, {len(skip_failed)} prior failures "
            f"{'retried' if args.retry_failed else 'skipped'}]",
            file=sys.stderr,
        )
    else:
        try:
            specs = registry.resolve(requested) if requested else registry.all_specs()
        except KeyError as error:
            parser.error(str(error.args[0]))
        scale = _SCALES[args.scale]
        jobs = args.jobs if args.jobs is not None else 1
        if args.journal or args.run_id:
            journal = RunJournal.create(
                scale=scale_to_dict(scale),
                jobs=jobs,
                specs=[spec.name for spec in specs],
                run_id=args.run_id,
                argv=list(argv or sys.argv[1:]),
            )
            print(f"[journal: run {journal.run_id} -> {journal.path}]", file=sys.stderr)

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    supervision_flags = args.timeout is not None or args.max_retries is not None
    observation = None
    if args.trace or args.metrics or args.sanitize:
        from repro.obs.runtime import Observation
        from repro.obs.trace import TraceSink

        if jobs > 1 or supervision_flags:
            print(
                "[observability: cells run inline to be observed, so "
                "--jobs/--timeout/--max-retries are ignored for this run]",
                file=sys.stderr,
            )
        observation = Observation(
            trace=TraceSink() if args.trace else None,
            metrics=bool(args.metrics),
            sanitize=args.sanitize,
        )

    # --jobs N alone gets the engine's default SupervisorConfig.
    supervise = None
    if supervision_flags:
        supervise = SupervisorConfig(
            timeout_s=args.timeout,
            max_retries=args.max_retries if args.max_retries is not None else 1,
        )

    # First SIGINT/SIGTERM: stop dispatching, drain in-flight cells, journal
    # a suspended record, exit 3.  Second signal: abort immediately.
    stop_state = {"stop": False}

    def _should_stop() -> bool:
        return stop_state["stop"]

    def _on_signal(signum, frame):
        if stop_state["stop"]:
            raise KeyboardInterrupt
        stop_state["stop"] = True
        print(
            f"[signal {signum}: draining in-flight cells; send again to "
            "abort immediately]",
            file=sys.stderr,
        )

    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    except ValueError:  # not the main thread (embedded callers)
        previous_handlers = {}

    status = 0
    failures = []
    supervision_totals = {}
    interrupted = False
    try:
        for spec in specs:
            if _should_stop():
                interrupted = True
                break
            started = time.monotonic()  # repro: allow[REP001] reason=host-side progress timing, never feeds the simulation
            try:
                report = execute(
                    [spec],
                    scale,
                    jobs=jobs,
                    cache=cache,
                    observation=observation,
                    journal=journal,
                    supervise=supervise,
                    skip_failed=skip_failed,
                    should_stop=_should_stop,
                    raise_on_failure=False,
                    warm_start=not args.no_warm_start,
                )
            except Exception:
                print(f"[{spec.name} FAILED]", file=sys.stderr)
                traceback.print_exc()
                status = 1
                continue
            failures.extend(report.failures)
            interrupted = interrupted or report.interrupted
            for name, count in report.supervision.items():
                supervision_totals[name] = supervision_totals.get(name, 0) + count
            result = report.result_for(spec.name)
            if result is not None:
                print(result.to_text())
                print()
                if out_dir is not None:
                    (out_dir / f"{result.name}.txt").write_text(result.to_text() + "\n")
            elapsed = time.monotonic() - started  # repro: allow[REP001] reason=host-side progress timing, never feeds the simulation
            suffix = ""
            if report.failures:
                suffix = f", {len(report.failures)} failed"
            if report.skipped:
                suffix += f", {report.skipped} skipped"
            print(
                f"[{spec.name}: {report.total_cells} cells "
                f"({report.cached} cached) in {elapsed:.1f}s{suffix}]",
                file=sys.stderr,
            )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    if failures:
        status = max(status, 1)
        print(f"[failures: {len(failures)} cells]", file=sys.stderr)
        for failure in failures:
            print(f"  {failure.describe()}", file=sys.stderr)
    if interrupted:
        status = EXIT_SUSPENDED
        hint = f" --resume {journal.run_id}" if journal is not None else ""
        print(f"[suspended: resumable{hint}]", file=sys.stderr)

    if journal is not None:
        end_state = (
            RUN_SUSPENDED if interrupted
            else (RUN_FAILED if status else RUN_COMPLETE)
        )
        journal.run_end(
            end_state,
            exit_code=status,
            failures=len(failures),
            supervision=supervision_totals,
        )
        journal.close()

    if observation is not None:
        _write_observation(observation, args, supervision_totals, cache)
        if args.sanitize and _report_hazards(observation) and status == 0:
            status = 1
    _auto_prune(cache)
    return status


def _env_mb(name: str, default: "int | None") -> "int | None":
    """An ``NNN``-megabyte environment knob, or ``default`` when unset/bad."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        print(f"[prune: ignoring non-integer ${name}={raw!r}]", file=sys.stderr)
        return default
    return value if value >= 0 else default


def _prune_storage(mb: int) -> int:
    """``--cache-prune [MB]``: bound both on-disk stores and exit."""
    cache_mb = mb if mb >= 0 else _env_mb("REPRO_CACHE_MAX_MB", 512)
    runs_mb = mb if mb >= 0 else _env_mb("REPRO_RUNS_MAX_MB", 512)
    cache = CellCache()
    removed = cache.prune(cache_mb * 1024 * 1024)
    pruned_runs = prune_runs(runs_mb * 1024 * 1024)
    print(
        f"[prune: {removed} cache files evicted (cap {cache_mb} MB), "
        f"{pruned_runs} finished runs removed (cap {runs_mb} MB)]",
        file=sys.stderr,
    )
    return 0


def _auto_prune(cache) -> None:
    """Honour $REPRO_CACHE_MAX_MB / $REPRO_RUNS_MAX_MB after every run."""
    cache_mb = _env_mb("REPRO_CACHE_MAX_MB", None)
    if cache is not None and cache_mb is not None:
        removed = cache.prune(cache_mb * 1024 * 1024)
        if removed:
            print(
                f"[prune: {removed} cache files evicted "
                f"(cap {cache_mb} MB)]",
                file=sys.stderr,
            )
    runs_mb = _env_mb("REPRO_RUNS_MAX_MB", None)
    if runs_mb is not None:
        pruned = prune_runs(runs_mb * 1024 * 1024)
        if pruned:
            print(
                f"[prune: {pruned} finished runs removed (cap {runs_mb} MB)]",
                file=sys.stderr,
            )


def _report_hazards(observation) -> int:
    """Print the sanitizer's post-run hazard report; return the hazard count."""
    total_hazards = 0
    total_accesses = 0
    for unit, sanitizer in observation.sanitizers:
        report = sanitizer.report()
        total_accesses += report.accesses
        for hazard in report.hazards:
            total_hazards += 1
            print(f"[sanitize: {unit}: {hazard.format()}]", file=sys.stderr)
    verdict = "OK" if total_hazards == 0 else "FAILED"
    print(
        f"[sanitize: {verdict}: {total_hazards} tie-break hazards across "
        f"{len(observation.sanitizers)} cells ({total_accesses} accesses checked)]",
        file=sys.stderr,
    )
    return total_hazards


def _write_observation(observation, args, supervision_totals, cache) -> None:
    """Export the recorded trace/metrics and print the span breakdown."""
    import json

    if args.trace and observation.trace is not None:
        from repro.obs.export import breakdown_report, write_chrome_trace

        sink = observation.trace
        write_chrome_trace(sink, args.trace)
        print(
            f"[trace: {sink.span_count()} miss spans, "
            f"{len(sink.instants)} instants across {len(sink.units)} cells "
            f"-> {args.trace}]",
            file=sys.stderr,
        )
        print(breakdown_report(sink), file=sys.stderr)
    if args.metrics:
        from repro.obs.metrics import run_metrics

        snapshots = [
            {"unit": unit, "metrics": reg.collect()}
            for unit, reg in observation.registries
        ]
        run_registry = run_metrics(supervision_totals, cache)
        with open(args.metrics, "w") as handle:
            json.dump(
                {"cells": snapshots, "run": run_registry.collect()},
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
        print(
            f"[metrics: {len(snapshots)} cell snapshots -> {args.metrics}]",
            file=sys.stderr,
        )


if __name__ == "__main__":
    sys.exit(main())
