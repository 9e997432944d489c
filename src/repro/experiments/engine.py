"""Experiment executor: one loop that gives every pending cell a placement.

The engine expands each :class:`ExperimentSpec` into its cells, serves
what it can from the cell cache, and computes every other cell in exactly
one of two placements:

* **inline** — in this process, one cell at a time: under the caller's
  :class:`repro.obs.runtime.Observation` when there is one, and wherever
  the platform has no ``os.fork``;
* **forked** — in a child process, with W *units* simulating at once
  (``jobs``; by default one per CPU in the process's affinity mask), a
  unit being a forked cell or a warmup-group leader running its prefix.
  Cells of a :class:`~repro.experiments.registry.WarmupSpec` group of two
  or more fork from their group's live warmed-up prefix; every other cell
  forks cold from this process.

Every forked unit is supervised alike: the process that forked it kills
it at its wall-clock deadline (scaled by the spec's ``cost_hint`` and the
scale's ``timeout_scale``), and a failed, dead or timed-out attempt with
retries left reruns as a cold forked cell after a fixed backoff.  A cell
whose fork is refused runs inline as its next attempt.  Both runners
report through one set of helpers (:class:`_Run`), so dispatch, finish,
fail and stop bookkeeping — journal records, cache writes, failure
collection — exist once.

Payloads merge back **in cell declaration order**, so every placement
renders byte-identical tables: each cell builds its own seeded simulator,
nothing is shared, and a warm fork inherits its prefix's memory exactly.
Every payload, fresh or cached, passes through one canonical JSON
round-trip before merging (``repr`` of a Python float round-trips
exactly), and forked cells ship payloads as canonical JSON text, so a
retried, resumed, or cached cell is indistinguishable from a fresh inline
one.

Cache keys combine the experiment name, an explicit spec version, a
fingerprint of the source a cell runs, the full scale preset, and the cell
params.  The fingerprint covers every simulator module (all of ``repro``
outside ``repro.experiments``) plus the experiment's defining module and
the shared harness modules: editing the simulator invalidates every cell
(and every warmup-prefix artifact and resumable journal), while editing
one experiment module invalidates only its own cells.

Failing cells never abort the grid: each is collected into
``ExecutionReport.failures`` (and re-raised at the end as one aggregate
:class:`ExperimentFailure` unless ``raise_on_failure=False``).  A
:class:`repro.experiments.journal.RunJournal` receives a state transition
per attempt (dispatched/done/failed/timeout), making the run crash-safe and
resumable; ``should_stop`` is polled before each cell or group starts and,
once true, starts nothing new, lets the started cells and groups finish,
and returns with ``report.interrupted`` set (the CLI's clean-SIGINT path).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.experiments.cache import CellCache
from repro.experiments.journal import RunJournal, RunState
from repro.experiments.registry import (
    Cell,
    ExperimentSpec,
    Params,
    get_spec,
)
from repro.experiments.runner import ExperimentResult, ExperimentScale, QUICK

#: Bump when the engine's payload/caching semantics change.
ENGINE_SCHEMA = 1


# ----------------------------------------------------------------------
# canonical forms
# ----------------------------------------------------------------------
def _canonical(payload: Params) -> Params:
    """One JSON round-trip: the exact form cached cells replay."""
    return json.loads(json.dumps(payload))


def scale_to_dict(scale: ExperimentScale) -> Dict[str, Any]:
    return _canonical(asdict(scale))


def scale_from_dict(data: Dict[str, Any]) -> ExperimentScale:
    data = dict(data)
    data["thread_counts"] = tuple(data["thread_counts"])
    return ExperimentScale(**data)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
_file_digests: Dict[str, str] = {}


def _file_digest(path: str) -> str:
    digest = _file_digests.get(path)
    if digest is None:
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        _file_digests[path] = digest
    return digest


#: ``src/repro``: every module under it except ``repro.experiments`` is
#: simulator source that every cell runs.
_PACKAGE_DIR = Path(__file__).resolve().parent.parent
_simulator_digest: Optional[str] = None


def _simulator_sources() -> List[str]:
    """Paths of every ``repro`` module outside ``repro.experiments``."""
    harness = _PACKAGE_DIR / "experiments"
    return sorted(
        str(path)
        for path in _PACKAGE_DIR.rglob("*.py")
        if harness not in path.parents
    )


def _simulator_fingerprint() -> str:
    """Digest of the simulator's source, computed once per process."""
    global _simulator_digest
    if _simulator_digest is None:
        digest = hashlib.sha256()
        for path in _simulator_sources():
            relative = Path(path).relative_to(_PACKAGE_DIR).as_posix()
            digest.update(f"{relative}:{_file_digest(path)};".encode())
        _simulator_digest = digest.hexdigest()
    return _simulator_digest


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Source-version fingerprint: the whole simulator, plus the spec's
    defining module and the shared harness modules every cell routes
    through (so one experiment's edit leaves the others' cells valid)."""
    from repro.experiments import runner, workload_runs

    files = {runner.__file__, workload_runs.__file__}
    module = sys.modules.get(spec.cell_fn.__module__)
    if module is not None and getattr(module, "__file__", None):
        files.add(module.__file__)
    digest = hashlib.sha256()
    digest.update(f"engine-schema:{ENGINE_SCHEMA};spec-version:{spec.version};".encode())
    digest.update(f"simulator:{_simulator_fingerprint()};".encode())
    for path in sorted(files):
        digest.update(_file_digest(path).encode())
    return digest.hexdigest()


def cell_key(spec: ExperimentSpec, scale: ExperimentScale, cell: Cell) -> str:
    """Stable content hash identifying one cell's result."""
    blob = json.dumps(
        {
            "experiment": spec.name,
            "fingerprint": spec_fingerprint(spec),
            "scale": scale_to_dict(scale),
            "params": cell.as_dict(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


def warm_prefix_key(
    spec: ExperimentSpec, scale: ExperimentScale, group_params: Params
) -> str:
    """Content hash identifying one shared warmup prefix.

    Same invalidation surface as :func:`cell_key` (source fingerprint +
    scale) restricted to the params the warmup depends on, so every cell
    sharing a prefix shares the key and a source edit invalidates both
    the cells and their prefix artifact together.
    """
    blob = json.dumps(
        {
            "experiment": spec.name,
            "fingerprint": spec_fingerprint(spec),
            "scale": scale_to_dict(scale),
            "group": group_params,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


# ----------------------------------------------------------------------
# failures and supervision config
# ----------------------------------------------------------------------
def _unit_label(spec: ExperimentSpec, cell: Cell) -> str:
    """Trace/metrics unit label for one cell: ``experiment[k=v,...]``."""
    params = cell.as_dict()
    if not params:
        return spec.name
    inner = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{spec.name}[{inner}]"


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class CellFailure:
    """One cell that could not produce a payload."""

    experiment: str
    params: Params
    key: Optional[str]
    #: ``exception`` | ``worker-died`` | ``timeout`` | ``prior-failure``
    kind: str
    error: str
    attempts: int = 1

    def describe(self) -> str:
        label = self.experiment
        if self.params:
            inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
            label = f"{self.experiment}[{inner}]"
        plural = "s" if self.attempts != 1 else ""
        return f"{label}: {self.kind} after {self.attempts} attempt{plural}: {self.error}"


class ExperimentFailure(RuntimeError):
    """Aggregate of every failed cell in a run (raised after all cells ran)."""

    def __init__(self, failures: List[CellFailure]):
        self.failures = list(failures)
        lines = [f"{len(failures)} cell(s) failed:"]
        lines.extend(f"  {failure.describe()}" for failure in failures)
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class SupervisorConfig:
    """Deadlines and retries for every forked cell and warmup prefix."""

    #: Base per-cell wall-clock timeout in seconds for a ``cost_hint=1``
    #: cell at ``timeout_scale=1``; ``None`` disables timeouts.
    timeout_s: Optional[float] = None
    #: Extra attempts after the first (crashed, hung, or raising cells).
    max_retries: int = 1

    def cell_timeout(self, spec: ExperimentSpec, scale: ExperimentScale) -> Optional[float]:
        """The effective wall-clock budget for one of ``spec``'s cells."""
        if self.timeout_s is None:
            return None
        cost = getattr(spec, "cost_hint", 1.0) or 1.0
        stretch = getattr(scale, "timeout_scale", 1.0) or 1.0
        return self.timeout_s * cost * stretch


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class ExecutionReport:
    """Results plus where their cells came from and what went wrong."""

    results: List[ExperimentResult] = field(default_factory=list)
    computed: int = 0
    cached: int = 0
    #: Cells that produced no payload, with why.
    failures: List[CellFailure] = field(default_factory=list)
    #: Cells never attempted because the run was interrupted.
    skipped: int = 0
    #: True when ``should_stop`` fired and the run drained early.
    interrupted: bool = False
    #: Spec names whose merge was skipped (missing payloads).
    incomplete: List[str] = field(default_factory=list)
    #: Supervision tallies (retries, timeouts, worker deaths, warm cells, …).
    supervision: Dict[str, int] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        return self.computed + self.cached

    def result_for(self, name: str) -> Optional[ExperimentResult]:
        for result in self.results:
            if result.name == name:
                return result
        return None


def _new_supervision_counters() -> Dict[str, int]:
    return {"dispatched": 0, "retries": 0, "timeouts": 0, "worker_deaths": 0}


class _Slot:
    """One pending cell and the attempts made at it so far."""

    __slots__ = ("order", "spec", "cell", "key", "attempts")

    def __init__(self, order: Tuple[int, int], spec: ExperimentSpec, cell: Cell,
                 key: Optional[str]):
        #: ``(spec index, cell index)``: the cell's merge position.
        self.order = order
        self.spec = spec
        self.cell = cell
        self.key = key
        self.attempts = 0


class _Run:
    """The bookkeeping every placement reports through."""

    def __init__(
        self,
        scale: ExperimentScale,
        cache: Optional[CellCache],
        journal: Optional[RunJournal],
        should_stop: Optional[Callable[[], bool]],
    ):
        self.scale = scale
        self.cache = cache
        self.journal = journal
        self.should_stop = should_stop
        self.report = ExecutionReport(supervision=_new_supervision_counters())
        self.payloads: Dict[Tuple[int, int], Params] = {}

    def stopping(self) -> bool:
        """Poll ``should_stop``; once it fires, the run stays interrupted."""
        if not self.report.interrupted and self.should_stop is not None:
            self.report.interrupted = bool(self.should_stop())
            if self.report.interrupted and self.journal is not None:
                self.journal.note("signal", action="drain in-flight, stop dispatching")
        return self.report.interrupted

    def tally(self, name: str) -> None:
        supervision = self.report.supervision
        supervision[name] = supervision.get(name, 0) + 1

    def dispatch(self, slot: _Slot, worker: str) -> None:
        """Start the slot's next attempt on ``worker``."""
        slot.attempts += 1
        if worker != "inline":
            self.tally("dispatched")
        if self.journal is not None and slot.key is not None:
            self.journal.cell_dispatched(slot.spec.name, slot.key, slot.attempts, worker)

    def finish(self, slot: _Slot, payload: Params, wall_s: float, worker: str) -> None:
        self.payloads[slot.order] = payload
        self.report.computed += 1
        if self.cache is not None and slot.key is not None:
            self.cache.put(slot.spec.name, slot.key, slot.cell.as_dict(), payload)
        if self.journal is not None and slot.key is not None:
            self.journal.cell_done(
                slot.spec.name, slot.key, slot.attempts, wall_s, worker=worker
            )

    def fail(self, slot: _Slot, kind: str, error: str, worker: str,
             final: bool = True, timeout_s: Optional[float] = None) -> None:
        """Journal a failed attempt; a final one is collected as a failure."""
        if kind == "timeout":
            self.tally("timeouts")
        elif kind == "worker-died":
            self.tally("worker_deaths")
        if final:
            self.report.failures.append(
                CellFailure(
                    experiment=slot.spec.name,
                    params=slot.cell.as_dict(),
                    key=slot.key,
                    kind=kind,
                    error=error,
                    attempts=slot.attempts,
                )
            )
        journal = self.journal
        if journal is None or slot.key is None:
            return
        if kind == "timeout":
            journal.cell_timeout(slot.spec.name, slot.key, slot.attempts, timeout_s,
                                 final, worker)
            return
        if kind == "worker-died":
            journal.note("worker_died", worker=worker, cell=_unit_label(slot.spec, slot.cell))
        journal.cell_failed(slot.spec.name, slot.key, slot.attempts, error,
                            kind=kind, final=final, worker=worker)


def execute(
    specs: Sequence[Union[str, ExperimentSpec]],
    scale: ExperimentScale = QUICK,
    *,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
    cells_override: Optional[Sequence[Cell]] = None,
    observation: Optional[Any] = None,
    journal: Optional[RunJournal] = None,
    supervise: Optional[SupervisorConfig] = None,
    skip_failed: Optional[Dict[Tuple[str, str], CellFailure]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    raise_on_failure: bool = True,
    warm_start: bool = True,
) -> ExecutionReport:
    """Run ``specs`` and return merged results in the order given.

    Each pending cell gets one placement (see the module docstring):

    * ``observation`` (a :class:`repro.obs.runtime.Observation`) keeps
      every cell inline so its simulator is observable, and skips cache
      *reads* (a cached payload emits no spans); each cell labels its
      spans and metrics ``<experiment>[<cell-params>]``.  Recording never
      perturbs the simulation, so payloads and cache writes are
      byte-identical to an unobserved run.  A platform without ``os.fork``
      runs every cell inline too.
    * Otherwise every cell forks, with ``jobs`` units simulating at once
      (default: one per usable CPU, :func:`_warm_width`), supervised by
      ``supervise`` (``SupervisorConfig()`` when not given: no deadline,
      one retry).  With ``warm_start`` (the default), cells of a spec's
      :class:`~repro.experiments.registry.WarmupSpec` group of two or
      more fork from the group's warmed-up prefix, simulated **once** per
      group — O(groups × warmup) instead of O(cells × warmup) — and the
      prefix's state digest is recorded as a cache artifact and verified
      against prior runs.  A unit is a prefix or a cell simulating, so the
      next group's prefix runs beside the last cells of the groups before
      it.

    ``cells_override`` replaces the cell grid — only valid when running a
    single spec.  ``skip_failed`` maps ``(experiment, cell key)`` to a
    prior :class:`CellFailure` (from a resumed journal): those cells are
    not re-dispatched, their failure is re-reported instead
    (``--retry-failed`` clears the map).

    Failing cells never abort the grid; they are collected and re-raised
    as one :class:`ExperimentFailure` at the end (or only reported in
    ``report.failures`` when ``raise_on_failure=False``).
    """
    resolved = [get_spec(s) if isinstance(s, str) else s for s in specs]
    if cells_override is not None and len(resolved) != 1:
        raise ValueError("cells_override requires exactly one spec")
    need_keys = cache is not None or journal is not None or bool(skip_failed)
    read_cache = cache is not None and observation is None

    run = _Run(scale, cache, journal, should_stop)
    report = run.report
    plans: List[List[Cell]] = []
    pending: List[_Slot] = []
    for spec_index, spec in enumerate(resolved):
        cells = list(cells_override if cells_override is not None else spec.cells(scale))
        plans.append(cells)
        keys = [cell_key(spec, scale, cell) if need_keys else None for cell in cells]
        if journal is not None:
            journal.record_cells(
                spec.name,
                spec_fingerprint(spec),
                [(key, cell.as_dict()) for key, cell in zip(keys, cells)],
            )
        for cell_index, (cell, key) in enumerate(zip(cells, keys)):
            prior = skip_failed.get((spec.name, key)) if skip_failed else None
            if prior is not None:
                report.failures.append(prior)
                continue
            hit = cache.get(spec.name, key) if read_cache else None
            if hit is not None:
                run.payloads[(spec_index, cell_index)] = hit
                report.cached += 1
                if journal is not None:
                    journal.cell_done(spec.name, key, 0, 0.0, source="cache")
            else:
                pending.append(_Slot((spec_index, cell_index), spec, cell, key))

    if pending and observation is None and hasattr(os, "fork"):
        width = max(1, jobs) if jobs is not None else _warm_width()
        _run_forked(run, pending, width, supervise or SupervisorConfig(), warm_start)
    else:
        _run_inline(run, pending, observation)

    for spec_index, spec in enumerate(resolved):
        ordered = [
            run.payloads.get((spec_index, i)) for i in range(len(plans[spec_index]))
        ]
        if any(payload is None for payload in ordered):
            report.incomplete.append(spec.name)
            continue
        report.results.append(spec.merge(scale, ordered))
    if report.failures and raise_on_failure:
        raise ExperimentFailure(report.failures)
    return report


# ----------------------------------------------------------------------
# inline placement
# ----------------------------------------------------------------------
def _run_inline(run: _Run, slots: Sequence[_Slot], observation: Optional[Any]) -> None:
    """Compute ``slots`` in this process, one at a time, in the order given."""
    if not slots:
        return
    if observation is not None:
        from repro.obs import runtime as obs_runtime

        obs_runtime.activate(observation)
    try:
        for position, slot in enumerate(slots):
            if run.stopping():
                run.report.skipped += len(slots) - position
                return
            if observation is not None:
                observation.set_unit(_unit_label(slot.spec, slot.cell))
            run.dispatch(slot, "inline")
            started = time.perf_counter()  # repro: allow[REP001] reason=host-side cell timing for the journal, never feeds the simulation
            try:
                payload = _canonical(slot.spec.cell_fn(run.scale, slot.cell.as_dict()))
            except Exception as exc:
                run.fail(slot, "exception", _error_text(exc), "inline")
                continue
            wall_s = time.perf_counter() - started  # repro: allow[REP001] reason=host-side cell timing for the journal, never feeds the simulation
            run.finish(slot, payload, wall_s, "inline")
    finally:
        if observation is not None:
            observation.set_unit(None)
            obs_runtime.deactivate()


# ----------------------------------------------------------------------
# forked placement
# ----------------------------------------------------------------------
#: The worker every cold forked attempt is journaled on, whatever W is.
_COLD = "cold"
#: How long a failed forked attempt waits before it reruns cold.
_RETRY_BACKOFF_S = 0.25
#: How often a forked cell checks that its parent is still alive.
_ORPHAN_CHECK_S = 0.25


def _now() -> float:
    return time.monotonic()  # repro: allow[REP001] reason=host-side supervision deadlines, never feed the simulation


def _warm_width() -> int:
    """How many units (prefixes and cells) simulate at once by default.

    One per CPU this process may run on: its affinity mask, which
    ``taskset`` narrows.  Cgroup CPU quotas are not consulted.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_forked(run: _Run, pending: Sequence[_Slot], width: int,
                cfg: SupervisorConfig, warm_start: bool) -> None:
    """Compute ``pending`` in forked processes, ``width`` units at a time.

    Cells are grouped by warmup-prefix params within their spec; a group
    of two or more runs through a forked leader (:func:`_start_leader`)
    that simulates the prefix once and forks one process per cell from
    it, and every other cell forks cold from this process
    (:func:`_fork_cell`).  This process owns the budget: it keeps up to W
    = ``width`` *units* simulating, a unit being a cold cell, a leader
    running its prefix or a cell it granted, and reads every unit's pipe
    through one selector.  A freed unit goes to the next cell of the
    earliest started group that still has one; while that group is in its
    prefix, the unit starts the next item instead — a retry whose backoff
    is over, else the next group (in group-key order), else the next cold
    cell (in declaration order) — or waits.  So cells are granted in
    group order whichever prefix ends first.  A unit is freed by each
    record a leader sends (its prefix, or a cell's) and, for whatever a
    unit still held, when its pipe reaches EOF.  A finished group is
    settled in slot order, so no record, payload or per-cell journal
    transition depends on which unit finishes first.

    This process kills a cold cell, or a leader still in its prefix, at
    its ``cfg`` deadline; each leader does the same for its cells.  A
    failed, dead or timed-out attempt with retries left reruns as a cold
    cell after :data:`_RETRY_BACKOFF_S`; one whose fork was refused runs
    inline at once.  A stop request starts nothing new while started
    cells and groups finish; whatever never started counts as skipped.
    """
    # Imported here: only a forked run needs it, and the registry import
    # every run pays stays as it is.
    import selectors

    queue = deque(_forked_items(pending, warm_start))
    retries: deque = deque()  # (due at, slot); one fixed backoff keeps them in due order
    units: Dict[int, Union[_Child, _Leader]] = {}  # by read end, in start order
    free = width

    def failed(slot: _Slot, kind: str, error: str, worker: str) -> None:
        refused = kind == "fork-refused"
        final = not refused and slot.attempts > cfg.max_retries
        run.fail(slot, kind, error, worker, final, cfg.cell_timeout(slot.spec, run.scale))
        if not final:
            run.tally("retries")
            if refused:
                _run_inline(run, [slot], None)
            else:
                retries.append((_now() + _RETRY_BACKOFF_S, slot))

    def settled(slot: _Slot, record: Dict[str, Any], worker: str) -> bool:
        if record.get("ok"):
            run.finish(slot, record["payload"], float(record.get("wall_s", 0.0)), worker)
            return True
        failed(slot, record.get("failure", "exception"), record.get("error", "?"), worker)
        return False

    def start(item: Union[_Slot, Tuple[str, Params, List[_Slot]]]) -> int:
        """Fork a cold cell or a group's leader; return the units it took."""
        inherited = [fd for unit in units.values() for fd in unit.fds()]
        if isinstance(item, _Slot):
            run.dispatch(item, _COLD)
            compute = functools.partial(item.spec.cell_fn, run.scale, item.cell.as_dict())
            try:
                unit = _fork_cell(compute, 0, cfg.cell_timeout(item.spec, run.scale),
                                  inherited, item)
            except OSError as exc:
                failed(item, "fork-refused", f"cell fork refused: {exc}", _COLD)
                return 0
        else:
            worker, params, slots = item
            for slot in slots:
                run.dispatch(slot, worker)
            unit = _start_leader(run, worker, params, slots, inherited,
                                 cfg.cell_timeout(slots[0].spec, run.scale))
            if unit is None:
                for slot in slots:
                    failed(slot, "fork-refused", "warm group leader could not fork", worker)
                return 0
        units[unit.fd] = unit
        selector.register(unit.fd, selectors.EVENT_READ, unit)
        return 1

    with selectors.DefaultSelector() as selector:
        try:
            while True:
                while free:
                    head = next((unit for unit in units.values()
                                 if isinstance(unit, _Leader) and unit.wants_cells()), None)
                    if head is not None and head.prefixed:
                        free -= head.grant()
                        continue
                    due = bool(retries) and retries[0][0] <= _now()
                    if not (due or queue) or run.stopping():
                        break
                    free -= start(retries.popleft()[1] if due else queue.popleft())
                if not units and (run.report.interrupted or not (queue or retries)):
                    break
                deadlines = [unit.deadline for unit in units.values()]
                if free and retries and not run.report.interrupted:
                    deadlines.append(retries[0][0])
                for key, _ in selector.select(_until(deadlines)):
                    unit = key.data
                    chunk = os.read(unit.fd, 1 << 16)
                    if chunk:
                        free += unit.take(chunk)
                        continue
                    selector.unregister(unit.fd)
                    del units[unit.fd]
                    free += unit.held
                    unit.close()
                    if isinstance(unit, _Child):
                        settled(unit.slot, json.loads(unit.record()), _COLD)
                        continue
                    for slot, record in _settle_group(run, unit):
                        if settled(slot, record, unit.worker):
                            run.tally("warm_cells")
                _kill_overdue(units.values())
        except BaseException:
            # A second stop signal, or any fault here: no unit may
            # outlive this call.
            for unit in units.values():
                unit.abort()
            raise
    run.report.skipped += len(retries) + sum(
        1 if isinstance(item, _Slot) else len(item[2]) for item in queue
    )


def _forked_items(pending: Sequence[_Slot],
                  warm_start: bool) -> List[Union[_Slot, Tuple[str, Params, List[_Slot]]]]:
    """What the forked placement starts, in order: each warmup group of two
    or more cells as ``(worker, group params, slots)``, in group-key order,
    then every other cell in declaration order."""
    groups: Dict[Tuple[int, str], Tuple[Params, List[_Slot]]] = {}
    cold: List[_Slot] = []
    for slot in pending:
        warmup = slot.spec.warmup if warm_start else None
        if warmup is None:
            cold.append(slot)
            continue
        params = _canonical(warmup.group(slot.cell.as_dict()))
        group_id = (slot.order[0], json.dumps(params, sort_keys=True))
        groups.setdefault(group_id, (params, []))[1].append(slot)
    items: List[Union[_Slot, Tuple[str, Params, List[_Slot]]]] = []
    for group_id in sorted(groups):
        params, slots = groups[group_id]
        # A prefix shared by one cell saves nothing; that cell runs cold.
        if len(slots) > 1:
            items.append((f"warm-g{len(items) + 1}", params, slots))
        else:
            cold.extend(slots)
    items.extend(sorted(cold, key=lambda slot: slot.order))
    return items


def _until(deadlines: Sequence[Optional[float]]) -> Optional[float]:
    """Seconds to the earliest of ``deadlines``; ``None`` when there is none."""
    due = [deadline for deadline in deadlines if deadline is not None]
    return max(0.0, min(due) - _now()) if due else None


def _kill_overdue(units: Iterable[Union[_Child, _Leader]]) -> None:
    now = _now()
    for unit in units:
        if unit.deadline is not None and now >= unit.deadline:
            unit.kill()


def _kill(pid: int) -> None:
    import signal

    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _fork(inherited: Sequence[int]) -> int:
    """``os.fork()`` for every forked unit; 0 in the child.

    The child ignores SIGINT and SIGTERM, so only the CLI answers a stop
    request (both stay blocked across the fork, so none lands before the
    child ignores it), and it closes ``inherited``: the pipe ends of every
    other live unit.  A control pipe held open elsewhere would never reach
    EOF when its owner dies.  A refused fork raises ``OSError``.
    """
    import signal

    stops = {signal.SIGINT, signal.SIGTERM}
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, stops)
    try:
        pid = os.fork()
    except BaseException:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        raise
    if pid:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return pid
    try:
        for signum in stops:
            signal.signal(signum, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in inherited:
            os.close(fd)
    except BaseException:  # noqa: BLE001 — never unwind into the parent's stack
        os._exit(1)
    return 0


def _exit_when_orphaned(parent_pid: int) -> None:
    """Forked-cell watchdog: end the cell as soon as its parent is gone.

    A SIGKILLed parent can stop none of its cells, and a cell left running
    would simulate on, reparented to init, holding a CPU.  Polling the
    parent pid stops it in the middle of a cell.  Only a cell process runs
    this thread, and a cell forks nothing, so no fork copies a process
    that has threads.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_CHECK_S)
    os._exit(1)


def _cell_failure(index: int, failure: str, error: str) -> str:
    return json.dumps({"kind": "cell", "index": index, "ok": False,
                       "failure": failure, "error": error})


class _Child:
    """A forked cell, as the process that forked it sees it."""

    __slots__ = ("index", "slot", "pid", "fd", "timeout_s", "deadline", "timed_out", "chunks")
    #: Units it holds until its pipe reaches EOF.
    held = 1

    def __init__(self, index: int, slot: Optional[_Slot], pid: int, fd: int,
                 timeout_s: Optional[float]):
        self.index = index
        self.slot = slot
        self.pid = pid
        #: Read end of the cell's record pipe.
        self.fd = fd
        self.timeout_s = timeout_s
        self.deadline = None if timeout_s is None else _now() + timeout_s
        self.timed_out = False
        self.chunks: List[bytes] = []

    def fds(self) -> Tuple[int, ...]:
        return (self.fd,)

    def take(self, chunk: bytes) -> int:
        # Drained as it fills: a payload larger than the pipe buffer would
        # otherwise block its writer.
        self.chunks.append(chunk)
        return 0

    def kill(self) -> None:
        """Kill it at its deadline; the EOF that follows reports it."""
        self.deadline = None
        self.timed_out = True
        _kill(self.pid)

    def close(self) -> None:
        """Close the read end and reap the cell."""
        os.close(self.fd)
        os.waitpid(self.pid, 0)

    def abort(self) -> None:
        _kill(self.pid)
        try:
            self.close()
        except OSError:
            pass

    def record(self) -> str:
        """The record line the cell reported, or the failure that ended it."""
        data = b"".join(self.chunks)
        # A cell that died mid-write leaves no final newline.
        if data.endswith(b"\n"):
            return data.decode().splitlines()[-1]
        if self.timed_out:
            return _cell_failure(self.index, "timeout",
                                 f"cell exceeded {self.timeout_s:.1f}s wall-clock budget")
        return _cell_failure(self.index, "worker-died", "cell process died before reporting")


def _fork_cell(
    compute: Callable[[], Params],
    index: int,
    timeout_s: Optional[float],
    inherited: Sequence[int],
    slot: Optional[_Slot] = None,
) -> _Child:
    """Fork the process that runs one cell, warm or cold, and return it.

    The child runs ``compute`` (a warm cell's ``spec.warmup.finish`` over
    the inherited live context, or a cold cell's ``spec.cell_fn``), writes
    one record line and exits; it exits early once its parent is gone
    (:func:`_exit_when_orphaned`).  A pipe or fork that fails raises and
    leaves no descriptor open.
    """
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    try:
        pid = _fork([read_fd, *inherited])
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return _Child(index, slot, pid, read_fd, timeout_s)
    status = 0
    try:
        threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()
        out = os.fdopen(write_fd, "w")
        started = time.perf_counter()  # repro: allow[REP001] reason=host-side cell timing for the journal, never feeds the simulation
        payload = _canonical(compute())
        wall_s = time.perf_counter() - started  # repro: allow[REP001] reason=host-side cell timing, never feeds the simulation
        record = {"kind": "cell", "index": index, "ok": True,
                  "payload": payload, "wall_s": wall_s}
        out.write(json.dumps(record) + "\n")
        out.flush()
    except BaseException as exc:  # noqa: BLE001 — child must report, not unwind
        try:
            out.write(_cell_failure(index, "exception", _error_text(exc)) + "\n")
            out.flush()
        except BaseException:  # noqa: BLE001
            status = 1
    finally:
        os._exit(status)


# ----------------------------------------------------------------------
# warm groups
# ----------------------------------------------------------------------
class _Leader:
    """A started warm group, as the engine sees its leader process."""

    __slots__ = ("worker", "params", "slots", "pid", "fd", "control", "timeout_s",
                 "deadline", "timed_out", "prefixed", "granted", "held", "buffer",
                 "records")

    def __init__(self, worker: str, params: Params, slots: Sequence[_Slot],
                 pid: int, fd: int, control: int, timeout_s: Optional[float]):
        self.worker = worker
        self.params = params
        self.slots = slots
        self.pid = pid
        #: Read end of the leader's record pipe.
        self.fd = fd
        #: Write end of its control pipe, ``None`` once closed: each byte
        #: lets the leader fork one more cell, and EOF tells it to stop.
        self.control: Optional[int] = control
        self.timeout_s = timeout_s
        #: When its prefix is overdue; ``None`` once reported.
        self.deadline = None if timeout_s is None else _now() + timeout_s
        self.timed_out = False
        #: Whether its prefix has been reported; only then can it fork.
        self.prefixed = False
        self.granted = 0
        #: Units it holds: its prefix until reported, then every granted
        #: cell until reported.
        self.held = 1
        self.buffer = b""
        self.records: List[Dict[str, Any]] = []

    def fds(self) -> Tuple[int, ...]:
        return (self.fd,) if self.control is None else (self.fd, self.control)

    def wants_cells(self) -> bool:
        return self.control is not None and self.granted < len(self.slots)

    def grant(self) -> int:
        """Let the leader fork its next cell; return the units it took."""
        try:
            os.write(self.control, b"\x01")
        except OSError:  # the leader is gone; its EOF settles the group
            self.close_control()
            return 0
        self.granted += 1
        self.held += 1
        return 1

    def take(self, chunk: bytes) -> int:
        """Buffer ``chunk``; return the units its complete records free.

        Every line is one record: the prefix's, then one per granted cell.
        """
        *lines, self.buffer = (self.buffer + chunk).split(b"\n")
        for line in lines:
            self.held -= 1
            try:
                record = json.loads(line)
            except ValueError:
                continue
            self.records.append(record)
            kind = record.get("kind")
            if kind == "prefix":
                self.prefixed = True
                self.deadline = None
            elif kind == "prefix-error":
                self.close_control()
        return len(lines)

    def close_control(self) -> None:
        if self.control is not None:
            os.close(self.control)
            self.control = None

    def kill(self) -> None:
        """Kill it at its prefix deadline (it holds no cells yet)."""
        self.deadline = None
        self.timed_out = True
        _kill(self.pid)

    def close(self) -> None:
        """Close this end of both pipes and reap the leader."""
        self.close_control()
        os.close(self.fd)
        os.waitpid(self.pid, 0)

    def abort(self) -> None:
        """End the leader now: EOF on its control pipe makes it kill its
        cells and exit; one still in its prefix has none and is killed."""
        if not self.prefixed:
            _kill(self.pid)
        try:
            self.close()
        except OSError:
            pass


def _start_leader(
    run: _Run,
    worker: str,
    group_params: Params,
    slots: Sequence[_Slot],
    inherited: Sequence[int],
    timeout_s: Optional[float],
) -> Optional[_Leader]:
    """Fork the leader of one warm group; ``None`` when it could not be.

    It digests the prefix state only for a run with a cell cache, the
    only kind that records it.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        control_read, control_write = os.pipe()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    try:
        pid = _fork([read_fd, control_write, *inherited])
    except OSError:
        pid = -1
    if pid == 0:
        try:
            _warm_leader(write_fd, control_read, run.scale, group_params, slots,
                         run.cache is not None, timeout_s)
        finally:
            os._exit(1)  # never unwind into the parent's stack
    os.close(write_fd)
    os.close(control_read)
    if pid < 0:
        os.close(read_fd)
        os.close(control_write)
        return None
    return _Leader(worker, group_params, slots, pid, read_fd, control_write, timeout_s)


def _settle_group(run: _Run, leader: _Leader) -> List[Tuple[_Slot, Dict[str, Any]]]:
    """Check a finished group's prefix; return each cell's record in slot
    order, a failure standing in for every cell that reported none."""
    run.tally("warm_groups")
    spec = leader.slots[0].spec
    got: Dict[int, Dict[str, Any]] = {}
    missing = {"failure": "worker-died", "error": "warm group leader died before reporting"}
    if leader.timed_out:
        missing = {"failure": "timeout", "error": f"warmup prefix exceeded "
                   f"{leader.timeout_s:.1f}s wall-clock budget"}
    for record in leader.records:
        kind = record.get("kind")
        if kind == "prefix" and "digest" in record:
            _verify_prefix_artifact(run, spec, leader.params, record)
        elif kind == "prefix-error":
            missing = {"failure": "exception", "error": record.get("error", "?")}
            if run.journal is not None:
                run.journal.note(
                    "warm_prefix_failed",
                    experiment=spec.name,
                    key=warm_prefix_key(spec, run.scale, leader.params),
                    error=missing["error"],
                )
        elif kind == "cell":
            got[int(record.get("index", -1))] = record
    return [(slot, got.get(index, missing)) for index, slot in enumerate(leader.slots)]


def _warm_leader(
    record_fd: int,
    control_fd: int,
    scale: ExperimentScale,
    group_params: Params,
    slots: Sequence[_Slot],
    digest: bool,
    timeout_s: Optional[float],
) -> None:
    """Group leader (runs in a forked child; never returns).

    Simulates the shared warmup prefix once and reports it (with its
    state digest when ``digest`` is set).  Then, for each byte the parent
    writes to ``control_fd``, it forks the next cell (:func:`_fork_cell`)
    and reports each cell's record the moment that cell ends, killing a
    cell at its ``timeout_s`` deadline.  The leader itself only forks and
    reads pipes, so its memory image stays the pristine prefix every cell
    forks from.  A cell whose fork fails reports a failure of its own.
    EOF on ``control_fd`` means the parent is gone or aborting; then, as
    when the leader itself fails, it kills and reaps its running cells
    before it exits.
    """
    # Imported here: only a leader needs it, and the registry import
    # every run pays stays as it is.
    import selectors

    stream = os.fdopen(record_fd, "w")
    warmup = slots[0].spec.warmup
    running: Dict[int, _Child] = {}  # by read end

    def _emit(line: str) -> None:
        stream.write(line + "\n")
        stream.flush()

    try:
        try:
            ctx = warmup.prefix(scale, dict(group_params))
        except Exception as exc:
            _emit(json.dumps({"kind": "prefix-error", "error": _error_text(exc)}))
            return
        prefix_record: Dict[str, Any] = {"kind": "prefix"}
        system = ctx.get("system") if digest and isinstance(ctx, dict) else None
        if system is not None:
            from repro.sim.checkpoint import snapshot_system

            prefix_record.update(snapshot_system(system))
        _emit(json.dumps(prefix_record))

        forked = reported = 0
        with selectors.DefaultSelector() as selector:
            selector.register(control_fd, selectors.EVENT_READ)
            while reported < len(slots):
                wait = _until([child.deadline for child in running.values()])
                for key, _ in selector.select(wait):
                    if key.fd == control_fd:
                        grants = os.read(control_fd, len(slots))
                        if not grants:
                            return
                        for _ in grants:
                            index, forked = forked, forked + 1
                            compute = functools.partial(
                                warmup.finish, scale, slots[index].cell.as_dict(), ctx
                            )
                            try:
                                child = _fork_cell(compute, index, timeout_s,
                                                   [record_fd, control_fd, *running])
                            except OSError as exc:
                                _emit(_cell_failure(index, "fork-refused",
                                                    f"warm cell fork failed: {exc}"))
                                reported += 1
                                continue
                            running[child.fd] = child
                            selector.register(child.fd, selectors.EVENT_READ)
                        continue
                    child = running[key.fd]
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        child.take(chunk)
                        continue
                    selector.unregister(key.fd)
                    del running[key.fd]
                    child.close()
                    _emit(child.record())
                    reported += 1
                _kill_overdue(running.values())
    except BaseException:  # noqa: BLE001 — parent treats EOF as group failure
        pass
    finally:
        # A cell killed here can no longer report; the parent reads the
        # missing records as the leader's failure.
        for child in running.values():
            child.abort()
        try:
            stream.flush()
        except OSError:
            pass
        os._exit(0)


def _verify_prefix_artifact(
    run: _Run, spec: ExperimentSpec, group_params: Params, record: Dict[str, Any]
) -> None:
    """Record a warmup prefix's digest in the cell cache; shout if it
    drifted from a prior run.  Leaders digest only for runs with a cache."""
    prefix_key = warm_prefix_key(spec, run.scale, group_params)
    artifact = {
        "events": record.get("events"),
        "sim_time": record.get("sim_time"),
        "digest": record.get("digest"),
        "group": group_params,
        "scale": scale_to_dict(run.scale),
    }
    prior = run.cache.get_prefix(spec.name, prefix_key)
    if prior is not None and prior.get("digest") == artifact["digest"]:
        return
    if prior is not None:
        message = (
            f"warmup prefix for {spec.name} (key {prefix_key[:12]}) diverged "
            f"from the recorded digest: {str(prior.get('digest'))[:16]}… -> "
            f"{str(artifact['digest'])[:16]}…"
        )
        sys.stderr.write(f"warning: {message}\n")
        if run.journal is not None:
            run.journal.note(
                "warm_prefix_divergence",
                experiment=spec.name,
                key=prefix_key,
                recorded=prior.get("digest"),
                observed=artifact["digest"],
            )
    run.cache.put_prefix(spec.name, prefix_key, artifact)


# ----------------------------------------------------------------------
# resume planning
# ----------------------------------------------------------------------
@dataclass
class ResumePlan:
    """Everything ``--resume`` needs, derived from a replayed journal."""

    state: RunState
    specs: List[ExperimentSpec]
    scale: ExperimentScale
    #: ``None``: the engine's default width.
    jobs: Optional[int]
    #: Terminally failed cells not to re-dispatch (empty with --retry-failed).
    skip_failed: Dict[Tuple[str, str], CellFailure]
    #: Human-readable refusals: the journal's cells no longer match the
    #: current source tree.
    mismatches: List[str]


def plan_resume(state: RunState, *, retry_failed: bool = False) -> ResumePlan:
    """Verify a journal against the current source tree and plan the rerun.

    Every experiment's recorded cell keys must match the keys the current
    code produces (cell keys embed the source fingerprint, the scale, and
    the params) — if the code changed, the plan carries a ``mismatches``
    diff and the CLI refuses to resume.
    """
    specs = [get_spec(name) for name in state.specs]
    scale = scale_from_dict(state.scale)
    mismatches: List[str] = []
    for spec in specs:
        recorded = state.cells.get(spec.name)
        if recorded is None:
            continue  # never reached before the crash; nothing to verify
        current = [cell_key(spec, scale, cell) for cell in spec.cells(scale)]
        if list(recorded.keys()) != current:
            fp_then = state.fingerprints.get(spec.name, "?")
            fp_now = spec_fingerprint(spec)
            if fp_then != fp_now:
                detail = (
                    f"source fingerprint changed ({fp_then[:12]} -> {fp_now[:12]})"
                )
            else:
                detail = (
                    f"cell grid changed ({len(recorded)} recorded vs "
                    f"{len(current)} current cells)"
                )
            mismatches.append(f"{spec.name}: {detail}")

    skip: Dict[Tuple[str, str], CellFailure] = {}
    if not retry_failed:
        for experiment, record in state.failed_cells():
            skip[(experiment, record.key)] = CellFailure(
                experiment=experiment,
                params=record.params,
                key=record.key,
                kind="prior-failure",
                error=record.error or record.state,
                attempts=record.attempts,
            )
    return ResumePlan(
        state=state,
        specs=specs,
        scale=scale,
        jobs=state.jobs,
        skip_failed=skip,
        mismatches=mismatches,
    )


def run_spec(
    spec: Union[str, ExperimentSpec],
    scale: ExperimentScale = QUICK,
    *,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
    cells: Optional[Sequence[Cell]] = None,
    observation: Optional[Any] = None,
) -> ExperimentResult:
    """Run one experiment and return its merged result."""
    return execute(
        [spec],
        scale,
        jobs=jobs,
        cache=cache,
        cells_override=cells,
        observation=observation,
    ).results[0]


def run_specs(
    specs: Sequence[Union[str, ExperimentSpec]],
    scale: ExperimentScale = QUICK,
    *,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
    observation: Optional[Any] = None,
) -> List[ExperimentResult]:
    """Run several experiments; results follow the requested order."""
    return execute(specs, scale, jobs=jobs, cache=cache, observation=observation).results
