"""Experiment executor: one loop that gives every pending cell a placement.

The engine expands each :class:`ExperimentSpec` into its cells, serves
what it can from the cell cache, and computes every other cell in exactly
one of three placements:

* **inline** — in this process, under the caller's
  :class:`repro.obs.runtime.Observation` when there is one;
* **warm fork** — forked from its warmup group's live warmed-up prefix
  (specs declaring a :class:`~repro.experiments.registry.WarmupSpec`),
  with one prefix or cell per CPU in the process's affinity mask
  simulating at a time across all groups;
* **supervised worker** — a process of the supervised pool: per-cell
  wall-clock timeouts (scaled by the spec's ``cost_hint`` and the scale's
  ``timeout_scale``), bounded retry with exponential backoff on a fresh
  worker, worker-death detection with pool rebuild, and degradation to
  inline execution when the pool repeatedly fails.

The call picks the placement: an ``observation`` keeps every cell inline;
``jobs > 1`` or a ``supervise`` config sends them to the pool; otherwise
cells of a warmup group of two or more fork warm and the rest run inline.
A warm cell whose fork fails, and a cell a degraded pool leaves behind,
re-enters the inline runner as its next attempt.  All three runners report
through one set of helpers (:class:`_Run`), so dispatch, finish, fail and
stop bookkeeping — journal records, cache writes, failure collection —
exist once.

Payloads merge back **in cell declaration order**, so every placement
renders byte-identical tables: each cell builds its own seeded simulator,
nothing is shared, and a warm fork inherits its prefix's memory exactly.
Every payload, fresh or cached, passes through one canonical JSON
round-trip before merging (``repr`` of a Python float round-trips
exactly), and workers ship payloads as canonical JSON text, so a retried,
resumed, or cached cell is indistinguishable from a fresh inline one.

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
resumable; ``should_stop`` is polled between dispatches and, once true,
stops dispatching, drains in-flight cells, and returns with
``report.interrupted`` set (the CLI's clean-SIGINT path).  Under the warm
placement it is polled before each group starts, and a started group
finishes warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
# cell computation (also the worker-process entry point)
# ----------------------------------------------------------------------
def compute_cell(spec_name: str, scale_dict: Dict[str, Any], params: Params) -> Params:
    """Run one cell and return its canonical payload.

    Top-level (and addressed by spec *name*) so a worker process can be
    handed the call, where the registry is rebuilt by importing
    :mod:`repro.experiments`.
    """
    spec = get_spec(spec_name)
    scale = scale_from_dict(scale_dict)
    return _canonical(spec.cell_fn(scale, dict(params)))


def _unit_label(spec: ExperimentSpec, cell: Cell) -> str:
    """Trace/metrics unit label for one cell: ``experiment[k=v,...]``."""
    params = cell.as_dict()
    if not params:
        return spec.name
    inner = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{spec.name}[{inner}]"


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# failures and supervision config
# ----------------------------------------------------------------------
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
    """Knobs for the supervised worker pool."""

    #: Base per-cell wall-clock timeout in seconds for a ``cost_hint=1``
    #: cell at ``timeout_scale=1``; ``None`` disables timeouts.
    timeout_s: Optional[float] = None
    #: Extra attempts after the first (crashed, hung, or raising cells).
    max_retries: int = 1
    #: Base retry backoff; doubles per attempt.
    backoff_s: float = 0.25
    #: Supervisor poll interval (result wait granularity).
    poll_s: float = 0.05
    #: Consecutive pool failures (spawn errors / worker deaths with no
    #: intervening success) tolerated before degrading to inline.
    max_pool_failures: int = 3

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
    return {
        "dispatched": 0,
        "retries": 0,
        "timeouts": 0,
        "worker_deaths": 0,
        "pool_rebuilds": 0,
        "degraded_serial": 0,
    }


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


def _in_order(slots: Sequence[_Slot]) -> List[_Slot]:
    return sorted(slots, key=lambda slot: slot.order)


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
        return self.report.interrupted

    def tally(self, name: str) -> None:
        supervision = self.report.supervision
        supervision[name] = supervision.get(name, 0) + 1

    def dispatch(self, slot: _Slot, worker: str) -> None:
        """Start the slot's next attempt on ``worker``."""
        slot.attempts += 1
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
             final: bool = True) -> None:
        """Journal a failed attempt; a final one is collected as a failure.

        Timeouts are journaled by the pool itself (with their budget).
        """
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
        if self.journal is not None and slot.key is not None and kind != "timeout":
            self.journal.cell_failed(
                slot.spec.name, slot.key, slot.attempts, error,
                kind=kind, final=final, worker=worker,
            )


def execute(
    specs: Sequence[Union[str, ExperimentSpec]],
    scale: ExperimentScale = QUICK,
    *,
    jobs: int = 1,
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
      byte-identical to an unobserved run.
    * ``jobs > 1`` or ``supervise`` runs cells on the supervised pool of
      ``jobs`` workers (``SupervisorConfig()`` defaults when ``supervise``
      is not given).
    * Otherwise, with ``warm_start`` (the default) and ``os.fork``
      available, cells of a spec's :class:`~repro.experiments.registry.
      WarmupSpec` group of two or more fork from the group's warmed-up
      prefix, simulated **once** per group — O(groups × warmup) instead of
      O(cells × warmup) — and the prefix's state digest is recorded as a
      cache artifact and verified against prior runs.  One budget of a
      unit per usable CPU spans all groups, a unit being a prefix or a
      cell simulating, so the next group's prefix runs beside the last
      cells of the groups before it.

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

    inline = pending
    if observation is None and pending:
        if jobs > 1 or supervise is not None:
            inline = _run_supervised(
                run, pending, max(1, jobs), supervise or SupervisorConfig()
            )
        elif warm_start and hasattr(os, "fork"):
            inline = _run_warm(run, pending)
    _run_inline(run, inline, observation)

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
# warm-fork placement
# ----------------------------------------------------------------------
def _run_warm(run: _Run, pending: Sequence[_Slot]) -> List[_Slot]:
    """Fork every warmup group of two or more cells from its live prefix.

    Cells are grouped by warmup-prefix params within their spec; each
    group runs through a forked leader (:func:`_start_leader`) that
    simulates the prefix once and forks one process per cell from it.
    This process owns the CPU budget: it keeps up to W =
    :func:`_warm_width` *units* simulating across all groups, a unit
    being a leader running its prefix or a cell it granted, and reads
    every live leader's record pipe through one selector.  A freed unit
    goes to the next cell of the earliest started group that still has
    one; while that group is in its prefix, the unit starts the next
    group's leader instead, or waits when every group has started.  So
    cells are granted in group order whichever prefix ends first.  A
    unit is freed by each record a leader sends (its prefix, or a
    cell's) and, for whatever the leader still held, when its pipe
    reaches EOF.  A finished group is settled in slot order, so no
    record, payload or per-cell journal transition depends on which
    unit finishes first.

    Returns, in declaration order, what still needs the inline runner:
    cells without a group to share, cells whose warm attempt failed (each
    journaled as a non-final failure, so the inline rerun is its next
    attempt), and groups a stop request left unstarted.  Warm start can
    therefore only save time, never lose results.
    """
    # Imported here: only a warm run needs it, and the registry import
    # every run pays stays as it is.
    import selectors

    groups: Dict[Tuple[int, str], Tuple[Params, List[_Slot]]] = {}
    leftover: List[_Slot] = []
    for slot in pending:
        warmup = slot.spec.warmup
        if warmup is None:
            leftover.append(slot)
            continue
        params = _canonical(warmup.group(slot.cell.as_dict()))
        group_id = (slot.order[0], json.dumps(params, sort_keys=True))
        groups.setdefault(group_id, (params, []))[1].append(slot)
    unstarted: deque = deque()
    for group_id in sorted(groups):
        params, slots = groups[group_id]
        # A prefix shared by one cell saves nothing; run it inline.
        if len(slots) > 1:
            unstarted.append((f"warm-g{len(unstarted) + 1}", params, slots))
        else:
            leftover.extend(slots)

    free = _warm_width()
    live: List[_Leader] = []  # in start order
    with selectors.DefaultSelector() as selector:
        try:
            while True:
                while free:
                    head = next((leader for leader in live if leader.wants_cells()), None)
                    if head is not None and head.prefixed:
                        free -= head.grant()
                        continue
                    if not unstarted or run.stopping():
                        break
                    worker, params, slots = unstarted.popleft()
                    for slot in slots:
                        run.dispatch(slot, worker)
                    leader = _start_leader(run, worker, params, slots, live)
                    if leader is None:
                        for slot in slots:
                            run.fail(slot, "worker-died", "warm group leader could not fork",
                                     worker, final=False)
                        leftover.extend(slots)
                        continue
                    live.append(leader)
                    selector.register(leader.fd, selectors.EVENT_READ, leader)
                    free -= 1
                if not live:
                    break
                for key, _ in selector.select():
                    leader = key.data
                    chunk = os.read(leader.fd, 1 << 16)
                    if chunk:
                        free += leader.take(chunk)
                        continue
                    selector.unregister(leader.fd)
                    live.remove(leader)
                    free += leader.held
                    leader.close()
                    leftover.extend(_settle_group(run, leader))
        except BaseException:
            # A second stop signal, or any fault here: no leader may
            # outlive this call.
            for leader in live:
                leader.abort()
            raise
    leftover.extend(slot for _, _, slots in unstarted for slot in slots)
    return _in_order(leftover)


class _Leader:
    """A started warm group, as the parent sees its leader process."""

    __slots__ = ("worker", "params", "slots", "pid", "fd", "control",
                 "prefixed", "granted", "held", "buffer", "records")

    def __init__(self, worker: str, params: Params, slots: Sequence[_Slot],
                 pid: int, fd: int, control: int):
        self.worker = worker
        self.params = params
        self.slots = slots
        self.pid = pid
        #: Read end of the leader's record pipe.
        self.fd = fd
        #: Write end of its control pipe, ``None`` once closed: each byte
        #: lets the leader fork one more cell, and EOF tells it to stop.
        self.control: Optional[int] = control
        #: Whether its prefix has been reported; only then can it fork.
        self.prefixed = False
        self.granted = 0
        #: Units it holds: its prefix until reported, then every granted
        #: cell until reported.
        self.held = 1
        self.buffer = b""
        self.records: List[Dict[str, Any]] = []

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
            elif kind == "prefix-error":
                self.close_control()
        return len(lines)

    def close_control(self) -> None:
        if self.control is not None:
            os.close(self.control)
            self.control = None

    def close(self) -> None:
        """Close this end of both pipes and reap the leader."""
        self.close_control()
        os.close(self.fd)
        os.waitpid(self.pid, 0)

    def abort(self) -> None:
        """End the leader now: EOF on its control pipe makes it kill its
        cells and exit; one still in its prefix has none and is killed."""
        import signal

        if not self.prefixed:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            self.close()
        except OSError:
            pass


def _start_leader(
    run: _Run,
    worker: str,
    group_params: Params,
    slots: Sequence[_Slot],
    live: Sequence[_Leader],
) -> Optional[_Leader]:
    """Fork the leader of one warm group; ``None`` when it could not be.

    The leader ignores SIGINT and SIGTERM, so only this process answers a
    stop request (the signals stay blocked across the fork, so none lands
    before the leader ignores it), and it closes this end of every other
    live leader's pipes: a control pipe held open elsewhere would never
    reach EOF when this process dies.  It digests the prefix state only
    for a run with a cell cache, the only kind that records it.
    """
    import signal

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
    stops = {signal.SIGINT, signal.SIGTERM}
    pid = -1
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, stops)
    try:
        pid = os.fork()
    except OSError:
        pass
    finally:
        if pid != 0:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    if pid == 0:
        try:
            for signum in stops:
                signal.signal(signum, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in [read_fd, control_write, *(leader.fd for leader in live),
                       *(leader.control for leader in live if leader.control is not None)]:
                os.close(fd)
            _warm_leader(write_fd, control_read, run.scale, group_params, slots,
                         run.cache is not None)
        finally:
            os._exit(1)  # never unwind into the parent's stack
    os.close(write_fd)
    os.close(control_read)
    if pid < 0:
        os.close(read_fd)
        os.close(control_write)
        return None
    return _Leader(worker, group_params, slots, pid, read_fd, control_write)


def _settle_group(run: _Run, leader: _Leader) -> List[_Slot]:
    """Settle a finished group in slot order; return the cells to retry
    inline."""
    run.tally("warm_groups")
    spec = leader.slots[0].spec
    got: Dict[int, Dict[str, Any]] = {}
    for record in leader.records:
        kind = record.get("kind")
        if kind == "prefix" and "digest" in record:
            _verify_prefix_artifact(run, spec, leader.params, record)
        elif kind == "prefix-error":
            if run.journal is not None:
                run.journal.note(
                    "warm_prefix_failed",
                    experiment=spec.name,
                    key=warm_prefix_key(spec, run.scale, leader.params),
                    error=record.get("error", "?"),
                )
        elif kind == "cell":
            got[int(record.get("index", -1))] = record
    retry: List[_Slot] = []
    worker = leader.worker
    for index, slot in enumerate(leader.slots):
        record = got.get(index)
        if record is not None and record.get("ok"):
            run.tally("warm_cells")
            run.finish(slot, record["payload"], float(record.get("wall_s", 0.0)), worker)
        elif record is not None:
            run.fail(slot, "exception", record.get("error", "?"), worker, final=False)
            retry.append(slot)
        else:
            run.fail(slot, "worker-died", "warm group leader died before reporting",
                     worker, final=False)
            retry.append(slot)
    return retry


def _warm_width() -> int:
    """How many warm units (leader prefixes and cells) run at once.

    One per CPU this process may run on: its affinity mask, which
    ``taskset`` narrows.  Cgroup CPU quotas are not consulted.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cell_failure(index: int, error: str) -> str:
    return json.dumps({"kind": "cell", "index": index, "ok": False, "error": error})


def _warm_leader(
    record_fd: int,
    control_fd: int,
    scale: ExperimentScale,
    group_params: Params,
    slots: Sequence[_Slot],
    digest: bool,
) -> None:
    """Group leader (runs in a forked child; never returns).

    Simulates the shared warmup prefix once and reports it (with its
    state digest when ``digest`` is set).  Then, for each byte the parent
    writes to ``control_fd``, it forks the next cell (:func:`_fork_warm_cell`)
    and reports each cell's record the moment that cell ends.  The leader
    itself only forks and reads pipes, so its memory image stays the
    pristine prefix every cell forks from.  A cell whose fork fails
    reports a failure of its own.  EOF on ``control_fd`` means the parent
    is gone or aborting; then, as when the leader itself fails, it kills
    and reaps its running cells before it exits.
    """
    # Imported here: only a leader needs them, and the registry import
    # every run pays stays as it is.
    import selectors
    import signal

    stream = os.fdopen(record_fd, "w")
    warmup = slots[0].spec.warmup
    # read fd -> (cell index, grandchild pid, bytes read so far)
    running: Dict[int, Tuple[int, int, List[bytes]]] = {}

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
                for key, _ in selector.select():
                    if key.fd == control_fd:
                        grants = os.read(control_fd, len(slots))
                        if not grants:
                            return
                        for _ in grants:
                            index, forked = forked, forked + 1
                            try:
                                read_fd, pid = _fork_warm_cell(scale, index, slots[index], ctx)
                            except OSError as exc:
                                _emit(_cell_failure(index, f"warm cell fork failed: {exc}"))
                                reported += 1
                                continue
                            running[read_fd] = (index, pid, [])
                            selector.register(read_fd, selectors.EVENT_READ)
                        continue
                    # Drain every pipe as it fills: a payload larger than
                    # the pipe buffer would otherwise block its writer.
                    chunk = os.read(key.fd, 1 << 16)
                    index, pid, chunks = running[key.fd]
                    if chunk:
                        chunks.append(chunk)
                        continue
                    selector.unregister(key.fd)
                    os.close(key.fd)
                    os.waitpid(pid, 0)
                    del running[key.fd]
                    # A cell that died mid-write leaves no final newline.
                    data = b"".join(chunks)
                    _emit(data.decode().splitlines()[-1] if data.endswith(b"\n")
                          else _cell_failure(index, "warm cell worker died before reporting"))
                    reported += 1
    except BaseException:  # noqa: BLE001 — parent treats EOF as group failure
        pass
    finally:
        # A grandchild holds the parent's record pipe open, so one left
        # running would keep the parent waiting for EOF until it finished.
        for _, pid, _ in running.values():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:
                pass
        try:
            stream.flush()
        except OSError:
            pass
        os._exit(0)


def _fork_warm_cell(
    scale: ExperimentScale, index: int, slot: _Slot, ctx: Any
) -> Tuple[int, int]:
    """Fork the grandchild that runs one warm cell; return its pipe's read
    end and its pid.

    The grandchild diverges via ``spec.warmup.finish`` over the inherited
    live context, writes one record line and exits.  A pipe or fork that
    fails raises ``OSError`` and leaves no descriptor open.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return read_fd, pid
    os.close(read_fd)
    out = os.fdopen(write_fd, "w")
    status = 0
    try:
        started = time.perf_counter()  # repro: allow[REP001] reason=host-side cell timing for the journal, never feeds the simulation
        payload = _canonical(slot.spec.warmup.finish(scale, slot.cell.as_dict(), ctx))
        wall_s = time.perf_counter() - started  # repro: allow[REP001] reason=host-side cell timing, never feeds the simulation
        record = {"kind": "cell", "index": index, "ok": True,
                  "payload": payload, "wall_s": wall_s}
        out.write(json.dumps(record) + "\n")
        out.flush()
    except BaseException as exc:  # noqa: BLE001 — child must report, not unwind
        try:
            out.write(_cell_failure(index, _error_text(exc)) + "\n")
            out.flush()
        except BaseException:  # noqa: BLE001
            status = 1
    finally:
        os._exit(status)


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
# supervised-worker placement
# ----------------------------------------------------------------------
#: How often a supervised worker checks that its parent is still alive.
_ORPHAN_CHECK_S = 0.25


def _exit_when_orphaned(parent_pid: int) -> None:
    """Worker watchdog: end the worker as soon as its parent is gone.

    A SIGKILLed parent never sends the shutdown sentinel, and a forked
    worker holds its own task queue's write end, so it never sees EOF
    either; without this it would run on, reparented to init.  Polling
    the parent pid also stops a worker in the middle of a cell.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_CHECK_S)
    os._exit(1)


def _supervised_worker(
    worker_id: str, task_queue: Any, result_queue: Any, parent_pid: int
) -> None:
    """Worker loop: compute cells until handed ``None``.

    Payloads travel back as canonical JSON text, so the parent's
    ``json.loads`` reproduces the exact bytes an inline run would merge.
    """
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,), daemon=True,
        name=f"orphan-watch-{worker_id}",
    ).start()
    while True:
        item = task_queue.get()
        if item is None:
            return
        task_id, attempt, spec_name, scale_dict, params = item
        started = time.perf_counter()  # repro: allow[REP001] reason=host-side cell timing for the journal, never feeds the simulation
        try:
            payload = compute_cell(spec_name, scale_dict, params)
        except Exception as exc:
            wall_s = time.perf_counter() - started  # repro: allow[REP001] reason=host-side cell timing, never feeds the simulation
            result_queue.put((task_id, attempt, False, _error_text(exc), wall_s))
        else:
            wall_s = time.perf_counter() - started  # repro: allow[REP001] reason=host-side cell timing, never feeds the simulation
            result_queue.put((task_id, attempt, True, json.dumps(payload), wall_s))


class _Task:
    __slots__ = ("task_id", "slot", "timeout_s", "finished")

    def __init__(self, task_id: int, slot: _Slot, timeout_s: Optional[float]):
        self.task_id = task_id
        self.slot = slot
        self.timeout_s = timeout_s
        self.finished = False

    @property
    def label(self) -> str:
        return _unit_label(self.slot.spec, self.slot.cell)


class _WorkerHandle:
    __slots__ = ("worker_id", "task_queue", "proc", "task", "deadline", "attempt")

    def __init__(self, ctx: Any, worker_id: str, result_queue: Any):
        self.worker_id = worker_id
        self.task_queue = ctx.SimpleQueue()
        self.proc = ctx.Process(
            target=_supervised_worker,
            args=(worker_id, self.task_queue, result_queue, os.getpid()),
            daemon=True,
            name=f"repro-cell-{worker_id}",
        )
        self.proc.start()
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None
        self.attempt = 0

    def kill(self) -> None:
        try:
            self.proc.terminate()
            self.proc.join(0.5)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(0.5)
        except (OSError, ValueError):
            pass

    def shutdown(self) -> None:
        if self.proc.is_alive():
            try:
                self.task_queue.put(None)
            except (OSError, ValueError):
                pass
            self.proc.join(0.5)
        if self.proc.is_alive():
            self.kill()


def _run_supervised(
    run: _Run, pending: Sequence[_Slot], jobs: int, cfg: SupervisorConfig
) -> List[_Slot]:
    """Dispatch ``pending`` onto a supervised pool of worker processes.

    Returns, in declaration order, the cells the pool did not settle:
    those a stop request left undispatched, or — when the pool degraded —
    every unfinished one, for the inline runner to take over as their
    next attempt.
    """
    import multiprocessing
    import queue as queue_mod

    ctx = multiprocessing.get_context()
    result_queue = ctx.Queue()
    counters = run.report.supervision
    journal = run.journal
    scale_dict = scale_to_dict(run.scale)

    tasks: Dict[int, _Task] = {}
    ready: deque = deque()
    waiting: List[Tuple[float, int]] = []  # (eligible_at, task_id)
    for task_id, slot in enumerate(pending):
        tasks[task_id] = _Task(task_id, slot, cfg.cell_timeout(slot.spec, run.scale))
        ready.append(task_id)

    workers: List[_WorkerHandle] = []
    worker_serial = 0
    pool_failures = 0  # consecutive, reset by any successful result
    degraded = False
    interrupted = False
    unfinished = len(tasks)

    def _monotonic() -> float:
        return time.monotonic()  # repro: allow[REP001] reason=host-side supervisor deadlines, never feed the simulation

    def spawn_worker() -> Optional[_WorkerHandle]:
        nonlocal worker_serial, pool_failures
        worker_serial += 1
        try:
            handle = _WorkerHandle(ctx, f"w{worker_serial}", result_queue)
        except Exception:
            pool_failures += 1
            return None
        workers.append(handle)
        return handle

    def retire(handle: _WorkerHandle) -> None:
        if handle in workers:
            workers.remove(handle)

    def settle_success(task: _Task, payload_text: str, wall_s: float, worker: str) -> None:
        nonlocal unfinished, pool_failures
        task.finished = True
        unfinished -= 1
        pool_failures = 0
        run.finish(task.slot, json.loads(payload_text), wall_s, worker)

    def retry_or_fail(task: _Task, kind: str, error: str, worker: str) -> None:
        nonlocal unfinished
        final = task.slot.attempts > cfg.max_retries or interrupted
        run.fail(task.slot, kind, error, worker, final=final)
        if final:
            task.finished = True
            unfinished -= 1
        else:
            counters["retries"] += 1
            backoff = cfg.backoff_s * (2 ** (task.slot.attempts - 1))
            waiting.append((_monotonic() + backoff, task.task_id))

    def handle_worker_loss(handle: _WorkerHandle, kind: str, error: str) -> None:
        """A busy worker died or was killed; retry its task elsewhere."""
        nonlocal pool_failures
        task = handle.task
        handle.task = None
        handle.deadline = None
        retire(handle)
        if kind == "worker-died":
            counters["worker_deaths"] += 1
            pool_failures += 1
            if journal is not None:
                journal.note("worker_died", worker=handle.worker_id, cell=task.label)
        if task is not None and not task.finished:
            retry_or_fail(task, kind, error, handle.worker_id)

    try:
        while unfinished > 0:
            if not interrupted and run.stopping():
                interrupted = True
                if journal is not None:
                    journal.note("signal", action="drain in-flight, stop dispatching")
                # Abandon everything not yet on a worker: the inline runner
                # counts it skipped, and it stays pending in the journal
                # for --resume.
                unfinished -= len(ready) + len(waiting)
                ready.clear()
                waiting.clear()

            now = _monotonic()

            # Promote retry-backoff tasks whose wait elapsed.
            if waiting and not interrupted:
                still_waiting = []
                for eligible_at, task_id in waiting:
                    if now >= eligible_at:
                        ready.append(task_id)
                    else:
                        still_waiting.append((eligible_at, task_id))
                waiting[:] = still_waiting

            # Degrade to inline when the pool keeps failing.
            if pool_failures > cfg.max_pool_failures:
                degraded = True
                break

            # Dispatch ready tasks onto idle (alive) workers, growing the
            # pool up to ``jobs``.
            while ready:
                handle = next(
                    (w for w in workers if w.task is None and w.proc.is_alive()), None
                )
                if handle is None:
                    if len(workers) >= jobs:
                        break
                    handle = spawn_worker()
                    if handle is None:
                        break
                task = tasks[ready[0]]
                slot = task.slot
                try:
                    handle.task_queue.put(
                        (task.task_id, slot.attempts + 1, slot.spec.name,
                         scale_dict, slot.cell.as_dict())
                    )
                except Exception:
                    handle.kill()
                    retire(handle)
                    pool_failures += 1
                    counters["pool_rebuilds"] += 1
                    continue
                ready.popleft()
                run.dispatch(slot, handle.worker_id)
                handle.task = task
                handle.attempt = slot.attempts
                handle.deadline = (
                    now + task.timeout_s if task.timeout_s is not None else None
                )
                counters["dispatched"] += 1

            if unfinished <= 0:
                break

            # Wait for a result (bounded so deadlines/liveness stay fresh).
            try:
                message = result_queue.get(timeout=cfg.poll_s)
            except queue_mod.Empty:
                message = None
            if message is not None:
                task_id, attempt, ok, body, wall_s = message
                task = tasks.get(task_id)
                handle = next((w for w in workers if w.task is task), None)
                worker_id = handle.worker_id if handle is not None else "w?"
                if handle is not None and handle.attempt == attempt:
                    handle.task = None
                    handle.deadline = None
                if task is not None and not task.finished:
                    if ok:
                        # A success is a success even if this attempt was
                        # already abandoned: the payload is a pure function
                        # of the cell, so the bytes are identical.
                        settle_success(task, body, wall_s, worker_id)
                    elif attempt == task.slot.attempts:
                        retry_or_fail(task, "exception", body, worker_id)
                    # else: stale failure from an abandoned attempt; the
                    # retry is already scheduled.

            # Deadline + liveness sweep.
            now = _monotonic()
            for handle in list(workers):
                if handle.task is None:
                    if not handle.proc.is_alive():
                        retire(handle)
                    continue
                if handle.task.finished:
                    handle.task = None
                    handle.deadline = None
                    continue
                if not handle.proc.is_alive():
                    exit_code = handle.proc.exitcode
                    handle_worker_loss(
                        handle,
                        "worker-died",
                        f"worker process died (exit code {exit_code})",
                    )
                    counters["pool_rebuilds"] += 1
                elif handle.deadline is not None and now >= handle.deadline:
                    task = handle.task
                    counters["timeouts"] += 1
                    counters["pool_rebuilds"] += 1
                    final = task.slot.attempts > cfg.max_retries or interrupted
                    if journal is not None and task.slot.key is not None:
                        journal.cell_timeout(
                            task.slot.spec.name, task.slot.key, task.slot.attempts,
                            task.timeout_s, final, handle.worker_id,
                        )
                    handle.kill()
                    handle_worker_loss(
                        handle,
                        "timeout",
                        f"cell exceeded {task.timeout_s:.1f}s wall-clock budget",
                    )

            if interrupted and not any(w.task is not None for w in workers):
                break
    finally:
        for handle in list(workers):
            handle.shutdown()
        result_queue.close()

    if degraded:
        counters["degraded_serial"] = 1
        if journal is not None:
            journal.note(
                "degraded_serial",
                reason=f"pool failed {pool_failures} times in a row",
            )
    return _in_order([task.slot for task in tasks.values() if not task.finished])


# ----------------------------------------------------------------------
# resume planning
# ----------------------------------------------------------------------
@dataclass
class ResumePlan:
    """Everything ``--resume`` needs, derived from a replayed journal."""

    state: RunState
    specs: List[ExperimentSpec]
    scale: ExperimentScale
    jobs: int
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
    jobs: int = 1,
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
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    observation: Optional[Any] = None,
) -> List[ExperimentResult]:
    """Run several experiments; results follow the requested order."""
    return execute(specs, scale, jobs=jobs, cache=cache, observation=observation).results
