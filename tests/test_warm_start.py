"""Tests for the warm placement: cells forked from a shared warmup prefix.

The synthetic spec's warmup context is a plain dict with no ``system``
entry, so the leader takes no state digest and the tests stay fast (one
test adds a bare simulator as the ``system`` to see when it digests).  Its
``finish`` mutates the inherited context; the ``seen`` column proves each
cell saw a pristine prefix (fork isolation) however it was placed.

Fault injection is sentinel-file based, as in ``test_supervision.py``:
the first attempt drops a sentinel and fails inside the warm fork, and
the cold retry finds it and succeeds.  Every cell forks, so a test that
must tell the engine's own process apart compares pids.

The engine keeps ``engine._warm_width()`` units (leader prefixes and
cells) simulating at once across all groups; the budget tests patch that
helper to choose W.  No test may leave a child process or a descriptor
behind.
"""

import contextlib
import errno
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.experiments import engine, registry
from repro.experiments.cache import CellCache
from repro.experiments.engine import (
    SupervisorConfig,
    cell_key,
    execute,
    plan_resume,
    scale_to_dict,
)
from repro.experiments.journal import RunJournal, load_state
from repro.experiments.registry import Cell, ExperimentSpec, WarmupSpec
from repro.experiments.runner import QUICK, ExperimentResult
from repro.sim import Simulator

#: (group, x) per cell: two warm groups of three and two cells, plus a
#: single-cell group that saves nothing warm and so runs cold.
GRID = [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]


def _group(params):
    return {"g": params["g"]}


def _prefix(scale, group):
    return {"base": 100 * group["g"], "log": []}


def _healthy_finish(scale, params, ctx):
    ctx["log"].append(params["x"])
    return {"x": params["x"], "y": ctx["base"] + params["x"], "seen": len(ctx["log"])}


def _merge(scale, payloads):
    return ExperimentResult(
        name="warm-test",
        title="warm-test",
        headers=["x", "y", "seen"],
        rows=[dict(p) for p in payloads],
    )


@pytest.fixture
def warm_spec():
    """Register a warmup-carrying spec around ``finish``, then unregister."""
    names = []

    def factory(name, finish=_healthy_finish, prefix=_prefix, grid=GRID):
        spec = ExperimentSpec(
            name=name,
            title=name,
            cells=lambda scale: [Cell.make(g=g, x=x) for g, x in grid],
            cell_fn=lambda scale, params: finish(
                scale, params, prefix(scale, _group(params))
            ),
            merge=_merge,
            warmup=WarmupSpec(group=_group, prefix=prefix, finish=finish),
        )
        registry.register(spec)
        names.append(name)
        return spec

    yield factory
    for name in names:
        registry._SPECS.pop(name, None)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def _nothing_left_behind():
    fds = _open_fds()
    yield
    _assert_no_children()
    assert _open_fds() == fds


def _journal(tmp_path, spec, run_id):
    return RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id=run_id, root=tmp_path, fsync="never",
    )


def _record(tmp_path, run_id, spec, x):
    g = next(g for g, gx in GRID if gx == x)
    key = cell_key(spec, QUICK, Cell.make(g=g, x=x))
    return load_state(tmp_path / run_id).cell(spec.name, key)


def test_warm_cold_and_pool_tables_are_identical(warm_spec):
    spec = warm_spec("warm-identity")
    warm = execute([spec], QUICK)
    cold = execute([spec], QUICK, warm_start=False)
    pool = execute([spec], QUICK, jobs=2)
    text = warm.results[0].to_text()
    assert cold.results[0].to_text() == text
    assert pool.results[0].to_text() == text
    assert warm.results[0].column("seen") == [1] * len(GRID), "forks isolate cells"
    assert cold.supervision.get("warm_cells", 0) == 0
    assert pool.supervision["warm_cells"] == 5, "--jobs sizes the warm budget"


def test_warm_tallies_count_groups_and_cells(warm_spec):
    report = execute([warm_spec("warm-tally")], QUICK)
    assert report.supervision["warm_groups"] == 2
    assert report.supervision["warm_cells"] == 5
    assert report.computed == len(GRID)
    assert report.failures == []


def test_single_cell_group_runs_cold(tmp_path, warm_spec):
    spec = warm_spec("warm-single")
    journal = _journal(tmp_path, spec, "single")
    execute([spec], QUICK, journal=journal)
    journal.close()
    workers = {x: _record(tmp_path, "single", spec, x).worker for _, x in GRID}
    assert workers == {
        0: "warm-g1", 1: "warm-g1", 2: "warm-g1",
        3: "warm-g2", 4: "warm-g2",
        5: "cold",
    }


def test_finish_raising_once_is_retried_cold(tmp_path, warm_spec):
    sentinel = tmp_path / "raised"

    def raises_once(scale, params, ctx):
        if params["x"] == 1 and not sentinel.exists():
            sentinel.write_text("")
            raise RuntimeError("injected warm failure")
        return _healthy_finish(scale, params, ctx)

    spec = warm_spec("warm-retry", raises_once)
    journal = _journal(tmp_path, spec, "retry")
    report = execute([spec], QUICK, journal=journal)
    journal.close()
    assert report.failures == []
    assert report.supervision["warm_cells"] == 4
    assert report.results[0].to_text() == (
        execute([warm_spec("warm-retry-healthy")], QUICK).results[0].to_text()
    )

    record = _record(tmp_path, "retry", spec, 1)
    assert record.transitions == [
        ("dispatched", 1), ("failed", 1), ("dispatched", 2), ("done", 2),
    ]
    assert record.state == "done" and record.attempts == 2
    lines = [
        r for r in load_state(tmp_path / "retry").records
        if r["t"] == "cell" and r["key"] == record.key
    ]
    assert lines[0]["worker"] == "warm-g1"
    assert lines[1]["worker"] == "warm-g1"
    assert lines[1]["final"] is False
    assert "injected warm failure" in lines[1]["error"]
    assert [line["worker"] for line in lines[2:]] == ["cold", "cold"]


def test_finish_always_raising_is_one_collected_failure(warm_spec):
    def always_raises(scale, params, ctx):
        if params["x"] == 1:
            raise RuntimeError("broken cell")
        return _healthy_finish(scale, params, ctx)

    spec = warm_spec("warm-broken", always_raises)
    report = execute([spec], QUICK, raise_on_failure=False)
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.kind == "exception"
    assert failure.params == {"g": 0, "x": 1}
    assert "broken cell" in failure.error
    assert report.computed == len(GRID) - 1
    assert report.incomplete == [spec.name]


def _system_prefix(scale, group):
    return dict(_prefix(scale, group), system=SimpleNamespace(sim=Simulator()))


def test_prefix_digest_is_taken_only_for_a_cached_run(tmp_path, monkeypatch, warm_spec):
    # Only a run with a cell cache records and checks the prefix digest,
    # so without one the leader must not spend time computing it.
    leaders = []

    def spy(*args, **kwargs):
        leader = real_start_leader(*args, **kwargs)
        leaders.append(leader)
        return leader

    def prefix_records():
        records = [r for leader in leaders for r in leader.records if r.get("kind") == "prefix"]
        leaders.clear()
        return records

    real_start_leader = engine._start_leader
    monkeypatch.setattr(engine, "_start_leader", spy)
    spec = warm_spec("warm-digest", prefix=_system_prefix)

    uncached = execute([spec], QUICK)
    prefixes = prefix_records()
    assert [("digest" in r) for r in prefixes] == [False, False]
    cached = execute([spec], QUICK, cache=CellCache(tmp_path / "cache"))
    prefixes = prefix_records()
    assert [("digest" in r) for r in prefixes] == [True, True]
    assert all(r["events"] == 0 for r in prefixes)
    assert cached.supervision["warm_cells"] == uncached.supervision["warm_cells"] == 5
    assert cached.results[0].to_text() == uncached.results[0].to_text()


# ----------------------------------------------------------------------
# the window: up to W cells of a group simulating at once
# ----------------------------------------------------------------------
#: Four warm groups of ten cells.
WIDE = [(x // 10, x) for x in range(40)]


def _width(monkeypatch, width):
    monkeypatch.setattr(engine, "_warm_width", lambda: width)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, a run that does not finish in time."""

    def expire(signum, frame):
        raise TimeoutError(f"warm run still going after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _transitions(tmp_path, run_id, spec):
    return {x: _record(tmp_path, run_id, spec, x).transitions for _, x in GRID}


def _assert_retried_alone(tmp_path, run_id, spec, report, error):
    """Cell x=1 failed warm and was retried; the rest ran warm once."""
    assert report.failures == []
    assert report.supervision["warm_cells"] == 4
    assert report.results[0].column("y") == [100 * g + x for g, x in GRID]
    assert report.results[0].column("seen") == [1] * len(GRID)
    transitions = _transitions(tmp_path, run_id, spec)
    assert transitions.pop(1) == [
        ("dispatched", 1), ("failed", 1), ("dispatched", 2), ("done", 2),
    ]
    assert all(t == [("dispatched", 1), ("done", 1)] for t in transitions.values())
    [failed] = [
        r for r in load_state(tmp_path / run_id).records
        if r["t"] == "cell" and r["state"] == "failed"
    ]
    assert failed["worker"] == "warm-g1" and failed["final"] is False
    assert error in failed["error"]


def test_later_cells_finishing_first_change_nothing(tmp_path, monkeypatch, warm_spec):
    ends = tmp_path / "ends"
    test_pid = os.getpid()

    def reversed_finish(scale, params, ctx):
        # Lower x sleeps longer, so inside a window later cells end first.
        if os.getpid() != test_pid:
            time.sleep(0.03 * (len(GRID) - params["x"]))
        with open(ends, "a") as log:
            log.write(f"{params['x']}\n")
        return _healthy_finish(scale, params, ctx)

    spec = warm_spec("warm-reverse", reversed_finish)

    def run(run_id, width, warm_start=True):
        _width(monkeypatch, width)
        ends.write_text("")
        journal = _journal(tmp_path, spec, run_id)
        report = execute([spec], QUICK, journal=journal, warm_start=warm_start)
        journal.close()
        order = [int(x) for x in ends.read_text().split()]
        return report.results[0], _transitions(tmp_path, run_id, spec), order

    cold, cold_transitions, _ = run("cold", 1, warm_start=False)
    serial, serial_transitions, serial_order = run("w1", 1)
    assert serial_order == [x for _, x in GRID]
    for attempt in range(5):
        result, transitions, order = run(f"w3-{attempt}", 3)
        assert order.index(2) < order.index(0), "cells of a group overlap"
        assert result.to_text() == serial.to_text() == cold.to_text()
        assert result.rows == serial.rows == cold.rows
        assert transitions == serial_transitions == cold_transitions


def test_killed_cell_is_retried_cold_while_its_siblings_finish_warm(
    tmp_path, monkeypatch, warm_spec
):
    sentinel = tmp_path / "killed-once"
    test_pid = os.getpid()

    def killed_once(scale, params, ctx):
        if params["x"] == 1 and not sentinel.exists():
            assert os.getpid() != test_pid, "the first attempt runs in a warm fork"
            sentinel.write_text("")
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.1)  # the siblings are still running when x=1 dies
        return _healthy_finish(scale, params, ctx)

    _width(monkeypatch, 3)
    spec = warm_spec("warm-killed", killed_once)
    journal = _journal(tmp_path, spec, "killed")
    report = execute([spec], QUICK, journal=journal)
    journal.close()
    _assert_retried_alone(tmp_path, "killed", spec, report, "died before reporting")


def test_refused_fork_fails_only_its_cell(tmp_path, monkeypatch, warm_spec):
    sentinel = tmp_path / "refused-once"
    test_pid = os.getpid()
    real_fork = os.fork
    leader_forks = []

    def refuse_second_cell():
        # Inside a leader, refuse the fork of its second cell, once.
        if os.getpid() != test_pid and not sentinel.exists():
            leader_forks.append(None)
            if len(leader_forks) == 2:
                sentinel.write_text("")
                raise BlockingIOError(errno.EAGAIN, "fork refused")
        return real_fork()

    _width(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", refuse_second_cell)
    spec = warm_spec("warm-refused")
    journal = _journal(tmp_path, spec, "refused")
    report = execute([spec], QUICK, journal=journal)
    journal.close()
    _assert_retried_alone(tmp_path, "refused", spec, report, "fork refused")


def test_failing_leader_kills_and_reaps_its_running_cells(tmp_path, monkeypatch, warm_spec):
    grandchild = tmp_path / "grandchild"
    test_pid = os.getpid()
    real_fork = os.fork

    def slow_in_a_leaders_cell(scale, params, ctx):
        # Only a cell a leader forked sleeps; the cold retries do not.
        if test_pid not in (os.getpid(), os.getppid()):
            time.sleep(120)
        return _healthy_finish(scale, params, ctx)

    def fault_after_first_cell():
        # A leader's first cell forks and leaves its pid behind; every
        # later fork in a leader fails with an error it does not expect.
        if os.getpid() == test_pid:
            return real_fork()
        if grandchild.exists():
            raise RuntimeError("injected leader fault")
        pid = real_fork()
        if pid:
            grandchild.write_text(str(pid))
        return pid

    _width(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fault_after_first_cell)
    spec = warm_spec("warm-leader-fault", slow_in_a_leaders_cell)
    # The failing leader must kill and reap its sleeping cell before it
    # exits, so that cell's pid is gone when the run returns.
    with _deadline(60):
        report = execute([spec], QUICK)
    assert report.failures == []
    assert report.supervision.get("warm_cells", 0) == 0
    assert report.results[0].column("y") == [100 * g + x for g, x in GRID]
    with pytest.raises(ProcessLookupError):
        os.kill(int(grandchild.read_text()), 0)


def test_payload_larger_than_the_pipe_buffer(monkeypatch, warm_spec):
    blob = 256 << 10

    def large(scale, params, ctx):
        return dict(_healthy_finish(scale, params, ctx), blob="b" * blob)

    _width(monkeypatch, 3)
    spec = warm_spec("warm-large", large)
    fds = _open_fds()
    with _deadline(60):
        report = execute([spec], QUICK)
    _assert_no_children()
    assert _open_fds() == fds
    assert report.supervision["warm_cells"] == 5
    assert [len(row["blob"]) for row in report.results[0].rows] == [blob] * len(GRID)


def test_more_cells_at_once_than_cores(monkeypatch, warm_spec):
    test_pid = os.getpid()

    def briefly(scale, params, ctx):
        if os.getpid() != test_pid:
            time.sleep(0.02)  # long enough for the window to fill
        return _healthy_finish(scale, params, ctx)

    _width(monkeypatch, 8)
    spec = warm_spec("warm-wide", briefly, grid=WIDE)
    fds = _open_fds()
    with _deadline(60):
        warm = execute([spec], QUICK)
    _assert_no_children()
    assert _open_fds() == fds
    assert warm.supervision["warm_cells"] == len(WIDE)
    assert warm.results[0].column("seen") == [1] * len(WIDE), "forks isolate cells"
    cold = execute([spec], QUICK, warm_start=False)
    assert warm.results[0].to_text() == cold.results[0].to_text()


# ----------------------------------------------------------------------
# one budget across groups: up to W prefixes and cells at once
# ----------------------------------------------------------------------
def _probed(probe, name, seconds):
    """Hold a marker in ``probe/units`` for ``seconds``.

    Logs how many markers exist once it holds its own, and logs its end
    before letting go.
    """
    marker = probe / "units" / f"{name}-{os.getpid()}"
    marker.touch()
    held = len(os.listdir(probe / "units"))
    with open(probe / "log", "a") as log:
        log.write(f"start {name} {held}\n")
    time.sleep(seconds)
    with open(probe / "log", "a") as log:
        log.write(f"end {name}\n")
    marker.unlink()


def test_no_more_than_w_prefixes_and_cells_run_at_once(tmp_path, monkeypatch, warm_spec):
    test_pid = os.getpid()
    probe = None

    def probed_prefix(scale, group):
        if os.getpid() != test_pid:
            _probed(probe, f"p{group['g']}", 0.05)
        return _prefix(scale, group)

    def probed_finish(scale, params, ctx):
        if os.getpid() != test_pid:
            _probed(probe, f"c{params['x']}", 0.05)
        return _healthy_finish(scale, params, ctx)

    spec = warm_spec("warm-budget", probed_finish, probed_prefix)
    for width in (1, 2, 3):
        probe = tmp_path / f"w{width}"
        (probe / "units").mkdir(parents=True)
        _width(monkeypatch, width)
        with _deadline(60):
            report = execute([spec], QUICK)
        assert report.supervision["warm_cells"] == 5
        log = (probe / "log").read_text().splitlines()
        held = [int(line.split()[2]) for line in log if line.startswith("start ")]
        # Two prefixes and five warm cells, then the cold cell's own
        # prefix and finish.
        assert len(held) == 9, log
        assert max(held) <= width, log
        if width == 2:
            start_p1 = next(i for i, line in enumerate(log) if line.startswith("start p1 "))
            assert start_p1 < log.index("end c2"), "group 2's prefix overlaps group 1"


def test_groups_finishing_out_of_order_change_nothing(tmp_path, monkeypatch, warm_spec):
    test_pid = os.getpid()

    def slow_first_group(scale, params, ctx):
        # Group 2's cells are fast, so it ends while group 1's last runs.
        if os.getpid() != test_pid and params["g"] == 0:
            time.sleep(0.15)
        return _healthy_finish(scale, params, ctx)

    spec = warm_spec("warm-out-of-order", slow_first_group)
    keys = {x: cell_key(spec, QUICK, Cell.make(g=g, x=x)) for g, x in GRID}

    def run(run_id, width, warm_start=True):
        _width(monkeypatch, width)
        journal = _journal(tmp_path, spec, run_id)
        report = execute([spec], QUICK, journal=journal, warm_start=warm_start)
        journal.close()
        done = [r["key"] for r in load_state(tmp_path / run_id).records
                if r["t"] == "cell" and r["state"] == "done"]
        workers = {x: _record(tmp_path, run_id, spec, x).worker for _, x in GRID}
        return report.results[0], _transitions(tmp_path, run_id, spec), workers, done

    cold, cold_transitions, _, _ = run("cold", 1, warm_start=False)
    serial, serial_transitions, serial_workers, serial_done = run("w1", 1)
    assert serial_done.index(keys[2]) < serial_done.index(keys[3])
    for attempt in range(5):
        result, transitions, workers, done = run(f"w2-{attempt}", 2)
        assert done.index(keys[3]) < done.index(keys[2]), "group 2 settles first"
        assert result.to_text() == serial.to_text() == cold.to_text()
        assert result.rows == serial.rows == cold.rows
        assert transitions == serial_transitions == cold_transitions
        assert workers == serial_workers


def test_leader_killed_in_its_prefix_gives_its_unit_back(tmp_path, monkeypatch, warm_spec):
    sentinel = tmp_path / "killed-once"
    test_pid = os.getpid()

    def killed_once(scale, group):
        if group["g"] == 0 and os.getpid() != test_pid and not sentinel.exists():
            sentinel.write_text("")
            os.kill(os.getpid(), signal.SIGKILL)
        return _prefix(scale, group)

    _width(monkeypatch, 1)
    spec = warm_spec("warm-prefix-killed", prefix=killed_once)
    journal = _journal(tmp_path, spec, "prefix-killed")
    # With one unit, group 2 starts only once the dead leader's is free.
    with _deadline(60):
        report = execute([spec], QUICK, journal=journal)
    journal.close()
    assert report.failures == []
    assert report.supervision["warm_cells"] == 2, "group 2 still runs warm"
    assert report.results[0].column("y") == [100 * g + x for g, x in GRID]
    assert report.results[0].column("seen") == [1] * len(GRID)
    transitions = _transitions(tmp_path, "prefix-killed", spec)
    retried = [("dispatched", 1), ("failed", 1), ("dispatched", 2), ("done", 2)]
    assert [transitions[x] for x in (0, 1, 2)] == [retried] * 3
    assert [transitions[x] for x in (3, 4, 5)] == [[("dispatched", 1), ("done", 1)]] * 3


def test_stop_request_finishes_started_groups_warm(tmp_path, monkeypatch, warm_spec):
    started = []

    def start_leader(*args, **kwargs):
        started.append(None)
        return real_start_leader(*args, **kwargs)

    real_start_leader = engine._start_leader
    monkeypatch.setattr(engine, "_start_leader", start_leader)
    _width(monkeypatch, 2)
    spec = warm_spec("warm-stop")
    cache = CellCache(tmp_path / "cache")
    journal = _journal(tmp_path, spec, "stop")
    first = execute(
        [spec], QUICK, cache=cache, journal=journal,
        should_stop=lambda: bool(started), raise_on_failure=False,
    )
    journal.run_end("suspended", exit_code=3)
    journal.close()
    assert first.interrupted and first.results == []
    assert len(started) == 1
    assert first.supervision["warm_groups"] == 1
    assert first.supervision["warm_cells"] == 3
    assert first.skipped == 3, "group 2 and the inline cell"
    transitions = _transitions(tmp_path, "stop", spec)
    assert [transitions[x] for x in (0, 1, 2)] == [[("dispatched", 1), ("done", 1)]] * 3
    assert [transitions[x] for x in (3, 4, 5)] == [[]] * 3, "never dispatched"

    plan = plan_resume(load_state(tmp_path / "stop"))
    assert plan.mismatches == []
    resumed_journal = RunJournal.attach("stop", tmp_path)
    resumed = execute(
        plan.specs, plan.scale, cache=cache, journal=resumed_journal,
        skip_failed=plan.skip_failed,
    )
    resumed_journal.run_end("complete", exit_code=0)
    resumed_journal.close()
    assert resumed.cached == 3
    serial = execute([spec], QUICK, warm_start=False)
    assert resumed.results[0].to_text() == serial.results[0].to_text()


# ----------------------------------------------------------------------
# supervision reaches warm groups: deadlines and cold retries
# ----------------------------------------------------------------------
def _states(tmp_path, run_id, spec, x):
    record = _record(tmp_path, run_id, spec, x)
    return record.transitions, record.worker


def test_hung_warm_cell_is_killed_at_its_deadline_and_retried_cold(
    tmp_path, monkeypatch, warm_spec
):
    sentinel = tmp_path / "hung-once"

    def hangs_once(scale, params, ctx):
        if params["x"] == 1 and not sentinel.exists():
            sentinel.write_text("")
            time.sleep(60)
        return _healthy_finish(scale, params, ctx)

    _width(monkeypatch, 2)
    spec = warm_spec("warm-hung-cell", hangs_once)
    journal = _journal(tmp_path, spec, "hung-cell")
    with _deadline(60):
        report = execute([spec], QUICK, journal=journal,
                         supervise=SupervisorConfig(timeout_s=1.0))
    journal.close()
    assert report.failures == []
    assert report.supervision["timeouts"] == 1
    assert report.supervision["warm_cells"] == 4
    cold = execute([spec], QUICK, warm_start=False)
    assert report.results[0].to_text() == cold.results[0].to_text()
    transitions, worker = _states(tmp_path, "hung-cell", spec, 1)
    assert transitions == [("dispatched", 1), ("timeout", 1), ("dispatched", 2), ("done", 2)]
    assert worker == "cold"


def test_hung_prefix_kills_its_leader_and_its_cells_retry_cold(
    tmp_path, monkeypatch, warm_spec
):
    sentinel = tmp_path / "hung-once"
    test_pid = os.getpid()

    def hangs_once(scale, group):
        if group["g"] == 0 and os.getpid() != test_pid and not sentinel.exists():
            sentinel.write_text("")
            time.sleep(60)
        return _prefix(scale, group)

    _width(monkeypatch, 2)
    spec = warm_spec("warm-hung-prefix", prefix=hangs_once)
    journal = _journal(tmp_path, spec, "hung-prefix")
    with _deadline(60):
        report = execute([spec], QUICK, journal=journal,
                         supervise=SupervisorConfig(timeout_s=1.0))
    journal.close()
    assert report.failures == []
    assert report.supervision["warm_cells"] == 2, "group 2 still runs warm"
    assert report.supervision["timeouts"] == 3, "one per cell of the killed group"
    assert report.results[0].column("y") == [100 * g + x for g, x in GRID]
    retried = [("dispatched", 1), ("timeout", 1), ("dispatched", 2), ("done", 2)]
    assert [_states(tmp_path, "hung-prefix", spec, x) for x in (0, 1, 2)] == [
        (retried, "cold")
    ] * 3
