"""Tests for supervised execution: worker death, timeouts, retries, resume.

The fault-injected specs register themselves in this test process; the
engine forks every cell, so the registrations (and their closures) are
inherited — no pickling of cell functions ever happens, and payloads come
back as canonical JSON text.  Fault injection is sentinel-file based:
attempt 1 finds no sentinel, drops it, and dies/hangs; the retry finds it
and succeeds, so the final payload is exactly what a healthy serial run
would produce.
"""

import errno
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.cache import CellCache
from repro.experiments.engine import (
    CellFailure,
    ExperimentFailure,
    SupervisorConfig,
    cell_key,
    execute,
    plan_resume,
    scale_to_dict,
)
from repro.experiments.journal import RunJournal, find_run, load_state
from repro.experiments.registry import Cell, ExperimentSpec
from repro.experiments.runner import PAPER_SHAPE, QUICK, ExperimentResult
from repro.obs.export import run_timeline, validate_chrome_trace

REPO_ROOT = Path(__file__).parent.parent
GOLDEN = REPO_ROOT / "benchmarks" / "output"


def _merge(scale, payloads):
    return ExperimentResult(
        name="sup-test",
        title="sup-test",
        headers=["x", "y"],
        rows=[{"x": p["x"], "y": p["y"]} for p in payloads],
    )


def _register(name, cell_fn, cells=2, **kwargs):
    spec = ExperimentSpec(
        name=name,
        title=name,
        cells=lambda scale, n=cells: [Cell.make(x=i) for i in range(n)],
        cell_fn=cell_fn,
        merge=_merge,
        **kwargs,
    )
    registry.register(spec)
    return spec


@pytest.fixture
def synthetic():
    """Register fault-injected specs for this test, then unregister."""
    names = []

    def factory(name, cell_fn, cells=2, **kwargs):
        names.append(name)
        return _register(name, cell_fn, cells=cells, **kwargs)

    yield factory
    for name in names:
        registry._SPECS.pop(name, None)


def _faulty_cell(sentinel_dir):
    """Dies hard (os._exit) on the first attempt at x=1; then succeeds."""

    def cell_fn(scale, params):
        if params["x"] == 1:
            sentinel = Path(sentinel_dir) / f"seen-{params['x']}"
            if not sentinel.exists():
                sentinel.write_text("")
                os._exit(17)
        return {"x": params["x"], "y": params["x"] * 10}

    return cell_fn


def _healthy_cell(scale, params):
    return {"x": params["x"], "y": params["x"] * 10}


# ----------------------------------------------------------------------
# worker death -> retry in a fresh cold fork
# ----------------------------------------------------------------------
def test_worker_death_is_retried_and_result_matches_serial(tmp_path, synthetic):
    spec = synthetic("sup-death", _faulty_cell(tmp_path), cells=3)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=2, specs=[spec.name],
        run_id="death", root=tmp_path,
    )
    report = execute(
        [spec], QUICK, jobs=2, journal=journal,
        supervise=SupervisorConfig(max_retries=1),
    )
    journal.close()
    assert report.failures == []
    assert report.supervision["worker_deaths"] >= 1
    assert report.supervision["retries"] >= 1

    # Byte-identical to an uninterrupted serial run of the healthy grid.
    serial = execute([synthetic("sup-healthy", _healthy_cell, cells=3)], QUICK)
    assert report.results[0].rows == serial.results[0].rows
    assert report.results[0].to_text() == serial.results[0].to_text()

    # The journal shows the full transition history for the dying cell.
    state = load_state(tmp_path / "death")
    key = cell_key(spec, QUICK, Cell.make(x=1))
    record = state.cell(spec.name, key)
    assert record.state == "done"
    assert record.attempts == 2
    states = [s for s, _ in record.transitions]
    assert states[0] == "dispatched"
    assert "failed" in states
    assert states[-1] == "done"


def test_exhausted_retries_become_collected_failures(tmp_path, synthetic):
    def always_dies(scale, params):
        if params["x"] == 0:
            os._exit(23)
        return {"x": params["x"], "y": 0}

    spec = synthetic("sup-hopeless", always_dies, cells=3)
    with pytest.raises(ExperimentFailure) as excinfo:
        execute(
            [spec], QUICK, jobs=2,
            supervise=SupervisorConfig(max_retries=1),
        )
    failures = excinfo.value.failures
    assert len(failures) == 1
    assert failures[0].kind == "worker-died"
    assert failures[0].attempts == 2
    assert failures[0].params == {"x": 0}
    # The grid was not aborted: the report (raise_on_failure=False) still
    # computes the surviving cells and skips the merge for the broken spec.
    report = execute(
        [spec], QUICK, jobs=2, raise_on_failure=False,
        supervise=SupervisorConfig(max_retries=0),
    )
    assert report.incomplete == [spec.name]
    assert report.computed == 2
    assert report.result_for(spec.name) is None


# ----------------------------------------------------------------------
# timeouts
# ----------------------------------------------------------------------
def test_hung_cell_times_out_and_retry_succeeds(tmp_path, synthetic):
    def hangs_once(scale, params):
        if params["x"] == 1:
            sentinel = Path(tmp_path) / "hung"
            if not sentinel.exists():
                sentinel.write_text("")
                time.sleep(60)
        return {"x": params["x"], "y": params["x"]}

    spec = synthetic("sup-hang", hangs_once)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=2, specs=[spec.name],
        run_id="hang", root=tmp_path,
    )
    report = execute(
        [spec], QUICK, jobs=2, journal=journal,
        supervise=SupervisorConfig(timeout_s=1.0, max_retries=1),
    )
    journal.close()
    assert report.failures == []
    assert report.supervision["timeouts"] == 1
    state = load_state(tmp_path / "hang")
    key = cell_key(spec, QUICK, Cell.make(x=1))
    states = [s for s, _ in state.cell(spec.name, key).transitions]
    assert "timeout" in states
    assert states[-1] == "done"


def test_timeout_budget_scales_with_cost_hint_and_scale():
    config = SupervisorConfig(timeout_s=10.0)
    light = ExperimentSpec(
        name="l", title="l", cells=lambda s: [], cell_fn=_healthy_cell,
        merge=_merge,
    )
    heavy = ExperimentSpec(
        name="h", title="h", cells=lambda s: [], cell_fn=_healthy_cell,
        merge=_merge, cost_hint=3.0,
    )
    assert config.cell_timeout(light, QUICK) == 10.0
    assert config.cell_timeout(heavy, QUICK) == 30.0
    assert config.cell_timeout(heavy, PAPER_SHAPE) == 10.0 * 3.0 * 8.0
    assert SupervisorConfig(timeout_s=None).cell_timeout(heavy, QUICK) is None


# ----------------------------------------------------------------------
# raising cells are collected, not fatal mid-grid (serial path too)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_cell_collected_all_cells_still_run(tmp_path, synthetic, jobs):
    # Cells run in forked processes, so they log to a file.
    ran = tmp_path / "ran"

    def raises_at_one(scale, params):
        with open(ran, "a") as log:
            log.write(f"{params['x']}\n")
        if params["x"] == 1:
            raise ValueError("injected")
        return {"x": params["x"], "y": 0}

    spec = synthetic(f"sup-raise-{jobs}", raises_at_one, cells=3)
    supervise = SupervisorConfig(max_retries=0) if jobs > 1 else None
    report = execute(
        [spec], QUICK, jobs=jobs, raise_on_failure=False, supervise=supervise,
    )
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.kind == "exception"
    assert "injected" in failure.error
    assert failure.describe().startswith(f"sup-raise-{jobs}[x=1]: exception")
    assert report.computed == 2, "the other cells still computed"
    if jobs == 1:
        # One cell at a time: the grid is not aborted, and x=1's one
        # retry (the default) runs once its backoff is over.
        assert ran.read_text().split() == ["0", "1", "2", "1"]
        assert failure.attempts == 2


# ----------------------------------------------------------------------
# a refused fork runs the cell inline, whatever retries are left
# ----------------------------------------------------------------------
def test_refused_fork_runs_the_cell_inline_as_its_next_attempt(
    tmp_path, monkeypatch, synthetic
):
    test_pid = os.getpid()
    real_fork = os.fork
    refused = []
    ran = tmp_path / "ran"

    def refuse_first_fork():
        if os.getpid() == test_pid and not refused:
            refused.append(None)
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return real_fork()

    def logged_cell(scale, params):
        with open(ran, "a") as log:
            log.write(f"{params['x']}:{'inline' if os.getpid() == test_pid else 'forked'}\n")
        return _healthy_cell(scale, params)

    monkeypatch.setattr(os, "fork", refuse_first_fork)
    spec = synthetic("sup-refused", logged_cell)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id="refused", root=tmp_path,
    )
    report = execute([spec], QUICK, jobs=1, journal=journal,
                     supervise=SupervisorConfig(max_retries=0))
    journal.close()
    assert report.failures == []
    assert report.results[0].rows == [{"x": 0, "y": 0}, {"x": 1, "y": 10}]
    assert ran.read_text().split() == ["0:inline", "1:forked"]
    state = load_state(tmp_path / "refused")
    first, second = (state.cell(spec.name, cell_key(spec, QUICK, Cell.make(x=x)))
                     for x in (0, 1))
    assert first.transitions == [
        ("dispatched", 1), ("failed", 1), ("dispatched", 2), ("done", 2),
    ]
    assert first.worker == "inline"
    [failed] = [r for r in state.records if r["t"] == "cell" and r["state"] == "failed"]
    assert (failed["worker"], failed["kind"], failed["final"]) == ("cold", "fork-refused", False)
    assert second.transitions == [("dispatched", 1), ("done", 1)]
    assert second.worker == "cold"


# ----------------------------------------------------------------------
# interrupt -> drain -> resume is byte-identical
# ----------------------------------------------------------------------
def test_interrupt_drains_then_resume_is_byte_identical(tmp_path, synthetic):
    spec = synthetic("sup-drain", _healthy_cell, cells=6)
    cache = CellCache(tmp_path / "cache")
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id="drain", root=tmp_path,
    )
    calls = {"n": 0}

    def stop_after_two():
        calls["n"] += 1
        return calls["n"] > 2

    first = execute(
        [spec], QUICK, cache=cache, journal=journal,
        should_stop=stop_after_two, raise_on_failure=False,
    )
    journal.run_end("suspended", exit_code=3)
    journal.close()
    assert first.interrupted
    assert first.skipped > 0
    assert first.results == []

    state = load_state(tmp_path / "drain")
    assert state.end_state == "suspended"
    plan = plan_resume(state)
    assert plan.mismatches == []
    assert plan.skip_failed == {}

    resumed_journal = RunJournal.attach("drain", tmp_path)
    resumed = execute(
        plan.specs, plan.scale, cache=cache, journal=resumed_journal,
        skip_failed=plan.skip_failed,
    )
    resumed_journal.run_end("complete", exit_code=0)
    resumed_journal.close()
    serial = execute([spec], QUICK)
    assert resumed.results[0].to_text() == serial.results[0].to_text()
    assert resumed.cached == first.computed, "done cells resumed from cache"
    final = load_state(tmp_path / "drain")
    assert final.end_state == "complete"
    assert final.unfinished_cells() == []


# ----------------------------------------------------------------------
# resume planning refuses changed source
# ----------------------------------------------------------------------
def test_plan_resume_refuses_fingerprint_mismatch(tmp_path, synthetic):
    spec = synthetic("sup-fp", _healthy_cell)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id="fp", root=tmp_path,
    )
    execute([spec], QUICK, journal=journal)
    journal.close()

    # Same name, bumped version: every cell key (and the fingerprint) moves.
    registry._SPECS.pop(spec.name)
    _register(spec.name, _healthy_cell, version=2)

    plan = plan_resume(load_state(tmp_path / "fp"))
    assert len(plan.mismatches) == 1
    assert "source fingerprint changed" in plan.mismatches[0]


def test_plan_resume_skips_prior_failures_unless_retrying(tmp_path, synthetic):
    spec = synthetic("sup-prior", _healthy_cell)
    journal = RunJournal.create(
        scale=scale_to_dict(QUICK), jobs=1, specs=[spec.name],
        run_id="prior", root=tmp_path,
    )
    keys = [cell_key(spec, QUICK, cell) for cell in spec.cells(QUICK)]
    journal.record_cells(
        spec.name, "fp", [(k, dict(c.params)) for k, c in zip(keys, spec.cells(QUICK))]
    )
    journal.cell_failed(spec.name, keys[0], 2, "broken", final=True)
    journal.close()

    state = load_state(tmp_path / "prior")
    plan = plan_resume(state)
    assert set(plan.skip_failed) == {(spec.name, keys[0])}
    assert plan.skip_failed[(spec.name, keys[0])].kind == "prior-failure"
    assert plan_resume(state, retry_failed=True).skip_failed == {}

    # skip_failed cells are re-reported, not re-dispatched.
    report = execute(
        plan.specs, plan.scale, skip_failed=plan.skip_failed,
        raise_on_failure=False,
    )
    assert [f.kind for f in report.failures] == ["prior-failure"]
    assert report.computed == 1


# ----------------------------------------------------------------------
# end-to-end chaos: SIGKILL the CLI mid-run, then --resume
# ----------------------------------------------------------------------
def _cli_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def test_cli_sigkill_then_resume_matches_golden(tmp_path):
    env = _cli_env(tmp_path)
    out_dir = tmp_path / "out"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments",
            "--only", "variance", "--jobs", "2",
            "--run-id", "chaos", "--out", str(out_dir),
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # Let it journal the header and land some cells, then kill it hard.
    deadline = time.monotonic() + 30.0
    journal_path = tmp_path / "runs" / "chaos" / "journal.jsonl"
    while time.monotonic() < deadline:
        if journal_path.exists() and journal_path.stat().st_size > 500:
            break
        time.sleep(0.05)
    time.sleep(0.6)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    state = load_state(find_run("chaos", tmp_path / "runs"))
    assert state.torn_lines <= 1, "kill -9 tears at most the final line"
    assert state.end_state is None
    assert state.unfinished_cells(), "the kill landed mid-run"

    done = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments",
            "--resume", "chaos", "--out", str(out_dir),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "[resume chaos:" in done.stderr
    assert (out_dir / "variance.txt").read_bytes() == (
        (GOLDEN / "variance.txt").read_bytes()
    )
    final = load_state(find_run("chaos", tmp_path / "runs"))
    assert final.end_state == "complete"
    assert final.unfinished_cells() == []
    # Two cells at a time ran as worker "cold": the host timeline must
    # still draw them without partially overlapping slices.
    assert validate_chrome_trace(run_timeline(final)) == []


def _proc_stat(pid):
    """``(state, ppid)`` from /proc/<pid>/stat, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()  # the name may hold spaces
    return fields[0], int(fields[1])


def _children(pid):
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(entry.name)
            if stat is not None and stat[1] == pid:
                found.append(int(entry.name))
    return found


def _descendants(pid):
    found, frontier = [], [pid]
    while frontier:
        children = _children(frontier.pop())
        found.extend(children)
        frontier.extend(children)
    return found


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")  # zombies have exited


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_cli_sigkill_leaves_no_orphaned_workers(tmp_path):
    # kill -9 of the CLI can stop none of its forked cells; every one must
    # notice its parent is gone and exit, even in the middle of a cell.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments",
            "--only", "fig13", "--jobs", "2", "--no-cache",
            "--out", str(tmp_path / "out"),
        ],
        env=_cli_env(tmp_path), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    seen, most = set(), 0
    try:
        deadline = time.monotonic() + 60.0
        while most < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            current = _descendants(proc.pid)
            seen.update(current)
            most = max(most, len(current))
        time.sleep(0.5)  # let later cells get going too
        seen.update(_descendants(proc.pid))
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert most >= 2, "no two cells ran at once under --jobs 2"
    workers = sorted(seen)
    deadline = time.monotonic() + 5.0
    while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == [], "workers outlived the killed CLI"


# ----------------------------------------------------------------------
# the warm placement under the CLI: signals and kill -9
# ----------------------------------------------------------------------
#: Runs the CLI on its command-line arguments with two warm units, so the
#: schedule does not depend on the host's CPU count.
_TWO_UNIT_CLI = (
    "import sys\n"
    "from repro.experiments import engine\n"
    "from repro.experiments.__main__ import main\n"
    "engine._warm_width = lambda: 2\n"
    "sys.exit(main())\n"
)


def _wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def _interrupt_then_resume(tmp_path, run_id, name, argv):
    """SIGINT the process group of the CLI run ``argv`` once it journals a
    done cell: one drain line, exit 3, ``suspended``; then resume it and
    compare ``name``'s table with the recording."""
    env = _cli_env(tmp_path)
    out_dir = tmp_path / "out"
    journal_path = tmp_path / "runs" / run_id / "journal.jsonl"
    proc = subprocess.Popen(
        [sys.executable, *argv, "--only", name, "--run-id", run_id, "--out", str(out_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _wait_for(
            lambda: journal_path.exists() and '"state":"done"' in journal_path.read_text(),
            120.0, "a done cell",
        )
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert stderr.count("draining in-flight cells") == 1, stderr
    assert proc.returncode == 3, stderr
    assert load_state(find_run(run_id, tmp_path / "runs")).end_state == "suspended"

    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--resume", run_id, "--out", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (out_dir / f"{name}.txt").read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


def test_cli_sigint_to_a_warm_run_drains_once_then_resumes(tmp_path):
    # SIGINT to the whole process group reaches every leader and cell
    # too; only the CLI may answer it, warm or cold.
    _interrupt_then_resume(tmp_path, "zoo-int", "policy-zoo", ["-c", _TWO_UNIT_CLI])
    _interrupt_then_resume(
        tmp_path, "fig13-int", "fig13",
        ["-m", "repro.experiments", "--jobs", "2", "--no-cache"],
    )


#: Registers a two-group warm spec whose forked cells record their pid
#: and sleep, then runs the CLI on it with two warm units.
_SLEEPING_WARM_CLI = """
import os, sys, time
from repro.experiments import engine, registry
from repro.experiments.__main__ import main
from repro.experiments.registry import Cell, ExperimentSpec, WarmupSpec
from repro.experiments.runner import ExperimentResult

pid_dir = sys.argv[1]
cli_pid = os.getpid()

def group(params):
    return {"g": params["g"]}

def prefix(scale, group):
    return {}

def finish(scale, params, ctx):
    if os.getpid() != cli_pid:
        open(os.path.join(pid_dir, str(os.getpid())), "w").close()
        time.sleep(120)
    return {"x": params["x"]}

def merge(scale, payloads):
    return ExperimentResult(name="warm-sleepers", title="warm-sleepers",
                            headers=["x"], rows=payloads)

engine._warm_width = lambda: 2
registry.register(ExperimentSpec(
    name="warm-sleepers", title="warm-sleepers",
    cells=lambda scale: [Cell.make(g=x // 3, x=x) for x in range(6)],
    cell_fn=lambda scale, params: finish(scale, params, prefix(scale, group(params))),
    merge=merge,
    warmup=WarmupSpec(group=group, prefix=prefix, finish=finish),
))
sys.exit(main(["--only", "warm-sleepers", "--no-cache"]))
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_cli_sigkill_leaves_no_warm_leader_or_cell(tmp_path):
    # Each leader watches its control pipe from the CLI; kill -9 of the
    # CLI must close every one, so the leaders kill their cells and exit.
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_WARM_CLI, str(pid_dir)],
        env=_cli_env(tmp_path), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    cells, parents, leaders = [], set(), []
    try:
        _wait_for(lambda: len(list(pid_dir.iterdir())) >= 2, 60.0, "two sleeping cells")
        cells = [int(path.name) for path in pid_dir.iterdir()]
        parents = {_proc_stat(pid)[1] for pid in cells}
        leaders = _children(proc.pid)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert parents <= set(leaders), "every cell is a leader's child"
    deadline = time.monotonic() + 5.0
    while any(_alive(pid) for pid in cells + leaders) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in cells + leaders if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == [], "warm processes outlived the killed CLI"


def test_cli_resume_refuses_unknown_run(tmp_path):
    env = _cli_env(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--resume", "ghost"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "ghost" in result.stderr
