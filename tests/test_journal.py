"""Tests for the run journal (append/replay/torn tails) and cache hygiene."""

import json
import os

import pytest

from repro.experiments.cache import CellCache
from repro.experiments.journal import (
    JOURNAL_NAME,
    RUN_COMPLETE,
    RUN_SUSPENDED,
    RunJournal,
    find_run,
    list_runs,
    load_state,
)
from repro.obs.export import run_timeline, validate_chrome_trace

SCALE = {"name": "quick", "thread_counts": [1, 2]}


def _journaled_run(tmp_path, run_id="r1"):
    journal = RunJournal.create(
        scale=SCALE, jobs=2, specs=["alpha"], run_id=run_id, root=tmp_path,
        argv=["--only", "alpha"],
    )
    journal.record_cells("alpha", "fp-alpha", [("k1", {"x": 1}), ("k2", {"x": 2})])
    journal.cell_dispatched("alpha", "k1", 1, "w1")
    journal.cell_done("alpha", "k1", 1, 0.5, worker="w1")
    journal.cell_dispatched("alpha", "k2", 1, "w2")
    return journal


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
def test_journal_round_trip(tmp_path):
    journal = _journaled_run(tmp_path)
    journal.cell_failed("alpha", "k2", 1, "boom", kind="exception", final=False)
    journal.cell_dispatched("alpha", "k2", 2, "w3")
    journal.cell_done("alpha", "k2", 2, 0.25, worker="w3")
    journal.run_end(RUN_COMPLETE, exit_code=0)
    journal.close()

    state = load_state(find_run("r1", tmp_path))
    assert state.run_id == "r1"
    assert state.jobs == 2
    assert state.specs == ["alpha"]
    assert state.argv == ["--only", "alpha"]
    assert state.scale["name"] == "quick"
    assert state.fingerprints == {"alpha": "fp-alpha"}
    assert state.end_state == RUN_COMPLETE
    assert state.exit_code == 0
    assert state.torn_lines == 0
    assert state.counts() == {
        "pending": 0, "done": 2, "failed": 0, "timeout": 0, "dispatched": 0,
    }
    k2 = state.cell("alpha", "k2")
    assert k2.attempts == 2
    assert k2.transitions == [
        ("dispatched", 1), ("failed", 1), ("dispatched", 2), ("done", 2),
    ]
    assert state.done_keys("alpha") == ["k1", "k2"]
    assert state.failed_cells() == []


def test_terminal_failure_and_timeout_are_queryable(tmp_path):
    journal = _journaled_run(tmp_path)
    journal.cell_timeout("alpha", "k2", 1, 1.5, final=False, worker="w2")
    journal.cell_dispatched("alpha", "k2", 2, "w3")
    journal.cell_failed("alpha", "k2", 2, "still broken", final=True)
    journal.run_end("failed", exit_code=1)
    journal.close()

    state = load_state(tmp_path / "r1")
    failed = state.failed_cells()
    assert [(e, r.key) for e, r in failed] == [("alpha", "k2")]
    record = failed[0][1]
    assert record.finished
    assert record.error == "still broken"
    assert record.params == {"x": 2}
    assert state.unfinished_cells() == []


def test_kill_leaves_unfinished_cells(tmp_path):
    # No end record, k2 still dispatched: the post-kill resume shape.
    journal = _journaled_run(tmp_path)
    journal.close()
    state = load_state(tmp_path / "r1")
    assert state.end_state is None
    assert [r.key for _, r in state.unfinished_cells()] == ["k2"]
    assert state.done_keys("alpha") == ["k1"]


# ----------------------------------------------------------------------
# torn tails and replay tolerance
# ----------------------------------------------------------------------
def test_torn_final_line_is_tolerated(tmp_path):
    journal = _journaled_run(tmp_path)
    journal.close()
    path = tmp_path / "r1" / JOURNAL_NAME
    with open(path, "a") as handle:
        handle.write('{"t": "cell", "experiment": "alpha", "key": "k2", "sta')
    state = load_state(tmp_path / "r1")
    assert state.torn_lines == 1
    # Everything before the torn tail still replays.
    assert state.done_keys("alpha") == ["k1"]


def test_record_cells_is_idempotent_on_resume(tmp_path):
    journal = _journaled_run(tmp_path)
    journal.close()
    resumed = RunJournal.attach("r1", tmp_path, argv=["--resume", "r1"])
    resumed.record_cells("alpha", "fp-alpha", [("k1", {"x": 1}), ("k2", {"x": 2})])
    resumed.cell_done("alpha", "k2", 1, 0.1, source="cache")
    resumed.run_end(RUN_COMPLETE, exit_code=0)
    resumed.close()

    state = load_state(tmp_path / "r1")
    assert state.resumes == 1
    assert list(state.cells["alpha"].keys()) == ["k1", "k2"]
    # The pre-resume `done` survives the re-recorded cell set.
    assert state.done_keys("alpha") == ["k1", "k2"]


def test_resume_note_clears_prior_end_state(tmp_path):
    journal = _journaled_run(tmp_path)
    journal.run_end(RUN_SUSPENDED, exit_code=3)
    journal.close()
    assert load_state(tmp_path / "r1").end_state == RUN_SUSPENDED
    RunJournal.attach("r1", tmp_path).close()
    assert load_state(tmp_path / "r1").end_state is None


def test_older_journal_with_checkpoint_records_still_resumes(tmp_path):
    # Journals from before mid-cell checkpoints were removed carry a
    # ``checkpoint_interval`` header field and ``checkpoint`` records;
    # replay skips both, so such a run still plans a clean resume.
    from repro.experiments.engine import (
        cell_key,
        plan_resume,
        scale_to_dict,
        spec_fingerprint,
    )
    from repro.experiments.registry import get_spec
    from repro.experiments.runner import QUICK

    spec = get_spec("fig17")
    cells = list(spec.cells(QUICK))
    keys = [cell_key(spec, QUICK, cell) for cell in cells]

    def cell(key, state, **fields):
        return {"t": "cell", "experiment": spec.name, "key": key, "state": state,
                "attempt": 1, "worker": "inline-ckpt", **fields}

    def checkpoint(key, events):
        return {"t": "checkpoint", "experiment": spec.name, "key": key, "sim": 0,
                "events": events, "sim_time": 1.5e6, "digest": "ab" * 32}

    records = [
        {"t": "run", "schema": 1, "run_id": "older", "argv": ["--only", "fig17"],
         "scale": scale_to_dict(QUICK), "jobs": 1, "specs": [spec.name],
         "checkpoint_interval": 5000},
        {"t": "cells", "experiment": spec.name, "fingerprint": spec_fingerprint(spec),
         "cells": [{"key": k, "params": c.as_dict()} for k, c in zip(keys, cells)]},
        cell(keys[0], "dispatched"),
        checkpoint(keys[0], 5000),
        cell(keys[0], "done", wall_s=0.5, source="computed"),
        cell(keys[1], "dispatched"),
        checkpoint(keys[1], 5000),
    ]
    run_dir = tmp_path / "older"
    run_dir.mkdir()
    with open(run_dir / JOURNAL_NAME, "w") as handle:
        for ts, record in enumerate(records):
            record["ts"] = 1000.0 + ts
            handle.write(json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n")

    state = load_state(find_run("older", tmp_path))
    assert state.torn_lines == 0
    assert state.done_keys(spec.name) == keys[:1]
    assert [r.key for _, r in state.unfinished_cells()] == keys[1:]
    plan = plan_resume(state)
    assert plan.mismatches == []
    assert plan.skip_failed == {}
    assert [s.name for s in plan.specs] == [spec.name]
    assert plan.scale == QUICK


def test_every_record_is_single_line_compact_json(tmp_path):
    journal = _journaled_run(tmp_path)
    journal.run_end(RUN_COMPLETE, exit_code=0)
    journal.close()
    lines = (tmp_path / "r1" / JOURNAL_NAME).read_text().splitlines()
    assert len(lines) >= 5
    for line in lines:
        record = json.loads(line)
        assert record["t"] in {"run", "cells", "cell", "note", "end"}
        assert isinstance(record["ts"], float)


def test_find_run_unknown_lists_known_runs(tmp_path):
    _journaled_run(tmp_path).close()
    with pytest.raises(FileNotFoundError, match="r1"):
        find_run("nope", tmp_path)


def test_list_runs(tmp_path):
    _journaled_run(tmp_path, run_id="a").close()
    _journaled_run(tmp_path, run_id="b").close()
    assert sorted(s.run_id for s in list_runs(tmp_path)) == ["a", "b"]


# ----------------------------------------------------------------------
# host-timeline export
# ----------------------------------------------------------------------
def test_run_timeline_is_valid_chrome_trace(tmp_path):
    journal = _journaled_run(tmp_path)
    journal.note("worker_died", worker="w2")
    journal.cell_dispatched("alpha", "k2", 2, "w1")
    journal.cell_done("alpha", "k2", 2, 0.2, worker="w1")
    journal.run_end(RUN_COMPLETE, exit_code=0)
    journal.close()
    state = load_state(tmp_path / "r1")
    trace = run_timeline(state)
    assert validate_chrome_trace(trace) == []
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 2, "one slice per dispatched->terminal attempt"
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert any(e["name"] == "worker_died" for e in instants)


# ----------------------------------------------------------------------
# cache hygiene (quarantine + atomic put)
# ----------------------------------------------------------------------
def test_corrupt_cache_entry_is_quarantined(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("exp", "k1", {"x": 1}, {"v": 2})
    path = tmp_path / "exp" / "k1.json"
    path.write_text("{not json")
    assert cache.get("exp", "k1") is None
    assert not path.exists()
    assert (tmp_path / "exp" / "k1.json.corrupt").read_text() == "{not json"
    assert cache.stats.as_dict()["corrupt"] == 1
    # The quarantined entry now misses instead of re-quarantining.
    assert cache.get("exp", "k1") is None
    assert cache.stats.as_dict() == {"writes": 1, "corrupt": 1, "misses": 1}


def test_wrong_key_entry_is_quarantined(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("exp", "k1", {}, {"v": 1})
    os.replace(tmp_path / "exp" / "k1.json", tmp_path / "exp" / "k2.json")
    assert cache.get("exp", "k2") is None
    assert (tmp_path / "exp" / "k2.json.corrupt").exists()
    assert cache.stats.as_dict()["corrupt"] == 1


def test_put_leaves_no_temp_files_and_hits_count(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("exp", "k1", {"x": 1}, {"v": 2})
    cache.put("exp", "k1", {"x": 1}, {"v": 3})  # overwrite is atomic too
    assert cache.get("exp", "k1") == {"v": 3}
    assert list((tmp_path / "exp").glob("*.tmp")) == []
    stats = cache.stats.as_dict()
    assert stats["writes"] == 2
    assert stats["hits"] == 1


# ----------------------------------------------------------------------
# bounded growth: size-capped LRU pruning
# ----------------------------------------------------------------------
def _sized_entry(cache, key, age):
    """One cache entry whose mtime is ``age`` seconds in the past."""
    cache.put("exp", key, {}, {"v": key})
    path = cache.root / "exp" / f"{key}.json"
    stamp = os.stat(path).st_mtime - age
    os.utime(path, (stamp, stamp))
    return path


def test_cache_prune_evicts_oldest_first(tmp_path):
    cache = CellCache(tmp_path)
    old = _sized_entry(cache, "old", age=300)
    mid = _sized_entry(cache, "mid", age=200)
    new = _sized_entry(cache, "new", age=100)
    keep = mid.stat().st_size + new.stat().st_size
    assert cache.prune(keep) == 1
    assert not old.exists() and mid.exists() and new.exists()
    assert cache.stats.as_dict()["pruned"] == 1


def test_cache_prune_is_lru_not_fifo(tmp_path):
    cache = CellCache(tmp_path)
    first = _sized_entry(cache, "first", age=300)
    second = _sized_entry(cache, "second", age=100)
    # A hit refreshes recency: the *older write* becomes the newer use.
    assert cache.get("exp", "first") == {"v": "first"}
    assert cache.prune(first.stat().st_size) == 1
    assert first.exists() and not second.exists()


def test_cache_prune_includes_quarantined_corrupt_files(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("exp", "k1", {}, {"v": 1})
    (cache.root / "exp" / "k1.json").write_text("{broken")
    assert cache.get("exp", "k1") is None  # quarantines to .corrupt
    corrupt = cache.root / "exp" / "k1.json.corrupt"
    assert corrupt.exists()
    assert cache.prune(0) == 1
    assert not corrupt.exists()


def test_cache_prune_under_cap_removes_nothing(tmp_path):
    cache = CellCache(tmp_path)
    _sized_entry(cache, "k1", age=10)
    assert cache.prune(1 << 30) == 0
    with pytest.raises(ValueError):
        cache.prune(-1)
    assert CellCache(tmp_path / "missing").prune(0) == 0


def _finished_run(tmp_path, run_id, end_state, age):
    journal = RunJournal.create(
        scale=SCALE, jobs=1, specs=["alpha"], run_id=run_id, root=tmp_path,
        argv=[],
    )
    if end_state is not None:
        journal.run_end(end_state, exit_code=0)
    journal.close()
    path = tmp_path / run_id / JOURNAL_NAME
    stamp = os.stat(path).st_mtime - age
    os.utime(path, (stamp, stamp))
    return tmp_path / run_id


def test_prune_runs_never_touches_resumable_runs(tmp_path):
    from repro.experiments.journal import prune_runs

    done = _finished_run(tmp_path, "done", RUN_COMPLETE, age=400)
    suspended = _finished_run(tmp_path, "suspended", RUN_SUSPENDED, age=300)
    inflight = _finished_run(tmp_path, "inflight", None, age=200)
    assert prune_runs(0, root=tmp_path) == 1
    assert not done.exists(), "finished runs are prunable"
    assert suspended.exists(), "suspended runs are resumable state"
    assert inflight.exists(), "in-flight runs are resumable state"


def test_prune_runs_oldest_first_and_cap_respected(tmp_path):
    from repro.experiments.journal import prune_runs

    old = _finished_run(tmp_path, "old", RUN_COMPLETE, age=400)
    new = _finished_run(tmp_path, "new", RUN_COMPLETE, age=100)
    total = sum(
        p.stat().st_size for d in (old, new) for p in d.rglob("*") if p.is_file()
    )
    keep_one = total - 1  # over cap by a hair: exactly one eviction needed
    assert prune_runs(keep_one, root=tmp_path) == 1
    assert not old.exists() and new.exists()
    assert prune_runs(1 << 30, root=tmp_path) == 0
    with pytest.raises(ValueError):
        prune_runs(-1, root=tmp_path)


def test_prune_runs_unreadable_journal_is_prunable(tmp_path):
    from repro.experiments.journal import prune_runs

    stray = tmp_path / "stray"
    stray.mkdir()
    (stray / "leftover.bin").write_bytes(b"x" * 64)
    assert prune_runs(0, root=tmp_path) == 1
    assert not stray.exists()
