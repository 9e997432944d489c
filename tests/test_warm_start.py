"""Tests for the warm placement: cells forked from a shared warmup prefix.

The synthetic spec's warmup context is a plain dict with no ``system``
entry, so the leader takes no state digest and the tests stay fast (one
test adds a bare simulator as the ``system`` to see when it digests).  Its
``finish`` mutates the inherited context; the ``seen`` column proves each
cell saw a pristine prefix (fork isolation) however it was placed.

Fault injection is sentinel-file based, as in ``test_supervision.py``:
the first attempt drops a sentinel and raises inside the warm fork, and
the inline retry finds it and succeeds.
"""

from types import SimpleNamespace

import pytest

from repro.experiments import engine, registry
from repro.experiments.cache import CellCache
from repro.experiments.engine import cell_key, execute, scale_to_dict
from repro.experiments.journal import RunJournal, load_state
from repro.experiments.registry import Cell, ExperimentSpec, WarmupSpec
from repro.experiments.runner import QUICK, ExperimentResult
from repro.sim import Simulator

#: (group, x) per cell: two warm groups of three and two cells, plus a
#: single-cell group that saves nothing warm and so runs inline.
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

    def factory(name, finish=_healthy_finish, prefix=_prefix):
        spec = ExperimentSpec(
            name=name,
            title=name,
            cells=lambda scale: [Cell.make(g=g, x=x) for g, x in GRID],
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
    assert pool.supervision.get("warm_cells", 0) == 0


def test_warm_tallies_count_groups_and_cells(warm_spec):
    report = execute([warm_spec("warm-tally")], QUICK)
    assert report.supervision["warm_groups"] == 2
    assert report.supervision["warm_cells"] == 5
    assert report.computed == len(GRID)
    assert report.failures == []


def test_single_cell_group_runs_inline(tmp_path, warm_spec):
    spec = warm_spec("warm-single")
    journal = _journal(tmp_path, spec, "single")
    execute([spec], QUICK, journal=journal)
    journal.close()
    workers = {x: _record(tmp_path, "single", spec, x).worker for _, x in GRID}
    assert workers == {
        0: "warm-g1", 1: "warm-g1", 2: "warm-g1",
        3: "warm-g2", 4: "warm-g2",
        5: "inline",
    }


def test_finish_raising_once_falls_back_inline_as_a_retry(tmp_path, warm_spec):
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
    prefixes = []

    def spy(*args, **kwargs):
        records = real_fork_group(*args, **kwargs)
        prefixes.extend(r for r in records if r.get("kind") == "prefix")
        return records

    real_fork_group = engine._fork_group
    monkeypatch.setattr(engine, "_fork_group", spy)
    spec = warm_spec("warm-digest", prefix=_system_prefix)

    uncached = execute([spec], QUICK)
    assert [("digest" in r) for r in prefixes] == [False, False]
    prefixes.clear()
    cached = execute([spec], QUICK, cache=CellCache(tmp_path / "cache"))
    assert [("digest" in r) for r in prefixes] == [True, True]
    assert all(r["events"] == 0 for r in prefixes)
    assert cached.supervision["warm_cells"] == uncached.supervision["warm_cells"] == 5
    assert cached.results[0].to_text() == uncached.results[0].to_text()
