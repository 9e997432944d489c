"""Schema checks for the recorded perf trajectory (benchmarks/BENCH_*.json).

The snapshots are the speed campaign's historical record; nothing
regenerates them automatically, so a malformed one would silently break
``perf.py --check`` and trajectory comparisons.  These tests pin the
schema every recorded file must satisfy, and the bits of ``perf.py``
(file ordering, the regression gate) that consume it.
"""

import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import perf  # noqa: E402

SNAPSHOTS = perf.bench_files()

ENTRY_KEYS = {"experiment", "scale", "cells", "sims", "events", "wall_s", "events_per_sec"}

#: Schema history (see ``perf.BENCH_SCHEMA``): 1 — original layout;
#: 2 — totals exclude zero-event analytic experiments and snapshots may
#: carry a ``warm_start`` section of paired cold/warm grid measurements.
KNOWN_SCHEMAS = {1, 2}

WARM_START_KEYS = {
    "experiment",
    "scale",
    "cells",
    "warm_groups",
    "warm_cells",
    "cold_wall_s",
    "warm_wall_s",
    "speedup",
    "tables_identical",
}


def load(path):
    with open(path) as handle:
        return json.load(handle)


def test_trajectory_recorded():
    assert SNAPSHOTS, "the perf trajectory needs at least one recorded snapshot"
    indices = [int(p.stem.split("_")[1]) for p in SNAPSHOTS]
    assert indices == list(range(1, len(indices) + 1)), (
        "BENCH_<n>.json sequence numbers must be contiguous from 1"
    )


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda p: p.name)
def test_snapshot_schema(path):
    snapshot = load(path)
    assert snapshot["schema"] in KNOWN_SCHEMAS
    assert perf.BENCH_SCHEMA in KNOWN_SCHEMAS, "new schema needs a history entry here"
    assert isinstance(snapshot["label"], str) and snapshot["label"]
    assert set(snapshot["host"]) == {"python", "implementation", "machine", "system"}
    results = snapshot["results"]
    assert results, "a snapshot without measurements is useless"
    from repro.experiments import spec_names

    known = set(spec_names())
    seen = set()
    for entry in results:
        assert set(entry) == ENTRY_KEYS, entry
        assert entry["experiment"] in known
        assert entry["scale"] in ("quick", "paper-shape")
        key = (entry["experiment"], entry["scale"])
        assert key not in seen, f"duplicate measurement {key}"
        seen.add(key)
        for field in ("cells", "sims", "events"):
            assert isinstance(entry[field], int) and entry[field] >= 0
        assert isinstance(entry["wall_s"], (int, float)) and entry["wall_s"] >= 0
        if entry["wall_s"] > 0:
            assert entry["events_per_sec"] == pytest.approx(
                entry["events"] / entry["wall_s"], rel=0.05
            )
        else:
            assert not entry["events_per_sec"]
    for warm in snapshot.get("warm_start", []):
        assert set(warm) == WARM_START_KEYS, warm
        assert warm["experiment"] in known
        assert warm["tables_identical"] is True, (
            "a warm-start speedup is only recordable for a byte-identical grid"
        )
        assert warm["warm_groups"] <= warm["warm_cells"] <= warm["cells"]
        if warm["warm_wall_s"] > 0:
            assert warm["speedup"] == pytest.approx(
                warm["cold_wall_s"] / warm["warm_wall_s"], rel=0.01
            )


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda p: p.name)
def test_snapshot_totals_consistent(path):
    snapshot = load(path)
    results = snapshot["results"]
    totals = snapshot["totals"]
    assert totals["events"] == sum(r["events"] for r in results)
    assert totals["wall_s"] == pytest.approx(sum(r["wall_s"] for r in results), abs=0.01)
    if snapshot["schema"] >= 2:
        measured = [r for r in results if r["events"] > 0]
        assert totals["measured_wall_s"] == pytest.approx(
            sum(r["wall_s"] for r in measured), abs=0.01
        )
        assert totals["excluded_zero_event"] == sorted(
            r["experiment"] for r in results if r["events"] == 0
        )
        if measured:
            assert totals["events_per_sec"] == pytest.approx(
                totals["events"] / totals["measured_wall_s"], rel=0.05
            )


#: Documented lineage breaks: (experiment, scale) -> the snapshot that
#: starts a new event-count lineage.  The pluggable-reclaim refactor
#: (between BENCH_2 and BENCH_3) rewired the kernel daemons onto the
#: policy registry, shifting fig13's dispatched-event count by a handful
#: of daemon events (+2 at quick, -259 of 5.3M at paper shape) while
#: leaving its recorded tables byte-identical — the golden-table CI diff
#: is the byte-identity authority; this test pins counts *within* a
#: lineage.  Every entry here needs a cause recorded in this comment.
EVENT_COUNT_RESETS = {
    ("fig13", "quick"): "BENCH_3.json",
    ("fig13", "paper-shape"): "BENCH_3.json",
}


def test_snapshots_share_event_counts():
    """The campaign's honesty check: a later snapshot may only be faster,
    never *smaller* — identical (experiment, scale) measurements must
    dispatch the identical number of events, or the speedup came from
    changing the simulation instead of the engine."""
    by_key = {}
    for path in SNAPSHOTS:
        for entry in load(path)["results"]:
            key = (entry["experiment"], entry["scale"])
            if not entry["events"]:
                continue
            if EVENT_COUNT_RESETS.get(key) == path.name:
                by_key[key] = (path.name, entry["events"])
                continue
            recorded = by_key.setdefault(key, (path.name, entry["events"]))
            assert recorded[1] == entry["events"], (
                f"{key}: {recorded[0]} dispatched {recorded[1]} events, "
                f"{path.name} dispatched {entry['events']}"
            )


def test_check_regressions_gate():
    baseline = {
        "results": [
            {"experiment": "fig13", "scale": "quick", "events_per_sec": 100_000.0},
            {"experiment": "fig11", "scale": "quick", "events_per_sec": 50_000.0},
        ]
    }
    fresh = {
        "results": [
            # 30% down: fails a 25% tolerance.
            {"experiment": "fig13", "scale": "quick", "events_per_sec": 70_000.0},
            # 10% down: passes.
            {"experiment": "fig11", "scale": "quick", "events_per_sec": 45_000.0},
            # Not in the baseline: ignored.
            {"experiment": "fig12", "scale": "quick", "events_per_sec": 1.0},
        ]
    }
    failures = perf.check_regressions(fresh, baseline, tolerance=0.25)
    assert len(failures) == 1 and "fig13" in failures[0]
    assert perf.check_regressions(fresh, baseline, tolerance=0.35) == []


def test_check_regressions_gates_event_counts():
    baseline = {
        "results": [
            {"experiment": "fig13", "scale": "quick", "events": 959_868,
             "events_per_sec": 100_000.0},
            {"experiment": "variance", "scale": "quick", "events": 231_158,
             "events_per_sec": 50_000.0},
            {"experiment": "fig11", "scale": "quick", "events_per_sec": 50_000.0},
        ]
    }
    fresh = {
        "results": [
            # Faster, but dispatched fewer events: fails at any tolerance.
            {"experiment": "fig13", "scale": "quick", "events": 959_860,
             "events_per_sec": 200_000.0},
            # Same count: passes.
            {"experiment": "variance", "scale": "quick", "events": 231_158,
             "events_per_sec": 50_000.0},
            # The baseline records no count: only events/sec is checked.
            {"experiment": "fig11", "scale": "quick", "events": 1,
             "events_per_sec": 50_000.0},
        ]
    }
    failures = perf.check_regressions(fresh, baseline, tolerance=0.99)
    assert len(failures) == 1
    assert "fig13@quick" in failures[0]
    assert "959,860" in failures[0] and "959,868" in failures[0]
