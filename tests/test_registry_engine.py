"""Tests for the declarative experiment registry, engine, and cell cache."""

import json
import os
import pathlib
import sys

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import engine, registry
from repro.experiments.cache import CellCache
from repro.experiments.engine import cell_key, execute, run_spec, spec_fingerprint
from repro.experiments.registry import Cell, ExperimentSpec
from repro.experiments.runner import PAPER_SHAPE, QUICK, ExperimentResult, _fmt

OUTPUT_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "output"


# ----------------------------------------------------------------------
# registry completeness and resolution
# ----------------------------------------------------------------------
def test_every_recorded_output_has_a_spec():
    recorded = {path.stem for path in OUTPUT_DIR.glob("*.txt")}
    assert recorded, "benchmarks/output/ should hold the seed tables"
    assert recorded == set(registry.spec_names())


def test_registry_order_is_paper_order():
    names = registry.spec_names()
    assert names[:5] == ["fig01", "fig02", "fig03", "fig04", "table1"]
    assert names.index("fig13") < names.index("fig17") < names.index("area")


def test_aliases_and_groups_resolve():
    assert registry.get_spec("tail").name == "tail-latency"
    ablations = registry.groups()["ablations"]
    assert len(ablations) == 8
    specs = registry.resolve(["ablations", "fig01", "tail"])
    assert [s.name for s in specs][:2] == [ablations[0], ablations[1]]
    assert specs[-2].name == "fig01"
    assert specs[-1].name == "tail-latency"
    # Duplicates collapse, first mention wins.
    assert len(registry.resolve(["fig01", "fig01"])) == 1


def test_unknown_name_raises_with_known_names():
    with pytest.raises(KeyError, match="fig01"):
        registry.get_spec("fig99")


# ----------------------------------------------------------------------
# serial vs parallel byte-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["fig17", "ablation-kpoold"])
def test_serial_and_parallel_runs_are_byte_identical(name):
    serial = run_spec(name, QUICK).to_text()
    parallel = run_spec(name, QUICK, jobs=2).to_text()
    assert parallel == serial


# ----------------------------------------------------------------------
# cell cache
# ----------------------------------------------------------------------
CALLS = []


def _counting_cell(scale, params):
    CALLS.append(params["x"])
    return {"x": params["x"], "threads": list(scale.thread_counts)}


def _merge(scale, payloads):
    return ExperimentResult(
        name="synthetic",
        title="synthetic",
        headers=["x"],
        rows=[{"x": p["x"]} for p in payloads],
    )


def _synthetic_spec(version=1):
    return ExperimentSpec(
        name="synthetic",
        title="synthetic",
        cells=lambda scale: [Cell.make(x=1), Cell.make(x=2)],
        cell_fn=_counting_cell,
        merge=_merge,
        version=version,
    )


def test_cache_hit_skips_recomputation(tmp_path):
    spec = _synthetic_spec()
    cache = CellCache(tmp_path)
    CALLS.clear()
    first = execute([spec], QUICK, cache=cache)
    assert (first.computed, first.cached) == (2, 0)
    assert CALLS == [1, 2]
    second = execute([spec], QUICK, cache=cache)
    assert (second.computed, second.cached) == (0, 2)
    assert CALLS == [1, 2], "cache hit must not rerun the cell function"
    assert second.results[0].to_text() == first.results[0].to_text()


def test_cache_key_changes_with_version_params_and_scale():
    spec = _synthetic_spec()
    cell = Cell.make(x=1)
    base = cell_key(spec, QUICK, cell)
    assert base != cell_key(_synthetic_spec(version=2), QUICK, cell)
    assert base != cell_key(spec, QUICK, Cell.make(x=2))
    assert base != cell_key(spec, PAPER_SHAPE, cell)


def test_cell_identity_is_order_insensitive():
    assert Cell.make(a=1, b=2) == Cell.make(b=2, a=1)


def test_fingerprint_covers_defining_module():
    # Two registered specs living in different modules must not share a
    # fingerprint (editing fig01 must not invalidate fig17's cells).
    fig01 = registry.get_spec("fig01")
    fig17 = registry.get_spec("fig17")
    assert spec_fingerprint(fig01) != spec_fingerprint(fig17)


def _fingerprints_and_keys():
    return {
        spec.name: (
            spec_fingerprint(spec),
            tuple(cell_key(spec, QUICK, cell) for cell in spec.cells(QUICK)),
        )
        for spec in registry.all_specs()
    }


def _edit_source(monkeypatch, path):
    """Make the engine see ``path`` with different contents."""
    monkeypatch.setitem(engine._file_digests, path, "edited")
    monkeypatch.setattr(engine, "_simulator_digest", None)


def test_simulator_source_change_invalidates_every_spec(monkeypatch):
    # Every cell runs the simulator: editing e.g. the PTE codec must
    # change every spec's fingerprint and every cell key, or the cache
    # (and --resume, and warm-prefix artifacts) would serve old results.
    sources = engine._simulator_sources()
    pte = next(path for path in sources if path.endswith(os.path.join("vm", "pte.py")))
    assert not any(os.sep + "experiments" + os.sep in path for path in sources)
    before = _fingerprints_and_keys()
    _edit_source(monkeypatch, pte)
    after = _fingerprints_and_keys()
    for name, (fingerprint, keys) in before.items():
        assert after[name][0] != fingerprint, name
        assert not set(after[name][1]) & set(keys), name


def test_experiment_source_change_invalidates_only_its_spec(monkeypatch):
    fig01 = registry.get_spec("fig01")
    module_file = sys.modules[fig01.cell_fn.__module__].__file__
    owners = {
        spec.name for spec in registry.all_specs()
        if sys.modules[spec.cell_fn.__module__].__file__ == module_file
    }
    before = _fingerprints_and_keys()
    _edit_source(monkeypatch, module_file)
    after = _fingerprints_and_keys()
    changed = {name for name in before if after[name] != before[name]}
    assert changed == owners == {"fig01"}


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("exp", "k1", {"x": 1}, {"v": 2})
    assert cache.get("exp", "k1") == {"v": 2}
    (tmp_path / "exp" / "k1.json").write_text("{not json")
    assert cache.get("exp", "k1") is None
    assert cache.get("exp", "never-stored") is None


# ----------------------------------------------------------------------
# ExperimentResult JSON round-trip and formatting
# ----------------------------------------------------------------------
def test_result_json_round_trip():
    result = run_spec("table1", QUICK)
    clone = ExperimentResult.from_json(result.to_json())
    assert clone == result
    assert clone.to_text() == result.to_text()
    # to_json is stable, parseable JSON.
    assert json.loads(result.to_json())["name"] == "table1"


def test_fmt_thousands_separator_for_negatives():
    assert _fmt(-1234.5) == "-1,234"
    assert _fmt(1234.5) == "1,234"
    assert _fmt(-999.95) == "-999.95"


def test_fmt_large_ints_keep_thousands_separator():
    # Counter tallies became ints; their table rendering must not change.
    assert _fmt(4850) == "4,850"
    assert _fmt(-4850) == "-4,850"
    assert _fmt(999) == "999"
    assert _fmt(True) == "True"


# ----------------------------------------------------------------------
# CLI conventions
# ----------------------------------------------------------------------
def test_cli_list_exits_zero(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in registry.spec_names():
        assert name in out
    assert "alias: tail" in out


def test_cli_only_runs_one_experiment(capsys, tmp_path):
    status = cli.main(
        ["--only", "table1", "--no-cache", "--out", str(tmp_path)]
    )
    assert status == 0
    captured = capsys.readouterr()
    assert "table1" in captured.out
    expected = run_spec("table1", QUICK).to_text() + "\n"
    assert (tmp_path / "table1.txt").read_text() == expected
    assert "[table1:" in captured.err


def test_cli_unknown_experiment_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--only", "fig99"])
    assert excinfo.value.code == 2
