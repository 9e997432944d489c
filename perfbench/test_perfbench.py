"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They check that the per-layer numbers land on the layer that did the work
(a busy-wait injected into ``Smu.handle_miss`` shows up in ``core.self_s``
on fio-hwdp only), that tracing does not perturb the simulation, that the
output checks fire, and that BENCHMARK.json matches what run.py prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

#: Host busy-wait added to every Smu.handle_miss call.
SPIN_S = 200e-6
SEED = 7


def _values(result):
    assert result["correct"], result
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def sensitivity():
    """End-to-end and per-layer metrics with and without the injection."""
    out = {}
    for workload in ("fio-hwdp", "fio-osdp"):
        for label, inject in (("base", None), ("spin", {"core.handle_miss": SPIN_S})):
            out[workload, label] = {
                **_values(run.measure(workload, SEED, 0, False, inject)),
                **_values(run.measure(workload, SEED, 0, True, inject)),
            }
    return out


def test_injected_cost_lands_on_core_for_fio_hwdp(sensitivity):
    base, spin = sensitivity["fio-hwdp", "base"], sensitivity["fio-hwdp", "spin"]
    added = spin["core.handle_miss.calls"] * SPIN_S
    assert added > 0.2
    assert spin["core.self_s"] - base["core.self_s"] > 0.8 * added
    assert spin["run_s"] - base["run_s"] > 0.5 * added
    for layer in ("sim", "cpu", "vm", "os", "storage", "mem", "workloads"):
        assert abs(spin[f"{layer}.self_s"] - base[f"{layer}.self_s"]) < 0.25 * added, layer


def test_injected_cost_leaves_fio_osdp_alone(sensitivity):
    base, spin = sensitivity["fio-osdp", "base"], sensitivity["fio-osdp", "spin"]
    hwdp_added = sensitivity["fio-hwdp", "spin"]["core.handle_miss.calls"] * SPIN_S
    assert spin["core.calls"] == base["core.calls"] == 0
    assert spin["core.self_s"] == base["core.self_s"] == 0.0
    assert abs(spin["run_s"] - base["run_s"]) < 0.5 * hwdp_added


def test_injection_moves_no_simulated_metric(sensitivity):
    simulated = [name for name, unit in run.PER_LAYER.items()
                 if not name.endswith(("self_s", "_s", "_pct", "ns_per_event"))]
    simulated += ["sim_kops", "sim_p50_us", "sim_p999_us"]
    for workload in ("fio-hwdp", "fio-osdp"):
        base, spin = sensitivity[workload, "base"], sensitivity[workload, "spin"]
        assert {n: base[n] for n in simulated} == {n: spin[n] for n in simulated}


def test_tracing_does_not_perturb_and_attributes_run_time():
    plain = cases.run_machine("fio-hwdp", SEED)
    traced = []
    for _ in range(2):
        tracer = layers.LayerTracer()
        installation = layers.install(tracer)
        try:
            traced.append(cases.run_machine("fio-hwdp", SEED, tracer))
        finally:
            installation.uninstall()
    assert {rep.digest for rep in traced} == {plain.digest}
    assert traced[0].layers["calls"] == traced[1].layers["calls"]
    for rep in traced:
        attributed = sum(t for bucket, t in rep.layers["times"].items()
                         if bucket != layers.HOST)
        assert abs(attributed - rep.run_s) < 0.03 * rep.run_s


def test_uninstall_restores_every_method():
    originals = [(cls, name, cls.__dict__[name])
                 for _, _, cls, name in layers.entry_points()]
    layers.install(layers.LayerTracer(), {"core.handle_miss": 1e-6}).uninstall()
    assert all(cls.__dict__[name] is original for cls, name, original in originals)


def test_zoo_matches_recorded_table_at_golden_seed(tmp_path):
    rep = cases.run_zoo(cases.GOLDEN_SEED, tmp_path)
    cases.check_zoo_table(cases.GOLDEN_SEED, rep.table, ROOT)
    assert rep.experiments["warm_cells"] == 50
    assert rep.experiments["cold_cells"] == 0


def test_failed_output_check_fails_the_run(monkeypatch):
    def broken(system):
        raise cases.CheckFailed("injected invariant violation")

    monkeypatch.setattr(cases, "assert_invariants", broken)
    result = run.measure("fio-osdp", SEED, 0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == cases.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fio-hwdp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
