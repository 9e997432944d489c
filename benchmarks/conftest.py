"""Shared benchmark fixtures, wired to the experiment engine.

Every benchmark resolves its experiment in the declarative registry and
runs it through :mod:`repro.experiments.engine` exactly once (``rounds=1``
— the experiments are deterministic simulations, so repeated rounds only
cost time), prints the reproduced table (run pytest with ``-s`` to see it
inline), and writes it under ``benchmarks/output/`` for the record.

Environment knobs:

* ``REPRO_BENCH_JOBS=N`` — fan each experiment's cells out over N
  supervised worker processes (engine output is byte-identical to serial).
* ``REPRO_BENCH_CACHE=1`` — reuse/populate the cell cache under
  ``benchmarks/.cache/`` instead of recomputing every cell.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments import registry
from repro.experiments.cache import CellCache
from repro.experiments.engine import run_spec
from repro.experiments.runner import QUICK

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def engine_jobs() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


@pytest.fixture(scope="session")
def engine_cache():
    return CellCache() if os.environ.get("REPRO_BENCH_CACHE") else None


@pytest.fixture
def record_result():
    """Print an ExperimentResult and persist it to benchmarks/output/."""

    def _record(result):
        OUTPUT_DIR.mkdir(exist_ok=True)
        text = result.to_text()
        print()
        print(text)
        (OUTPUT_DIR / f"{result.name}.txt").write_text(text + "\n")
        return result

    return _record


@pytest.fixture
def run_experiment(benchmark, record_result, engine_jobs, engine_cache):
    """Run a registered experiment through the engine, record its table."""

    def _run(name: str):
        spec = registry.get_spec(name)
        result = benchmark.pedantic(
            run_spec,
            args=(spec, QUICK),
            kwargs={"jobs": engine_jobs, "cache": engine_cache},
            rounds=1,
            iterations=1,
        )
        return record_result(result)

    return _run
