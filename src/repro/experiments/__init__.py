"""One module per paper figure/table; each registers an ``ExperimentSpec``.

Importing this package populates :mod:`repro.experiments.registry` with
every spec (the import order below fixes the default execution order).

The stable public API is registry + engine:

* :func:`get_spec` / :func:`all_specs` / :func:`spec_names` /
  :func:`resolve` — look up registered experiments (``resolve`` also
  expands group names like ``ablations``);
* :func:`execute` — run any mix of specs with cell-level caching,
  ``jobs`` forked cells at a time, and an optional observation config;
  :func:`run_spec` / :func:`run_specs` are thin conveniences over it;
* :class:`ExperimentResult` — the rendered table each merge returns.

``run_all`` executes the full evaluation and returns every result; the
``python -m repro.experiments`` entry point prints them.
"""

from typing import List, Optional

# Import order fixes registration order: figures/tables in paper order,
# then the beyond-paper analyses, then the ablations group.
from repro.experiments import fig01_motivation  # noqa: F401
from repro.experiments import fig02_trends  # noqa: F401
from repro.experiments import fig03_fault_breakdown  # noqa: F401
from repro.experiments import fig04_pollution_osdp  # noqa: F401
from repro.experiments import table1_semantics  # noqa: F401
from repro.experiments import fig11_single_fault  # noqa: F401
from repro.experiments import fig12_latency  # noqa: F401
from repro.experiments import fig13_throughput  # noqa: F401
from repro.experiments import fig14_pollution_hwdp  # noqa: F401
from repro.experiments import fig15_kernel_cost  # noqa: F401
from repro.experiments import fig16_smt  # noqa: F401
from repro.experiments import fig17_sw_vs_hw  # noqa: F401
from repro.experiments import area_overhead  # noqa: F401
from repro.experiments import tail_latency  # noqa: F401
from repro.experiments import variance  # noqa: F401
from repro.experiments import resilience  # noqa: F401
from repro.experiments import ablations  # noqa: F401
from repro.experiments import policy_zoo  # noqa: F401
from repro.experiments.engine import (
    CellFailure,
    ExperimentFailure,
    SupervisorConfig,
    execute,
    plan_resume,
    run_spec,
    run_specs,
)
from repro.experiments.journal import RunJournal, find_run, load_state
from repro.experiments.registry import (
    Cell,
    ExperimentSpec,
    all_specs,
    get_spec,
    groups,
    register,
    resolve,
    spec_names,
)
from repro.experiments.runner import (
    PAPER_SHAPE,
    QUICK,
    ExperimentResult,
    ExperimentScale,
)


def run_all(scale: ExperimentScale = QUICK, jobs: Optional[int] = None) -> List[ExperimentResult]:
    """Run every figure/table plus the ablations."""
    return run_specs(all_specs(), scale, jobs=jobs)


__all__ = [
    "run_all",
    "QUICK",
    "PAPER_SHAPE",
    "ExperimentScale",
    "ExperimentResult",
    "ExperimentSpec",
    "Cell",
    "register",
    "resolve",
    "groups",
    "get_spec",
    "all_specs",
    "spec_names",
    "execute",
    "run_spec",
    "run_specs",
    "CellFailure",
    "ExperimentFailure",
    "SupervisorConfig",
    "plan_resume",
    "RunJournal",
    "find_run",
    "load_state",
]
