"""Figure 3: time breakdown of a single OSDP page fault.

The paper decomposes one page-fault handling into phases and reports the
aggregate software overhead as 76.3 % of the device time on an ultra-low
latency SSD.  Reproduced two ways and cross-checked:

* the machine's configured cost table (the calibration itself), and
* a *measured* per-phase breakdown of a one-thread FIO run, read from the
  kernel-phase events of its OSDP miss spans (:mod:`repro.obs.trace`) —
  each phase's mean time per fault must agree with the table, and the
  measured mean fault latency must be device time + critical-path
  overhead.

The spans go to the run's ``--trace`` sink when one is attached, and to a
private sink otherwise.  A single traced run feeds the whole table, so
this spec has one cell.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import PagingMode
from repro.experiments.registry import Cell, ExperimentSpec, register
from repro.experiments.runner import (
    QUICK,
    ExperimentResult,
    ExperimentScale,
    build,
)
from repro.obs.export import span_breakdown
from repro.obs.trace import PATH_OSDP, TraceSink
from repro.workloads.fio import FioRandomRead

#: Cost-table phase name → traced phase name.
_TRACE_NAMES = {
    "exception_walk": "exception_walk",
    "handler_entry": "handler_entry",
    "page_alloc": "page_alloc",
    "io_submit": "io_submit",
    "context_switch_out": "context_switch_out",
    "interrupt_delivery": "interrupt_delivery",
    "io_completion": "io_completion",
    "context_switch_in": "context_switch_in",
    "metadata_update": "metadata_update",
    "pte_update_return": "return",
}

TITLE = "single page-fault latency breakdown (OSDP)"


def _cells(scale: ExperimentScale) -> List[Cell]:
    return [Cell.make()]


def _cell(scale: ExperimentScale, params: Dict) -> Dict:
    system = build(PagingMode.OSDP, scale)
    driver = FioRandomRead(
        ops_per_thread=min(scale.ops_per_thread, 80),
        file_pages=scale.memory_frames * 4,
    )
    driver.prepare(system, num_threads=1)
    sink = system.sim.trace
    if sink is None:
        sink = TraceSink()
        sink.attach(system.sim, "fig03")
    first = len(sink.spans)
    system.run(driver.launch(system))

    costs = system.config.osdp_costs
    faults = driver.threads[0].perf.translations["os-fault"]
    totals = span_breakdown(sink.spans[first:], PATH_OSDP).totals_ns
    # Device time has its own row; the traced rows are kernel time only.
    del totals["device_service"]
    return {
        "device_ns": system.device.read_device_time.mean,
        "measured_total": driver.threads[0].perf.miss_latency["os-fault"].mean,
        "faults": faults,
        "phase_table": [[phase, ns] for phase, ns in costs.phase_table().items()],
        "traced_totals": totals,
        "traced_total_ns": sum(totals.values()),
        "critical_path_ns": costs.critical_path_ns,
    }


def _merge(scale: ExperimentScale, payloads: List[Dict]) -> ExperimentResult:
    payload = payloads[0]
    device_ns = payload["device_ns"]
    measured_total = payload["measured_total"]
    faults = payload["faults"]
    traced_totals = payload["traced_totals"]

    result = ExperimentResult(
        name="fig03",
        title=TITLE,
        headers=[
            "phase",
            "ns",
            "measured_ns_per_fault",
            "pct_of_device",
            "on_critical_path",
        ],
        paper_reference={
            "exception+walk": "2.45 % of device time",
            "io_submission": "9.85 %",
            "interrupt_delivery": "2.5 %",
            "context_switch": "9.85 %",
            "io_completion": "20.6 %",
            "total_overhead": "76.3 % of device time",
        },
    )
    overlapped = {"context_switch_out"}
    for phase, ns in payload["phase_table"]:
        trace_name = _TRACE_NAMES[phase]
        measured = traced_totals.get(trace_name, 0.0) / faults if faults else 0.0
        result.add_row(
            phase=phase,
            ns=ns,
            measured_ns_per_fault=measured,
            pct_of_device=100.0 * ns / device_ns,
            on_critical_path=phase not in overlapped,
        )
    result.add_row(
        phase="device_io",
        ns=device_ns,
        measured_ns_per_fault=device_ns,
        pct_of_device=100.0,
        on_critical_path=True,
    )
    critical = payload["critical_path_ns"]
    result.add_row(
        phase="TOTAL overhead (critical path)",
        ns=critical,
        measured_ns_per_fault=payload["traced_total_ns"] / faults if faults else 0.0,
        pct_of_device=100.0 * critical / device_ns,
        on_critical_path=True,
    )
    result.add_row(
        phase="measured mean fault latency",
        ns=measured_total,
        measured_ns_per_fault=measured_total,
        pct_of_device=100.0 * measured_total / device_ns,
        on_critical_path=True,
    )
    result.notes.append(
        f"measured fault latency {measured_total:,.0f} ns vs device "
        f"{device_ns:,.0f} ns + overhead {critical:,.0f} ns; traced phases "
        f"cover {payload['traced_total_ns'] / faults:,.0f} ns of kernel time per fault"
    )
    return result


SPEC = register(
    ExperimentSpec(name="fig03", title=TITLE, cells=_cells, cell_fn=_cell, merge=_merge)
)
