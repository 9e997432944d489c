#!/usr/bin/env python3
"""Head-to-head comparison of all three demand-paging implementations.

Run the same seeded workload on OSDP, SWDP and HWDP machines and print the
five numbers the paper's evaluation compares, one column per mode — the
shape of the paper's whole evaluation in one screen.

Run:  python examples/compare_modes.py [--workload fio|dbbench|ycsb-c|ycsb-a]
"""

import argparse

from repro.config import PagingMode
from repro.experiments.runner import QUICK, aggregate_perf
from repro.experiments.workload_runs import run_kv_workload

MODES = (PagingMode.OSDP, PagingMode.SWDP, PagingMode.HWDP)


def measure(workload: str, mode: PagingMode) -> dict:
    """One run's compared metrics, in display order."""
    run = run_kv_workload(workload, mode, QUICK, threads=4)
    latency = run.driver.op_latency
    perf = aggregate_perf(run.driver.threads)
    return {
        "throughput (ops/s)": run.throughput,
        "mean op latency (us)": latency.mean / 1000.0,
        "p99 op latency (us)": latency.percentile(99) / 1000.0,
        "user IPC": perf.user_ipc,
        "kernel instructions": perf.kernel_instructions,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", default="fio", choices=["fio", "dbbench", "ycsb-c", "ycsb-a"]
    )
    args = parser.parse_args()

    results = {mode: measure(args.workload, mode) for mode in MODES}

    print(f"workload: {args.workload}, 4 threads, dataset = 2x memory\n")
    header = f"{'metric':26s}" + "".join(f"  {mode.value:>12s}" for mode in MODES)
    print(header)
    print("-" * len(header))
    for metric in results[PagingMode.OSDP]:
        values = "".join(f"  {results[mode][metric]:12,.2f}" for mode in MODES)
        print(f"{metric:26s}{values}")
    print(
        "\nThe software-only fast path already removes most OS overhead;"
        "\nthe hardware removes what is left (paper Figure 17)."
    )


if __name__ == "__main__":
    main()
