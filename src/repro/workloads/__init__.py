"""Workload drivers: FIO, the KV store (RocksDB stand-in), DBBench, YCSB, SPEC."""

from repro.workloads.base import WorkloadDriver
from repro.workloads.dbbench import DbBenchReadRandom
from repro.workloads.distributions import (
    BatchedStream,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv1a_64,
    fnv1a_64_batch,
    uniform_scan_length,
)
from repro.workloads.fio import FioRandomRead, FioSequentialRead
from repro.workloads.kvstore import KVStore
from repro.workloads.mixed import PolicyMixWorkload
from repro.workloads.spec import SPEC_KERNELS, SpecCompute, SpecKernel
from repro.workloads.ycsb import YCSB_MIXES, YcsbMix, YcsbWorkload

__all__ = [
    "WorkloadDriver",
    "UniformGenerator",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "LatestGenerator",
    "uniform_scan_length",
    "fnv1a_64",
    "fnv1a_64_batch",
    "BatchedStream",
    "FioRandomRead",
    "FioSequentialRead",
    "KVStore",
    "PolicyMixWorkload",
    "DbBenchReadRandom",
    "YcsbWorkload",
    "YcsbMix",
    "YCSB_MIXES",
    "SpecCompute",
    "SpecKernel",
    "SPEC_KERNELS",
]
