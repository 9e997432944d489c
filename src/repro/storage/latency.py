"""Device service-time models.

The paper treats the *device time* (SQ doorbell write → CQ entry write) as a
measured constant per device: 10.9 µs for the Z-SSD, ~6.5 µs for the Optane
SSD and 2.1 µs for Optane DC PMM used as a block device (Figure 17).  The
model samples around those means with a small lognormal variation (ultra-low
latency devices are tight) and inflates reads while writes are in flight —
the read/write interference the paper invokes to explain YCSB's smaller
gains (§VI-C: "workloads show higher read I/O latency than read-only
workloads due to contention caused by writes in the SSD").

Every NVMe command draws one lognormal multiplier.  The device's stream
is its own, so the multipliers are drawn 512 at a time through
:class:`repro.sim.rng.BatchedStream`: the same values in the same order
as one scalar ``lognormal(0, sigma)`` call per command, without numpy's
per-call overhead.
"""

from __future__ import annotations

import numpy as np

from repro.config import DeviceConfig
from repro.sim.rng import BatchedStream


class DeviceLatencyModel:
    """Samples per-command service times for one device."""

    def __init__(self, config: DeviceConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        # Hot-path caches: one sample per NVMe command.
        self._sigma = config.latency_sigma
        self._read_ns = config.read_latency_ns
        self._write_ns = config.write_latency_ns
        self._interference = config.write_interference
        sigma = self._sigma
        # ``tolist()`` makes each multiplier a Python float, so the
        # product below is plain float arithmetic.
        self._multiplier = BatchedStream(
            lambda n: rng.lognormal(0.0, sigma, n).tolist()
        ).next

    def _sample(self, mean_ns: float) -> float:
        if self._sigma <= 0:
            return mean_ns
        # Lognormal with median = mean_ns; at the small sigmas used the
        # distribution mean is within 0.1 % of mean_ns.
        return mean_ns * self._multiplier()

    def read_service_ns(self, write_occupancy: float = 0.0) -> float:
        """Service time of one 4 KB read.

        ``write_occupancy`` is the fraction of device slots currently busy
        with writes; reads are inflated by ``write_interference`` times it.
        """
        inflation = 1.0 + self._interference * max(0.0, min(1.0, write_occupancy))
        return self._sample(self._read_ns) * inflation

    def write_service_ns(self) -> float:
        """Service time of one 4 KB write."""
        return self._sample(self._write_ns)
