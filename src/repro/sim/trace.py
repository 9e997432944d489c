"""Statistics recorders used by every experiment.

Two flavours:

* :class:`StatAccumulator` — a list of scalar samples; count, total,
  mean, extrema, stddev and percentiles are derived from it on read (all
  experiment sample counts are modest, so full retention is fine).
* :class:`Counter` — a simple named integer tally bag, used for perf-counter
  style accounting (instructions, misses, faults by kind).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple


class StatAccumulator:
    """Accumulates scalar samples and reports summary statistics.

    Recording is one list append; every statistic is derived from the
    samples when read.  ``total`` and ``total_sq`` are folded with ``+``
    in sample order, so they carry the bits a running sum updated per
    sample would (``sum()`` may not: from Python 3.12 it compensates).
    """

    def __init__(self, name: str = "stat"):
        self.name = name
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        self.samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.samples.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples)

    def _totals(self) -> Tuple[float, float]:
        total = 0.0
        total_sq = 0.0
        for value in map(float, self.samples):
            total += value
            total_sq += value * value
        return total, total_sq

    @property
    def total(self) -> float:
        return self._totals()[0]

    @property
    def total_sq(self) -> float:
        return self._totals()[1]

    @property
    def min(self) -> Optional[float]:
        return float(min(self.samples)) if self.samples else None

    @property
    def max(self) -> Optional[float]:
        return float(max(self.samples)) if self.samples else None

    @property
    def mean(self) -> float:
        count = len(self.samples)
        return self.total / count if count else 0.0

    @property
    def stddev(self) -> float:
        count = len(self.samples)
        if count < 2:
            return 0.0
        total, total_sq = self._totals()
        variance = (total_sq - total * total / count) / (count - 1)
        return math.sqrt(max(variance, 0.0))

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100]; 0.0 when
        nothing was recorded."""
        if not self.samples:
            return 0.0
        ordered = sorted(map(float, self.samples))
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def summary(self) -> Dict[str, float]:
        """Summary dict; ``min``/``max`` are 0.0 only when nothing was
        recorded (a legitimate extremum of 0.0 or a negative value
        survives), and ``p50``/``p99`` are present whenever something was.
        """
        result: Dict[str, float] = {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min if self.samples else 0.0,
            "max": self.max if self.samples else 0.0,
            "stddev": self.stddev,
        }
        if self.samples:
            result["p50"] = self.percentile(50)
            result["p99"] = self.percentile(99)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stat {self.name} n={self.count} mean={self.mean:.2f}>"


class Counter:
    """A bag of named integer tallies with dict-like access.

    The contract is *integers*: perf-counter style event tallies are always
    whole numbers, and callers (``core/pmshr.py`` et al.) compare them
    against ints.  ``add`` accepts any integral amount (``5``, ``5.0``) and
    rejects fractional ones loudly instead of silently drifting into floats.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        if type(amount) is int:  # the overwhelmingly common case
            self._counts[name] += amount
            return
        value = int(amount)
        if value != amount:
            raise ValueError(
                f"Counter.add({name!r}, {amount!r}): tallies are integers"
            )
        self._counts[name] += value

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def merge(self, other: "Counter") -> None:
        for name, amount in other._counts.items():
            self._counts[name] += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({dict(self._counts)!r})"
