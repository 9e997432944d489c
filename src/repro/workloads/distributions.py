"""Key-distribution generators (YCSB-compatible).

Implements the generators the paper's workloads rely on:

* uniform — FIO random read, DBBench readrandom;
* zipfian — YCSB A/B/C/E/F request distribution (Gray's algorithm, as in
  the YCSB reference implementation, constant 0.99);
* scrambled zipfian — zipfian rank hashed over the key space so popular
  keys are spread out (what YCSB actually uses for reads);
* latest — YCSB D: recently inserted records are most popular.

Sampling is *batched*: every generator owns its numpy bit stream
exclusively, and numpy's vectorized ``random(n)`` / ``integers(lo, hi, n)``
consume the stream exactly like ``n`` scalar calls, so drawing a buffer
ahead of time returns bit-identical values in the identical order — only
the per-call overhead is amortised.  Gray's rank formula — the one
transform that long stayed scalar because ``np.power`` rounds differently
from Python's ``**`` in the last ULP — is vectorized through a
*precomputed boundary table*: ``_rank_boundaries()[k]`` is the smallest
float64 ``u`` the scalar transform maps to rank ``>= k`` (each entry
located with the scalar transform itself as the oracle, so the last-ULP
question never arises), and ``draw(n)`` is then a single
``np.searchsorted`` — comparisons only, no floating transform at sample
time.  Populations where the table cannot be certified (or is too large
to be worth building) silently keep the scalar loop.

Each generator exposes ``next()`` (one sample) and ``draw(n)`` (a
vectorized batch); the two can be interleaved freely on one generator.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rng import BatchedStream

#: YCSB's default zipfian constant.
ZIPFIAN_CONSTANT = 0.99
#: FNV-1a 64-bit offset/prime, used by YCSB's scrambling hash.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Largest population for which ``ZipfianGenerator.draw`` builds its rank
#: boundary table; bigger populations keep the scalar transform (an
#: O(item_count) one-time build stops paying for itself).
_TABLE_MAX_ITEMS = 1 << 18

#: Boundary tables shared by every generator over the same population —
#: pure functions of ``(item_count, theta)``.  ``None`` records a failed
#: build so it is not retried.
_boundary_tables: dict = {}


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 bytes (YCSB's scrambling function)."""
    result = _FNV_OFFSET
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        result ^= octet
        result = (result * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return result


def fnv1a_64_batch(values) -> np.ndarray:
    """Vectorized :func:`fnv1a_64` over an integer array (bit-exact).

    uint64 arithmetic wraps modulo 2**64, which is exactly the scalar
    version's ``& 0xFFFF...`` mask, so every element matches the scalar
    hash bit for bit.
    """
    v = np.asarray(values, dtype=np.uint64)
    result = np.full(v.shape, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask = np.uint64(0xFF)
    eight = np.uint64(8)
    for _ in range(8):
        result ^= v & mask
        v = v >> eight
        result *= prime
    return result


class UniformGenerator:
    """Uniform keys over ``[0, item_count)``."""

    def __init__(self, item_count: int, rng: np.random.Generator):
        if item_count < 1:
            raise WorkloadError("need at least one item")
        self.item_count = item_count
        self.rng = rng
        self._source = BatchedStream(lambda n: rng.integers(0, item_count, n))

    def next(self) -> int:
        return int(self._source.next())

    def draw(self, n: int) -> np.ndarray:
        return self._source.take(n)


class ZipfianGenerator:
    """Gray et al.'s quick zipfian sampler (the YCSB implementation).

    Rank 0 is the most popular item.
    """

    def __init__(
        self,
        item_count: int,
        rng: np.random.Generator,
        theta: float = ZIPFIAN_CONSTANT,
        _source: BatchedStream = None,
    ):
        if item_count < 1:
            raise WorkloadError("need at least one item")
        if not 0 < theta < 1:
            raise WorkloadError("zipfian theta must be in (0, 1)")
        self.item_count = item_count
        self.rng = rng
        self.theta = theta
        self.zeta_n = self._zeta(item_count, theta)
        self.zeta_2 = self._zeta(min(2, item_count), theta)
        self.alpha = 1.0 / (1.0 - theta)
        #: ``0.5 ** theta`` is a per-sample constant of the original
        #: formula; hoisting the identical expression preserves the value.
        self._half_pow_theta = 0.5 ** theta
        if item_count <= 2:
            # Gray's closed form degenerates (0/0) for one or two items;
            # tiny populations fall back to exact inverse-CDF sampling.
            self.eta = None
            self._cdf = []
            acc = 0.0
            for rank in range(item_count):
                acc += (1.0 / ((rank + 1) ** theta)) / self.zeta_n
                self._cdf.append(acc)
            self._cdf_array = np.array(self._cdf)
        else:
            self.eta = (1 - (2.0 / item_count) ** (1 - theta)) / (
                1 - self.zeta_2 / self.zeta_n
            )
        # A shared source lets LatestGenerator rebuild the sampler as the
        # store grows without discarding buffered (already-drawn) stream
        # values, which would break bit-identity.
        self._source = BatchedStream(rng.random) if _source is None else _source

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def _rank(self, u: float) -> int:
        if self.eta is None:
            for rank, bound in enumerate(self._cdf):
                if u < bound:
                    return rank
            return self.item_count - 1
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow_theta:
            return 1
        return int(self.item_count * (self.eta * u - self.eta + 1) ** self.alpha)

    def next(self) -> int:
        return self._rank(float(self._source.next()))

    # -- vectorized transform -----------------------------------------
    def _boundary_guess(self, k: int) -> float:
        """Analytic inverse of ``_rank(u) == k`` (a few ULPs off at most)."""
        if k == 1:
            return 1.0 / self.zeta_n
        # Invert k = n * (eta*u - eta + 1) ** alpha, floored below by the
        # rank-1 threshold where the formula branch takes over.
        x = (k / self.item_count) ** (1.0 - self.theta)
        u = (x - 1.0) / self.eta + 1.0
        return max(u, (1.0 + self._half_pow_theta) / self.zeta_n)

    @staticmethod
    def _refine_boundary(k: int, guess: float, g, steps: int = 4096):
        """Walk ULP-by-ULP to the smallest u with ``g(u) >= k`` (or None)."""
        u = min(max(guess, 0.0), math.nextafter(1.0, 0.0))
        if g(u) >= k:
            for _ in range(steps):
                down = math.nextafter(u, -math.inf)
                if down < 0.0 or g(down) < k:
                    return u
                u = down
        else:
            for _ in range(steps):
                u = math.nextafter(u, math.inf)
                if u >= 1.0:
                    return None
                if g(u) >= k:
                    return u
        return None

    def _build_boundaries(self):
        """Table B with ``B[k] = min u: _rank(u) >= k`` — or None.

        Every entry is certified against the *scalar* transform (``g(B[k])
        >= k`` and ``g(B[k] - 1ulp) < k`` by construction), and the scalar
        transform is piecewise monotone, so
        ``searchsorted(B, u, "right") - 1`` reproduces it exactly.  Any
        anomaly — walk failure, unsorted entries, the formula branch
        dipping below the threshold ranks at the branch joint — aborts to
        the scalar path rather than risking a near-miss table.
        """
        g = self._rank
        # The joint where the closed-form branch takes over from the
        # threshold ranks: the formula must already be >= 1 there, else
        # the transform is not monotone and no table can represent it.
        joint = self._refine_boundary(
            1, (1.0 + self._half_pow_theta) / self.zeta_n,
            lambda u: 1 if u * self.zeta_n >= 1.0 + self._half_pow_theta else 0,
        )
        if joint is None or g(joint) < 1:
            return None
        top = g(math.nextafter(1.0, 0.0))
        bounds = [0.0]
        for k in range(1, top + 1):
            u = self._refine_boundary(k, self._boundary_guess(k), g)
            if u is None or u < bounds[-1]:
                return None
            bounds.append(u)
        table = np.array(bounds)
        if not np.all(np.diff(table) >= 0.0):
            return None
        return table

    def _rank_boundaries(self):
        key = (self.item_count, self.theta)
        if key in _boundary_tables:
            return _boundary_tables[key]
        if self.item_count > _TABLE_MAX_ITEMS:
            table = None
        else:
            try:
                table = self._build_boundaries()
            except (ValueError, TypeError, OverflowError):
                table = None
        if len(_boundary_tables) >= 64:
            _boundary_tables.pop(next(iter(_boundary_tables)))
        _boundary_tables[key] = table
        return table

    def draw(self, n: int) -> np.ndarray:
        """``n`` ranks: one uniform batch through the boundary table."""
        us = self._source.take(n)
        if self.eta is None:
            # Scalar path returns the first rank with ``u < cdf[rank]``;
            # side="right" counts the bounds <= u, which is that rank.
            idx = np.searchsorted(self._cdf_array, us, side="right")
            return np.minimum(idx, self.item_count - 1).astype(np.int64)
        table = self._rank_boundaries()
        if table is None:
            rank = self._rank
            return np.fromiter((rank(float(u)) for u in us), dtype=np.int64, count=n)
        return (np.searchsorted(table, us, side="right") - 1).astype(np.int64)


class ScrambledZipfianGenerator:
    """Zipfian ranks scattered over the item space via FNV hashing."""

    def __init__(
        self,
        item_count: int,
        rng: np.random.Generator,
        theta: float = ZIPFIAN_CONSTANT,
    ):
        self.item_count = item_count
        self._zipfian = ZipfianGenerator(item_count, rng, theta)
        # Buffer *scrambled* keys (not raw ranks) so next() amortises the
        # hash too; routing draw() through the same stream keeps the two
        # entry points interleavable without reordering the rank stream.
        modulus = np.uint64(item_count)
        self._source = BatchedStream(
            lambda n: fnv1a_64_batch(self._zipfian.draw(n)) % modulus
        )

    def draw(self, n: int) -> np.ndarray:
        return self._source.take(n)

    def next(self) -> int:
        return int(self._source.next())


class LatestGenerator:
    """YCSB's latest distribution: zipfian over recency.

    ``insert_cursor`` is a callable returning the current number of items;
    a sample of rank ``r`` maps to item ``count - 1 - r``.
    """

    def __init__(self, insert_cursor, rng: np.random.Generator,
                 theta: float = ZIPFIAN_CONSTANT):
        self._cursor = insert_cursor
        self.rng = rng
        self.theta = theta
        self._zipfian = None
        self._zipfian_n = 0
        self._source = BatchedStream(rng.random)

    def next(self) -> int:
        count = int(self._cursor())
        if count < 1:
            raise WorkloadError("latest distribution over an empty store")
        # Rebuild the underlying zipfian lazily as the store grows (zeta is
        # monotone; exact rebuild at ≥5 % growth keeps cost negligible).
        if self._zipfian is None or count > self._zipfian_n * 1.05:
            self._zipfian = ZipfianGenerator(
                count, self.rng, self.theta, _source=self._source
            )
            self._zipfian_n = count
        rank = self._zipfian.next()
        if rank >= count:
            rank = count - 1
        return count - 1 - rank

    def draw(self, n: int) -> np.ndarray:
        # The cursor can move between samples, so "latest" has no
        # vectorized transform; draw() exists for API uniformity.
        return np.fromiter((self.next() for _ in range(n)), dtype=np.int64, count=n)


def uniform_scan_length(rng: np.random.Generator, max_length: int) -> int:
    """YCSB-E scan lengths: uniform in [1, max_length].

    Deliberately unbatched: the caller passes the *ops* stream, which it
    interleaves with other draws — buffering here would reorder them.
    """
    if max_length < 1:
        raise WorkloadError("scan length must be at least 1")
    return int(rng.integers(1, max_length + 1))
