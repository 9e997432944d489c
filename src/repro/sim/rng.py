"""Seeded random-number streams.

Every stochastic component draws from its own named stream derived from a
single master seed via :class:`numpy.random.SeedSequence`.  This keeps runs
reproducible and — crucially for A/B experiments like OSDP vs HWDP — keeps
the *workload* stream identical across configurations even though the two
configurations consume different amounts of device-latency randomness.

A component that owns its stream exclusively can draw ahead of time
through :class:`BatchedStream`: numpy's vectorized samplers consume a
stream exactly like the same number of scalar calls, so a buffer drawn
in one call yields the same values in the same order.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

#: Underlying samples drawn per buffered refill.
_BATCH = 512


class RngStreams:
    """A factory of independent, named :class:`numpy.random.Generator`\\ s."""

    def __init__(self, master_seed: int = 0xD5EED):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The same ``(master_seed, name)`` pair always yields the same stream,
        independent of creation order.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Derive a child seed from the stream name so creation order is
            # irrelevant; crc32 keeps it stable across Python versions.
            child = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(child,))
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator


class BatchedStream:
    """Buffered view of a vectorized sampler whose bit stream the caller
    owns exclusively.

    ``refill(n)`` must consume the underlying stream exactly like ``n``
    scalar draws (true of ``Generator.random``, ``Generator.lognormal``
    and ``Generator.integers`` with constant bounds), which makes
    ``next()``/``take(n)`` emit the same values in the same order as the
    unbatched code path.  ``refill`` returns a numpy array; a caller that
    only uses ``next()`` may return the array's ``tolist()`` instead, so
    each value comes out as a Python scalar.
    """

    __slots__ = ("_refill", "_buf", "_pos")

    def __init__(self, refill):
        self._refill = refill
        self._buf = None
        self._pos = 0

    def next(self):
        buf = self._buf
        pos = self._pos
        if buf is None or pos >= len(buf):
            buf = self._buf = self._refill(_BATCH)
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def take(self, n: int) -> np.ndarray:
        """Consume the next ``n`` samples as an array (stream order)."""
        buf = self._buf
        pos = self._pos
        have = 0 if buf is None else buf.shape[0] - pos
        if have >= n:
            if buf is None:  # n == 0 before the first refill
                return self._refill(0)
            out = buf[pos : pos + n]
            self._pos = pos + n
            return out
        head = buf[pos:] if have else None
        self._buf = None
        self._pos = 0
        tail = self._refill(n - have)
        return tail if head is None else np.concatenate([head, tail])
