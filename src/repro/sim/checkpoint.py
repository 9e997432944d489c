"""Deterministic state digests for the DES core.

The model's simulation state is a live Python object graph: coroutine
processes are *generator frames*, pending engine entries hold bound-method
callbacks into that graph, and the RNG streams are C-side bit-generator
state.  Generator frames cannot be serialised, so this module does not
save state — it *commits* to it:

``capture_state(root)``
    walks the object graph into a canonical, JSON-safe structure —
    primitives verbatim, dicts in insertion order (LRU/OrderedDict order
    is semantic state), object fields by sorted name, numpy generators as
    their bit-generator state, generator frames as (code name, current
    line, last instruction, locals), callbacks as qualified names with
    identity-preserving back-references, and cycles broken by a
    deterministic visit-order memo.

``state_digest(root)``
    SHA-256 over the canonical JSON of that capture.  Two runs are at the
    same event boundary with byte-identical simulation state iff their
    digests match.

``snapshot_system(system)``
    a quiescent (outside any run) ``{events, sim_time, digest}`` record of
    a built system — what the warm-start executor in
    :mod:`repro.experiments.engine` stores as each warmup prefix's
    artifact and verifies against prior runs.

The digests are the determinism oracle: ``tests/test_checkpoint.py``
steps a scenario to an event boundary in two interpreters and requires
the same digest there and the same final state.  Digests are comparable
only between runs with the same observer complement attached (the engine
snapshot includes attached-observer bookkeeping by class name).
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from typing import Any, Dict, List, Optional

import numpy as np

#: Recursion headroom for deep object graphs (page-table radix levels,
#: chained generator frames).  Applied only for the duration of a capture.
_CAPTURE_RECURSION_LIMIT = 20_000


def canonical_json(value: Any) -> str:
    """Canonical wire form: minimal separators, order as captured."""
    return json.dumps(value, separators=(",", ":"), sort_keys=False)


class _Capture:
    """One deterministic walk over a simulation object graph.

    Identity-bearing objects (dicts, lists, sets, instances, generator
    frames) are memoised by visit order; a revisit emits ``{"ref": n}``
    where ``n`` is the first-visit index.  Visit order is the traversal
    order, which is itself deterministic for identical runs, so the memo
    indices — and therefore cycles and shared references — hash stably.
    """

    def __init__(self) -> None:
        self._memo: Dict[int, int] = {}
        self._serial = 0
        # Pin every memoised object for the walk's duration so CPython
        # cannot recycle an id() into a false "ref" hit.
        self._pins: List[Any] = []

    # ------------------------------------------------------------------
    def _remember(self, obj: Any) -> Optional[Dict[str, int]]:
        key = id(obj)  # repro: allow[REP005] reason=memo maps ids to deterministic visit-order indices; nothing orders or hashes on the address itself
        seen = self._memo.get(key)
        if seen is not None:
            return {"ref": seen}
        self._memo[key] = self._serial
        self._serial += 1
        self._pins.append(obj)
        return None

    def walk(self, obj: Any) -> Any:
        if obj is None or obj is True or obj is False:
            return obj
        cls = obj.__class__
        if cls is int or cls is str:
            return obj
        if cls is float:
            return obj
        if cls is bytes:
            return {"b": obj.hex()}
        if cls is tuple:
            return {"t": [self.walk(item) for item in obj]}
        if cls is list:
            ref = self._remember(obj)
            if ref is not None:
                return ref
            return {"l": [self.walk(item) for item in obj]}
        if cls is dict:
            ref = self._remember(obj)
            if ref is not None:
                return ref
            # Insertion order is preserved deliberately: for OrderedDict
            # LRU structures the order *is* state.
            return {"d": [[self.walk(k), self.walk(v)] for k, v in obj.items()]}
        if cls is set or cls is frozenset:
            ref = self._remember(obj)
            if ref is not None:
                return ref
            return {"s": self._walk_set(obj)}
        if isinstance(obj, np.random.Generator):
            ref = self._remember(obj)
            if ref is not None:
                return ref
            return {"rng": self.walk(obj.bit_generator.state)}
        if isinstance(obj, np.random.BitGenerator):
            ref = self._remember(obj)
            if ref is not None:
                return ref
            return {"rng": self.walk(obj.state)}
        if isinstance(obj, np.ndarray):
            ref = self._remember(obj)
            if ref is not None:
                return ref
            return {"nd": [str(obj.dtype), list(obj.shape), obj.tolist()]}
        if isinstance(obj, np.generic):
            return {"np": [str(obj.dtype), obj.item()]}
        if isinstance(obj, types.GeneratorType):
            return self._walk_generator(obj)
        if isinstance(obj, types.MethodType):
            return {"m": obj.__func__.__qualname__, "self": self.walk(obj.__self__)}
        if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)):
            return {"fn": getattr(obj, "__qualname__", obj.__name__)}
        if isinstance(obj, type):
            return {"cls": obj.__qualname__}
        if isinstance(obj, types.ModuleType):
            return {"mod": obj.__name__}
        # Late import: sim.engine must stay importable without this module.
        from repro.sim.engine import Simulator

        if isinstance(obj, Simulator):
            ref = self._remember(obj)
            if ref is not None:
                return ref
            return {"sim": self.walk(obj.snapshot())}
        return self._walk_instance(obj)

    # ------------------------------------------------------------------
    def _walk_set(self, obj: Any) -> List[Any]:
        # Set iteration order for strings depends on the per-process hash
        # seed, so elements are ordered by a value-based key instead.
        # Non-atom members (none exist in simulated state today) degrade
        # to their class names — loud enough to catch drift in tests
        # without making the digest process-dependent.
        atoms: List[Any] = []
        opaque: List[str] = []
        for item in obj:
            if item is None or isinstance(item, (bool, int, float, str, bytes)):
                atoms.append(item)
            else:
                opaque.append(item.__class__.__qualname__)
        atoms.sort(key=lambda item: (item.__class__.__name__, repr(item)))
        return [[self.walk(item) for item in atoms], sorted(opaque)]

    def _walk_generator(self, obj: types.GeneratorType) -> Any:
        ref = self._remember(obj)
        if ref is not None:
            return ref
        frame = obj.gi_frame
        name = obj.gi_code.co_name
        if frame is None:
            return {"gen": name, "done": True}
        return {
            "gen": name,
            "line": frame.f_lineno,
            "lasti": frame.f_lasti,
            "locals": self.walk(dict(frame.f_locals)),
        }

    def _walk_instance(self, obj: Any) -> Any:
        ref = self._remember(obj)
        if ref is not None:
            return ref
        names: List[str] = []
        values: Dict[str, Any] = {}
        instance_dict = getattr(obj, "__dict__", None)
        if isinstance(instance_dict, dict):
            for name, value in instance_dict.items():
                names.append(name)
                values[name] = value
        for klass in type(obj).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in ("__dict__", "__weakref__") or slot in values:
                    continue
                try:
                    values[slot] = getattr(obj, slot)
                except AttributeError:
                    continue
                names.append(slot)
        if not names:
            # C-level objects with no introspectable state (file handles,
            # locks).  Their identity still participates in the memo.
            return {"opaque": obj.__class__.__qualname__}
        # Field *order* is not semantic state (unlike dict entry order),
        # so sort by name for a stable encoding.
        return {
            "o": obj.__class__.__qualname__,
            "f": [[name, self.walk(values[name])] for name in sorted(names)],
        }


def capture_state(root: Any) -> Any:
    """Capture the object graph under ``root`` into canonical JSON-safe form."""
    limit = sys.getrecursionlimit()
    if limit < _CAPTURE_RECURSION_LIMIT:
        sys.setrecursionlimit(_CAPTURE_RECURSION_LIMIT)
    try:
        return _Capture().walk(root)
    finally:
        if limit < _CAPTURE_RECURSION_LIMIT:
            sys.setrecursionlimit(limit)


def state_digest(root: Any) -> str:
    """SHA-256 digest of the canonical capture of ``root``."""
    text = canonical_json(capture_state(root))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def snapshot_system(system: Any) -> Dict[str, Any]:
    """Digest ``system`` at a quiescent point (outside any run)."""
    sim = system.sim
    return {
        "events": sim.events_dispatched,
        "sim_time": sim.now,
        "digest": state_digest(system),
    }
