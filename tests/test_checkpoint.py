"""State digests: canonical capture and cross-process determinism.

The heart of the suite is the fresh-process property test: step a
scenario to an arbitrary event boundary N, take the full canonical state
digest there, resume the run to completion, and require a brand-new
interpreter doing the same to reproduce both the digest at N and the
*entire final machine state* — the full digest plus kernel counters and
device tallies.  All four paging paths are covered (osdp, swdp, hwdp, and
hwdp forced onto its queue-empty fallback route), each with an active
fault plan, so determinism is proven under injected storage errors, not
just on the happy path.  This is the oracle the warm-start executor's
prefix digests rest on.

When executed as a script (``python -m tests.test_checkpoint <path>
<events>``) the module becomes the fresh-process driver the property test
spawns.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PagingMode
from repro.mem.address import PAGE_SHIFT
from repro.sim.checkpoint import (
    canonical_json,
    capture_state,
    snapshot_system,
    state_digest,
)
from repro.faults import read_error_plan
from tests.helpers import build_mapped_system

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Fixed post-completion drain horizon; both legs run it identically.
_DRAIN_NS = 500_000.0

#: The four paging paths of the property test.  ``hwdp-fallback``
#: starves the free-page queue (tiny depth, no kpoold) so misses route
#: through the SMU's OS-fallback exception path.
PATHS = {
    "osdp": {"mode": PagingMode.OSDP, "kwargs": {}},
    "swdp": {"mode": PagingMode.SWDP, "kwargs": {}},
    "hwdp": {"mode": PagingMode.HWDP, "kwargs": {}},
    "hwdp-fallback": {
        "mode": PagingMode.HWDP,
        "kwargs": {"free_queue_depth": 16, "kpoold_enabled": False},
    },
}


def build_scenario(path: str):
    """One deterministic mid-size run: mapped file, mixed access pattern,
    reclaim pressure on the fallback path, injected read errors throughout."""
    info = PATHS[path]
    system, thread, vma = build_mapped_system(
        info["mode"],
        file_pages=96,
        fault_plan=read_error_plan(0.1, name=f"ckpt-{path}"),
        **info["kwargs"],
    )

    def body():
        pages = list(range(48)) + [3, 9, 3, 27, 81, 9] + list(range(48, 96, 3))
        for index in pages:
            write = index % 7 == 0
            yield from thread.mem_access(vma.start + (index << PAGE_SHIFT), write)
            yield from thread.compute(500)

    proc = system.spawn(body(), "ckpt-workload")
    return system, proc


def _step_until(sim, done, what: str) -> None:
    while not done():
        if not sim.step():
            raise RuntimeError(f"{what}: event queue drained")


def _end_state(system) -> dict:
    """Canonical end-state record: full digest + the visible metrics."""
    return {
        "digest": state_digest(system),
        "events": system.sim.events_dispatched,
        "now": system.sim.now,
        "counters": system.kernel.counters.as_dict(),
        "device_reads": system.device.reads_completed,
    }


def _complete(system, proc) -> None:
    _step_until(system.sim, lambda: proc.finished, "workload")
    system.sim.run(until=system.sim.now + _DRAIN_NS)


_WORKLOAD_EVENTS: dict = {}


def workload_events(path: str) -> int:
    """Events ``path``'s scenario dispatches until its workload finishes."""
    if path not in _WORKLOAD_EVENTS:
        system, proc = build_scenario(path)
        _step_until(system.sim, lambda: proc.finished, path)
        _WORKLOAD_EVENTS[path] = system.sim.events_dispatched
    return _WORKLOAD_EVENTS[path]


def run_through_boundary(path: str, events: int) -> str:
    """Step to event boundary ``events``, digest the state there, resume
    the run to completion; return both as one canonical record."""
    system, proc = build_scenario(path)
    sim = system.sim
    _step_until(sim, lambda: sim.events_dispatched >= events, f"{path}@{events}")
    boundary = state_digest(system)
    _complete(system, proc)
    return canonical_json(
        {"boundary": {"events": events, "digest": boundary}, "end": _end_state(system)}
    )


# ----------------------------------------------------------------------
# canonical capture
# ----------------------------------------------------------------------
class TestCapture:
    def test_primitives_round_trip(self):
        value = {"a": [1, 2.5, "x", None, True], "b": (3, b"\x00\xff")}
        text = canonical_json(capture_state(value))
        assert json.loads(text)  # valid JSON
        assert canonical_json(capture_state(value)) == text

    def test_dict_insertion_order_is_state(self):
        # OrderedDict LRU lists make entry order semantic; the capture
        # must distinguish the same mapping in different orders.
        forward = {"a": 1, "b": 2}
        backward = {"b": 2, "a": 1}
        assert capture_state(forward) != capture_state(backward)

    def test_shared_reference_vs_copies(self):
        shared = [1, 2]
        assert capture_state([shared, shared]) != capture_state(
            [[1, 2], [1, 2]]
        )

    def test_cycles_terminate(self):
        node = {}
        node["self"] = node
        capture_state(node)  # must not recurse forever

    def test_set_capture_is_order_independent(self):
        a = {"x", "y", "z", 3, 1.5}
        b = set(list(a))
        assert capture_state(a) == capture_state(b)

    def test_numpy_rng_state_captured(self):
        rng = np.random.default_rng(7)
        before = state_digest(rng)
        rng.random()
        assert state_digest(rng) != before
        fresh = np.random.default_rng(7)
        assert state_digest(fresh) == before

    def test_generator_frame_captured(self):
        def gen():
            x = 0
            while True:
                x += 1
                yield x

        g1, g2 = gen(), gen()
        next(g1)
        next(g2)
        assert state_digest(g1) == state_digest(g2)
        next(g1)
        assert state_digest(g1) != state_digest(g2)


# ----------------------------------------------------------------------
# boundary digests in one process
# ----------------------------------------------------------------------
class TestBoundaryDigest:
    def test_digest_does_not_perturb_the_run(self):
        # Warm-start prefixes are digested before their cells fork from
        # them, so taking a digest must leave the simulation untouched.
        system, proc = build_scenario("hwdp")
        _complete(system, proc)
        digested = json.loads(run_through_boundary("hwdp", workload_events("hwdp") // 2))
        assert digested["end"] == _end_state(system)

    def test_digest_commits_to_the_boundary(self):
        middle = workload_events("osdp") // 2
        first = json.loads(run_through_boundary("osdp", middle))
        again = json.loads(run_through_boundary("osdp", middle))
        later = json.loads(run_through_boundary("osdp", middle + 1))
        assert first == again
        assert later["boundary"]["digest"] != first["boundary"]["digest"]
        assert later["end"] == first["end"]

    def test_snapshot_system_is_a_plain_record(self):
        system, proc = build_scenario("swdp")
        _complete(system, proc)
        snap = snapshot_system(system)
        assert snap == {
            "events": system.sim.events_dispatched,
            "sim_time": system.sim.now,
            "digest": state_digest(system),
        }
        assert json.loads(json.dumps(snap)) == snap


# ----------------------------------------------------------------------
# the fresh-process property
# ----------------------------------------------------------------------
def _fresh_process(path: str, events: int) -> str:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(_REPO_ROOT), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "tests.test_checkpoint", path, str(events)],
        cwd=_REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


class TestFreshProcessResume:
    """Digest at an arbitrary boundary, resume, and repeat in a new interpreter."""

    @given(
        path=st.sampled_from(sorted(PATHS)),
        pick=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_resume_completion_byte_identical(self, path, pick):
        events = 1 + pick % (workload_events(path) - 1)
        assert _fresh_process(path, events) == run_through_boundary(path, events)

    def test_every_path_resumes(self):
        # Deterministic sweep: one late boundary per paging path, so a
        # path-specific regression cannot hide behind hypothesis sampling.
        for path in sorted(PATHS):
            events = workload_events(path) * 3 // 4
            expected = run_through_boundary(path, events)
            assert _fresh_process(path, events) == expected, f"{path}: diverged"


if __name__ == "__main__":
    # Fresh-process driver (see TestFreshProcessResume).
    print(run_through_boundary(sys.argv[1], int(sys.argv[2])))
