"""Exporters: Chrome-trace-event JSON (Perfetto-loadable) and breakdowns.

The Chrome trace event format (the JSON flavour Perfetto and
``chrome://tracing`` both load) renders each simulated unit (one
experiment cell) as a *process*, each simulated thread as a *track*, each
miss span as a complete (``ph: "X"``) slice with its typed events nested
beneath it, and component instants (``ph: "i"``) on a per-unit events
track.  Timestamps are microseconds in the format; the simulator's
nanoseconds are divided by 1000 (floats carry the sub-microsecond part).

:func:`span_breakdown` turns recorded spans into the measured Fig. 3 /
Fig. 11 per-phase analogue, a :class:`PhaseBreakdown`.  Every kernel
phase an OS fault charges lands in its miss span, so the spans are the
one record of where a miss spent its time: fig03 reads its per-phase
totals from them, and ``--trace`` prints the same breakdown per path.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.trace import MissSpan, TraceSink

_NS_PER_US = 1000.0

#: Events-track tid used for instants within each unit.
_INSTANT_TID = 0


def chrome_trace(sink: TraceSink) -> Dict[str, Any]:
    """Render the sink's spans and instants as a Chrome trace-event dict."""
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}

    def pid_of(unit: str) -> int:
        pid = pids.get(unit)
        if pid is None:
            pid = pids[unit] = len(pids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": unit},
                }
            )
        return pid

    def tid_of(unit: str, thread: str) -> int:
        pid = pid_of(unit)
        key = (unit, thread)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = sum(1 for u, _ in tids if u == unit) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        return tid

    for span in sink.spans:
        pid = pid_of(span.unit)
        tid = tid_of(span.unit, span.thread)
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "outcome": span.outcome,
            "pfn": span.pfn,
        }
        args.update(span.attrs)
        events.append(
            {
                "ph": "X",
                "name": f"miss:{span.path}",
                "cat": span.path,
                "ts": span.start_ns / _NS_PER_US,
                "dur": span.duration_ns / _NS_PER_US,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for time_ns, name, duration_ns in span.events:
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": span.path,
                    "ts": time_ns / _NS_PER_US,
                    "dur": duration_ns / _NS_PER_US,
                    "pid": pid,
                    "tid": tid,
                    "args": {"span_id": span.span_id},
                }
            )

    for instant in sink.instants:
        events.append(
            {
                "ph": "i",
                "name": instant.name,
                "cat": "component",
                "ts": instant.time_ns / _NS_PER_US,
                "pid": pid_of(instant.unit),
                "tid": _INSTANT_TID,
                "s": "t",
                "args": dict(instant.args),
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.obs",
            "units": list(sink.units),
            "span_count": len(sink.spans),
            "instant_count": len(sink.instants),
        },
    }


def write_chrome_trace(sink: TraceSink, path: str) -> Dict[str, Any]:
    """Write the Perfetto-loadable JSON to ``path``; returns the dict."""
    data = chrome_trace(sink)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return data


# ----------------------------------------------------------------------
# run-journal timelines (host-side supervision events)
# ----------------------------------------------------------------------
def run_timeline(state: Any) -> Dict[str, Any]:
    """Render a replayed run journal (:class:`repro.experiments.journal.RunState`)
    as a Chrome trace: one track per worker, one slice per cell attempt
    (``dispatched`` → ``done``/``failed``/``timeout``), one instant per
    supervision note (worker deaths, signals, resumes, warm-prefix events).

    This is the *host* timeline — wall-clock seconds since the run header,
    scaled to trace microseconds — and deliberately lives in a separate
    file from the simulated-time miss traces: the two time bases must
    never share an export.
    """
    origin = state.started_ts or 0.0
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": f"run {state.run_id}"},
        }
    ]
    tids: Dict[str, int] = {}

    def tid_of(worker: str) -> int:
        tid = tids.get(worker)
        if tid is None:
            tid = tids[worker] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": worker},
                }
            )
        return tid

    def rel_us(ts: Any) -> float:
        return (float(ts) - origin) * 1e6 if isinstance(ts, (int, float)) else 0.0

    open_attempts: Dict[tuple, Dict[str, Any]] = {}
    for record in state.records:
        kind = record.get("t")
        if kind == "cell":
            slot = (record.get("experiment"), record.get("key"), record.get("attempt"))
            if record.get("state") == "dispatched":
                open_attempts[slot] = record
            elif slot in open_attempts:
                start = open_attempts.pop(slot)
                ts = rel_us(start.get("ts"))
                events.append(
                    {
                        "ph": "X",
                        "name": f"{record.get('experiment')}#{str(record.get('key'))[:8]}",
                        "cat": record.get("state"),
                        "ts": ts,
                        "dur": max(0.0, rel_us(record.get("ts")) - ts),
                        "pid": 1,
                        "tid": tid_of(start.get("worker", "w?")),
                        "args": {
                            "state": record.get("state"),
                            "attempt": record.get("attempt"),
                            "error": record.get("error"),
                        },
                    }
                )
        elif kind == "note":
            events.append(
                {
                    "ph": "i",
                    "name": record.get("name", "note"),
                    "cat": "supervision",
                    "ts": rel_us(record.get("ts")),
                    "pid": 1,
                    "tid": _INSTANT_TID,
                    "s": "t",
                    "args": {
                        k: v
                        for k, v in record.items()
                        if k not in ("t", "ts", "name")
                    },
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.experiments.journal",
            "run_id": state.run_id,
            "attempts_open_at_export": len(open_attempts),
        },
    }


def write_run_timeline(state: Any, path: str) -> Dict[str, Any]:
    """Write a run journal's host timeline as Chrome-trace JSON."""
    data = run_timeline(state)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return data


# ----------------------------------------------------------------------
# schema validation (tests and the CI smoke step use this)
# ----------------------------------------------------------------------
_PHASES = {"X", "i", "M", "B", "E"}


def validate_chrome_trace(data: Any) -> List[str]:
    """Validate the exported dict against the trace-event format.

    Returns a list of problems — empty means the trace is well-formed
    (top-level object with a ``traceEvents`` list; every event has a
    ``ph``/``name``/``pid``/``tid``; timed events carry numeric ``ts`` and
    ``X`` events a non-negative ``dur``).
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unknown ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field}")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing numeric ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs non-negative dur")
    return problems


# ----------------------------------------------------------------------
# measured latency breakdowns (the Fig. 3 / Fig. 11 analogue)
# ----------------------------------------------------------------------
@dataclass
class PhaseBreakdown:
    """Aggregated per-phase costs: total ns and occurrence count by name."""

    totals_ns: Dict[str, float]
    counts: Dict[str, int]

    @property
    def total_ns(self) -> float:
        return sum(self.totals_ns.values())

    def mean_ns(self, phase: str) -> float:
        count = self.counts.get(phase, 0)
        return self.totals_ns.get(phase, 0.0) / count if count else 0.0

    def fraction(self, phase: str) -> float:
        total = self.total_ns
        return self.totals_ns.get(phase, 0.0) / total if total else 0.0

    def to_text(self, title: str = "kernel phase breakdown") -> str:
        lines = [f"== {title} =="]
        width = max((len(name) for name in self.totals_ns), default=10)
        for phase, total in sorted(
            self.totals_ns.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"{phase:{width}s}  total {total:12,.0f} ns  "
                f"x{self.counts[phase]:<6d} mean {self.mean_ns(phase):9,.1f} ns  "
                f"{100 * self.fraction(phase):5.1f}%"
            )
        lines.append(f"{'TOTAL':{width}s}  total {self.total_ns:12,.0f} ns")
        return "\n".join(lines)


def span_breakdown(
    spans: Iterable[MissSpan], path: Optional[str] = None
) -> PhaseBreakdown:
    """Aggregate span events into a per-phase breakdown.

    Filters to one lifecycle ``path`` when given; zero-duration marker
    events contribute counts but no time.  Phases appear in the order
    they first occur, and each total sums its durations in span order.
    """
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        if path is not None and span.path != path:
            continue
        for _, name, duration in span.events:
            totals[name] += duration
            counts[name] += 1
    return PhaseBreakdown(dict(totals), dict(counts))


def breakdown_report(sink: TraceSink) -> str:
    """Per-path latency-breakdown text report for every recorded path."""
    lines: List[str] = []
    paths = sorted({span.path for span in sink.spans})
    for span_path in paths:
        spans = sink.spans_by_path(span_path)
        closed = [span for span in spans if span.closed]
        breakdown = span_breakdown(spans)
        lines.append(
            breakdown.to_text(
                f"{span_path}: {len(spans)} spans, "
                f"mean {sum(s.duration_ns for s in closed) / len(closed):,.0f} ns"
                if closed
                else f"{span_path}: {len(spans)} spans"
            )
        )
        lines.append("")
    if not paths:
        lines.append("(no spans recorded)")
    return "\n".join(lines).rstrip()
