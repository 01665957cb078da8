"""Exporters: Chrome trace-event JSON, Prometheus text, human report.

The Chrome/Perfetto exporter is the unification point the paper-style
analysis needs: host phase spans (real wall time from
:mod:`repro.obs.spans`) and the *simulated* per-rank timelines
(:class:`repro.simmpi.trace.Trace`) are merged into one trace-event file,
as two processes on a shared timeline origin:

* ``pid 0`` ("host") — nested phase spans, one thread per recording
  thread (the span's lane);
* ``pid 1`` ("sim machine") — one thread per simulated rank, compute /
  send / wait intervals, with message-level comm events as instants when
  requested.

Load the file at ``chrome://tracing`` or https://ui.perfetto.dev. Both
clock domains start at ~0 (host spans are re-based on the recorder's
first start), so phases and rank activity line up visually even though
one is wall time and the other simulated time.

The Prometheus exposition covers the metrics registry (counters, gauges,
fixed-bucket histograms) in the standard ``# TYPE`` / ``_bucket{le=...}``
text format; :func:`report` renders the human summary used by
``repro.cli obs``.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any

from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import MachineModel
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder
    from repro.simmpi.trace import Trace

__all__ = [
    "HOST_PID",
    "SIM_PID",
    "EXEC_PID",
    "chrome_trace_events",
    "chrome_trace",
    "write_chrome_trace",
    "validate_trace_events",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "prometheus_text",
    "write_prometheus",
    "render_phase_table",
    "report",
]

#: trace-event pid of the host span timeline
HOST_PID = 0
#: trace-event pid of the simulated machine (tid = rank)
SIM_PID = 1
#: trace-event pid of the shared-memory execution backend (tid = worker)
EXEC_PID = 2


def _meta(name: str, pid: int, args: dict, tid: int = 0) -> dict:
    return {
        "name": name,
        "ph": "M",
        "ts": 0.0,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def chrome_trace_events(
    recorder: SpanRecorder | None = None,
    sim_trace: Trace | None = None,
    include_comm: bool = False,
) -> list[dict]:
    """Merged trace-event list (host spans + simulated rank timelines).

    Events are sorted by timestamp (metadata first at ts 0), timestamps
    in microseconds as the trace-event format requires.
    """
    events: list[dict] = []
    if recorder is not None and recorder.spans:
        events.append(_meta("process_name", HOST_PID, {"name": "host"}))
        for lane in sorted({s.lane for s in recorder.spans}):
            events.append(
                _meta("thread_name", HOST_PID, {"name": f"lane {lane}"}, tid=lane)
            )
        t0 = recorder.t0
        if t0 is None:
            t0 = min(s.start for s in recorder.spans)
        for s in recorder.spans:
            events.append(
                {
                    "name": s.name,
                    "cat": "host",
                    "ph": "X",
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": HOST_PID,
                    "tid": s.lane,
                    "args": dict(s.attrs),
                }
            )
    if recorder is not None and recorder.exec_events:
        # Real worker-thread concurrency from repro.exec: one row per
        # worker, same wall-clock origin as the host phase spans, so task
        # bars visibly overlap under the enclosing exec.* span.
        events.append(_meta("process_name", EXEC_PID, {"name": "exec workers"}))
        t0 = recorder.t0
        if t0 is None:
            t0 = min(e.start for e in recorder.exec_events)
        workers = sorted({e.worker for e in recorder.exec_events})
        for w in workers:
            events.append(
                _meta("thread_name", EXEC_PID, {"name": f"worker {w}"}, tid=w)
            )
        for e in recorder.exec_events:
            events.append(
                {
                    "name": e.name,
                    "cat": "exec",
                    "ph": "X",
                    "ts": (e.start - t0) * 1e6,
                    "dur": e.duration * 1e6,
                    "pid": EXEC_PID,
                    "tid": e.worker,
                    "args": {},
                }
            )
    if sim_trace is not None and sim_trace.events:
        events.append(_meta("process_name", SIM_PID, {"name": "sim machine"}))
        ranks = sorted({e.rank for e in sim_trace.events})
        for r in ranks:
            events.append(
                _meta("thread_name", SIM_PID, {"name": f"rank {r}"}, tid=r)
            )
        for e in sim_trace.events:
            events.append(
                {
                    "name": e.kind,
                    "cat": "sim",
                    "ph": "X",
                    "ts": e.start * 1e6,
                    "dur": e.duration * 1e6,
                    "pid": SIM_PID,
                    "tid": e.rank,
                    "args": {"detail": e.detail},
                }
            )
        if include_comm:
            for c in sim_trace.comm:
                events.append(
                    {
                        "name": f"{c.kind} {c.tag}",
                        "cat": "comm",
                        "ph": "i",
                        "s": "t",
                        "ts": c.time * 1e6,
                        "pid": SIM_PID,
                        "tid": c.rank,
                        "args": {"peer": c.peer, "nbytes": c.nbytes},
                    }
                )
    events.sort(key=lambda ev: (ev["ts"], ev["pid"], ev["tid"]))
    return events


def chrome_trace(
    recorder: SpanRecorder | None = None,
    sim_trace: Trace | None = None,
    include_comm: bool = False,
) -> dict:
    """The full trace-event JSON object (``traceEvents`` container form)."""
    return {
        "traceEvents": chrome_trace_events(
            recorder, sim_trace, include_comm=include_comm
        ),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    path: str,
    recorder: SpanRecorder | None = None,
    sim_trace: Trace | None = None,
    include_comm: bool = False,
) -> dict:
    """Validate and write the merged trace; returns the written object."""
    obj = chrome_trace(recorder, sim_trace, include_comm=include_comm)
    validate_chrome_trace(obj)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp)
    return obj


# -- validation --------------------------------------------------------------

_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_trace_events(events: Any) -> list[str]:
    """Structural problems of a trace-event list (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(events, list):
        return [f"traceEvents must be a list, got {type(events).__name__}"]
    last_ts = float("-inf")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [k for k in _REQUIRED_KEYS if k not in ev]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: ts must be a non-negative number, got {ts!r}")
            continue
        if ts < last_ts:
            problems.append(
                f"event {i}: ts {ts} not monotone (previous {last_ts})"
            )
        last_ts = ts
        if ev["ph"] == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i}: complete event needs non-negative dur, got {dur!r}"
                )
        if not isinstance(ev["pid"], int) or not isinstance(ev["tid"], int):
            problems.append(f"event {i}: pid/tid must be integers")
    return problems


def validate_chrome_trace(obj: Any) -> None:
    """Raise :class:`~repro.util.errors.ReproError` on an invalid trace."""
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ReproError("chrome trace must be an object with 'traceEvents'")
    problems = validate_trace_events(obj["traceEvents"])
    if problems:
        head = "; ".join(problems[:5])
        raise ReproError(
            f"invalid trace-event JSON ({len(problems)} problem(s)): {head}"
        )


def validate_chrome_trace_file(path: str) -> dict:
    """Load, validate, and return a trace file (CI gate)."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}: not valid JSON: {exc}") from exc
    validate_chrome_trace(obj)
    return obj


# -- Prometheus text exposition ----------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(prefix: str, name: str) -> str:
    return _NAME_SANITIZE.sub("_", f"{prefix}_{name}" if prefix else name)


def _prom_num(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Prometheus text exposition of a metrics registry."""
    lines: list[str] = []
    for name, value in registry.counter_values().items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_num(value)}")
    for name, value in registry.gauge_values().items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_num(value)}")
    for name, hist in sorted(registry.histograms().items()):
        metric = _prom_name(prefix, name)
        snap = hist.snapshot()
        lines.append(f"# TYPE {metric} histogram")
        cum = snap.cumulative()
        for upper, running in zip(snap.uppers, cum):
            lines.append(
                f'{metric}_bucket{{le="{_prom_num(upper)}"}} {running}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cum[-1]}')
        lines.append(f"{metric}_sum {_prom_num(snap.sum)}")
        lines.append(f"{metric}_count {snap.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: str, registry: MetricsRegistry, prefix: str = "repro"
) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(prometheus_text(registry, prefix=prefix))


# -- human report ------------------------------------------------------------


def render_phase_table(recorder: SpanRecorder, title: str = "host phases") -> str:
    """Per-phase count/total/mean table from recorded spans."""
    from repro.util.tables import format_table

    rows = []
    for name, (count, total) in recorder.phase_totals().items():
        rows.append(
            [
                name,
                count,
                round(total * 1e3, 3),
                round(total / count * 1e3, 3),
            ]
        )
    return format_table(
        ["span", "count", "total ms", "mean ms"], rows, title=title
    )


def report(
    recorder: SpanRecorder | None = None,
    registry: MetricsRegistry | None = None,
    machine: MachineModel | None = None,
    top_fronts: int = 0,
    threads: int = 1,
) -> str:
    """Combined human-readable observability report."""
    from repro.obs.profile import render_gflops_comparison, render_top_fronts

    parts: list[str] = []
    if recorder is not None and recorder.spans:
        parts.append(render_phase_table(recorder))
    if registry is not None:
        parts.append(registry.report())
    if recorder is not None and top_fronts > 0 and recorder.profile.host:
        parts.append(render_top_fronts(recorder.profile, top_fronts))
        if machine is not None:
            parts.append(
                render_gflops_comparison(
                    recorder.profile, machine, threads=threads, k=top_fronts
                )
            )
    return "\n\n".join(parts) if parts else "(nothing recorded)"
