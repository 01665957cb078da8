"""Exporters and reports: Chrome trace-event JSON, Prometheus text, tables.

The Chrome/Perfetto exporter is the unification point the paper-style
analysis needs: host spans (real wall time from :mod:`repro.obs.spans`)
and the *simulated* per-rank timelines
(:class:`repro.simmpi.trace.Trace`) are merged into one trace-event file,
as two processes on a shared timeline origin:

* ``pid 0`` ("host") — nested spans, one thread per recording thread
  (the span's lane). Worker-pool tasks are ``exec.<kind>`` spans on
  their worker threads' lanes, with the ``mf.front`` spans of the fronts
  they factor nested under them;
* ``pid 1`` ("sim machine") — one thread per simulated rank, compute /
  send / wait intervals, with message-level comm events as instants when
  requested.

Load the file at ``chrome://tracing`` or https://ui.perfetto.dev. Both
clock domains start at ~0 (host spans are re-based on the earliest span
start), so phases and rank activity line up visually even though one is
wall time and the other simulated time.

The front reports read the ``mf.front`` spans: the top-K hottest fronts
and the measured-vs-modeled GFLOPS comparison against a
:class:`~repro.machine.model.MachineModel` — the instrument behind the
roll-off curves in the paper's figures.

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
    from repro.obs.spans import Span, SpanRecorder
    from repro.simmpi.trace import Trace

__all__ = [
    "HOST_PID",
    "SIM_PID",
    "chrome_trace_events",
    "chrome_trace",
    "write_chrome_trace",
    "validate_trace_events",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "prometheus_text",
    "write_prometheus",
    "render_phase_table",
    "hottest_fronts",
    "render_top_fronts",
    "gflops_comparison",
    "render_gflops_comparison",
    "report",
]

#: trace-event pid of the host span timeline
HOST_PID = 0
#: trace-event pid of the simulated machine (tid = rank)
SIM_PID = 1


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
        t0 = min(s.start for s in recorder.spans)
        for s in recorder.spans:
            events.append(
                {
                    "name": s.name,
                    "cat": "host",
                    "ph": "X",
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.elapsed * 1e6,
                    "pid": HOST_PID,
                    "tid": s.lane,
                    "args": dict(s.attrs),
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


# -- front reports -----------------------------------------------------------


def hottest_fronts(fronts: list[Span], k: int = 10) -> list[Span]:
    """The k hottest ``mf.front`` spans by host seconds (flops tiebreak)."""
    return sorted(
        fronts, key=lambda f: (f.elapsed, f.attrs["flops"]), reverse=True
    )[: max(k, 0)]


def _gflops(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def render_top_fronts(fronts: list[Span], k: int = 10) -> str:
    """Top-K hottest fronts of a recording's ``mf.front`` spans as a table."""
    from repro.util.tables import format_table

    total_s = sum(f.elapsed for f in fronts)
    rows = []
    for f in hottest_fronts(fronts, k):
        a, sec = f.attrs, f.elapsed
        rows.append(
            [
                a["supernode"],
                a["m"],
                a["width"],
                round(a["flops"] / 1e6, 3),
                round(sec * 1e3, 4),
                round(sec / total_s * 100, 1) if total_s > 0 else 0.0,
                round(_gflops(a["flops"], sec), 3),
            ]
        )
    return format_table(
        ["supernode", "front", "width", "Mflop", "host ms", "% time", "GF/s"],
        rows,
        title=f"top-{min(k, len(fronts))} hottest fronts ({len(fronts)} recorded)",
    )


def gflops_comparison(
    fronts: list[Span], machine: MachineModel, threads: int = 1, k: int = 10
) -> list[dict]:
    """Measured vs modeled rate per hot front, plus an ``overall`` row
    (``supernode`` and ``front`` -1).

    Modeled seconds come from the machine model's efficiency curve at the
    front's order — the same charge the simulator applies — so the ratio
    column reads "how much faster/slower the host kernel ran than the
    simulated machine would have".
    """

    def modeled_s(f: Span) -> float:
        return machine.compute_time(f.attrs["flops"], f.attrs["m"], threads=threads)

    def row(supernode: int, front: int, measured: float, modeled: float) -> dict:
        return {
            "supernode": supernode,
            "front": front,
            "measured_gflops": measured,
            "modeled_gflops": modeled,
            "ratio": measured / modeled if modeled > 0 else 0.0,
        }

    rows = [
        row(
            f.attrs["supernode"],
            f.attrs["m"],
            _gflops(f.attrs["flops"], f.elapsed),
            _gflops(f.attrs["flops"], modeled_s(f)),
        )
        for f in hottest_fronts(fronts, k)
    ]
    total_flops = sum(f.attrs["flops"] for f in fronts)
    rows.append(
        row(
            -1,
            -1,
            _gflops(total_flops, sum(f.elapsed for f in fronts)),
            _gflops(total_flops, sum(modeled_s(f) for f in fronts)),
        )
    )
    return rows


def render_gflops_comparison(
    fronts: list[Span], machine: MachineModel, threads: int = 1, k: int = 10
) -> str:
    from repro.util.tables import format_table

    rows = []
    for row in gflops_comparison(fronts, machine, threads=threads, k=k):
        overall = row["supernode"] < 0
        rows.append(
            [
                "overall" if overall else row["supernode"],
                "-" if overall else row["front"],
                round(row["measured_gflops"], 3),
                round(row["modeled_gflops"], 3),
                round(row["ratio"], 3),
            ]
        )
    return format_table(
        ["supernode", "front", "measured GF/s", "modeled GF/s", "ratio"],
        rows,
        title=f"measured vs modeled GFLOPS ({machine.name}, {threads} thread(s))",
    )


def report(
    recorder: SpanRecorder | None = None,
    registry: MetricsRegistry | None = None,
    machine: MachineModel | None = None,
    top_fronts: int = 0,
    threads: int = 1,
) -> str:
    """Combined human-readable observability report."""
    parts: list[str] = []
    if recorder is not None and recorder.spans:
        parts.append(render_phase_table(recorder))
    if registry is not None:
        parts.append(registry.report())
    fronts = recorder.by_name("mf.front") if recorder is not None else []
    if top_fronts > 0 and fronts:
        parts.append(render_top_fronts(fronts, top_fronts))
        if machine is not None:
            parts.append(
                render_gflops_comparison(
                    fronts, machine, threads=threads, k=top_fronts
                )
            )
    return "\n\n".join(parts) if parts else "(nothing recorded)"
