"""Offline analysis of an exported request trace (``repro serve-report``).

Input is the JSONL written by ``repro serve-bench --trace t.jsonl`` (or
:meth:`~repro.serve.tracing.RequestTraceLog.export_jsonl` directly):
one :class:`~repro.serve.tracing.TraceEvent` per line. From the
``done`` events' stage-timing totals and the per-hop events in between,
the report reconstructs:

* the **per-stage latency breakdown** (p50/p95/p99 of queue wait,
  encode, search, escalation RTT and total);
* **critical-path attribution** per percentile band — which stage and
  which node dominated the requests below p50, between p50 and p95,
  between p95 and p99, and above p99 (the "where does my tail come
  from" table);
* the **degradation root-cause table** — degraded answers grouped by
  the ``reason`` recorded on their ``degraded`` event, with an example
  request id each;
* **SLO attainment** against a latency target, split by outcome;
* one full **hop timeline** — a degraded request's when one exists,
  otherwise the slowest request's — rendered event by event.

Everything here is pure post-processing: no asyncio, no registry, just
the trace file. ``repro serve-report`` is the CLI wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.serve.request import STAGES
from repro.serve.tracing import TraceEvent, load_request_trace

__all__ = [
    "RequestSummary",
    "summarize_request",
    "build_report",
    "render_report",
    "render_timeline",
    "serve_report",
]

#: percentile bands of the critical-path table: (label, lo_q, hi_q).
_BANDS: Tuple[Tuple[str, float, float], ...] = (
    ("<p50", 0.0, 50.0),
    ("p50-p95", 50.0, 95.0),
    ("p95-p99", 95.0, 99.0),
    (">p99", 99.0, 100.0),
)

#: events whose ``ms``-like attributes charge wall time to a node.
_NODE_TIME_ATTRS = {
    "hop": "queue_wait_ms",
    "encode": "ms",
    "search": "ms",
    "transit": "ms",
    "backoff": "wait_ms",
    "descend": "ms",
}


@dataclass(frozen=True)
class RequestSummary:
    """One request's timeline reduced to the report's inputs."""

    request_id: int
    outcome: str
    total_ms: float
    stage_ms: Mapping[str, float]
    hops: int
    attempts: int
    deciding_node: int
    degraded_reason: Optional[str]
    #: stage that consumed the largest share of total latency.
    dominant_stage: str
    #: node that accumulated the most charged wall time.
    dominant_node: int


def _node_time(events: List[TraceEvent]) -> Dict[int, float]:
    """Wall time charged to each node across one request's events."""
    charged: Dict[int, float] = {}
    for event in events:
        attr = _NODE_TIME_ATTRS.get(event.event)
        if attr is None:
            continue
        ms = event.attrs.get(attr)
        if ms is None:
            continue
        charged[event.node] = charged.get(event.node, 0.0) + float(ms)
    return charged


def summarize_request(events: List[TraceEvent]) -> Optional[RequestSummary]:
    """Reduce one request's events; None when it never finished."""
    done = next((e for e in events if e.event == "done"), None)
    if done is None:
        return None
    stage_ms = {
        stage: float(done.attrs.get(stage, 0.0)) for stage in STAGES
    }
    dominant_stage = max(stage_ms, key=lambda s: stage_ms[s])
    charged = _node_time(events)
    dominant_node = (
        max(charged, key=lambda n: charged[n]) if charged else done.node
    )
    reason: Optional[str] = None
    for event in events:
        if event.event == "degraded":
            raw = event.attrs.get("reason")
            reason = str(raw) if raw is not None else None
            break
    return RequestSummary(
        request_id=done.request_id,
        outcome=str(done.attrs.get("outcome", "ok")),
        total_ms=float(done.attrs.get("total_ms", done.t_ms)),
        stage_ms=stage_ms,
        hops=int(done.attrs.get("hops", 0)),
        attempts=int(done.attrs.get("attempts", 0)),
        deciding_node=done.node,
        degraded_reason=reason,
        dominant_stage=dominant_stage,
        dominant_node=dominant_node,
    )


def _percentiles(
    values: np.ndarray, qs: Tuple[float, ...] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    if values.size == 0:
        return {f"p{q:g}": 0.0 for q in qs}
    return {f"p{q:g}": float(np.percentile(values, q)) for q in qs}


def _attribution_bands(
    summaries: List[RequestSummary],
) -> List[Dict[str, Any]]:
    """Dominant stage / node per percentile band of total latency."""
    if not summaries:
        return []
    totals = np.asarray([s.total_ms for s in summaries], dtype=np.float64)
    bands: List[Dict[str, Any]] = []
    for label, lo_q, hi_q in _BANDS:
        lo = float(np.percentile(totals, lo_q)) if lo_q > 0 else -np.inf
        hi = float(np.percentile(totals, hi_q)) if hi_q < 100 else np.inf
        members = [s for s in summaries if lo < s.total_ms <= hi] if lo_q > 0 \
            else [s for s in summaries if s.total_ms <= hi]
        if not members:
            bands.append({"band": label, "n": 0})
            continue
        stage_tally: Dict[str, int] = {}
        node_tally: Dict[int, int] = {}
        for s in members:
            stage_tally[s.dominant_stage] = (
                stage_tally.get(s.dominant_stage, 0) + 1
            )
            node_tally[s.dominant_node] = node_tally.get(s.dominant_node, 0) + 1
        top_stage = max(stage_tally, key=lambda k: stage_tally[k])
        top_node = max(node_tally, key=lambda k: node_tally[k])
        bands.append({
            "band": label,
            "n": len(members),
            "range_ms": (
                float(min(s.total_ms for s in members)),
                float(max(s.total_ms for s in members)),
            ),
            "dominant_stage": top_stage,
            "dominant_stage_share": stage_tally[top_stage] / len(members),
            "dominant_node": top_node,
            "dominant_node_share": node_tally[top_node] / len(members),
        })
    return bands


def build_report(
    traces: Mapping[int, List[TraceEvent]],
    slo_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """Compute the full report structure from grouped trace events."""
    summaries = [
        s for s in (summarize_request(evs) for evs in traces.values())
        if s is not None
    ]
    summaries.sort(key=lambda s: s.request_id)
    totals = np.asarray([s.total_ms for s in summaries], dtype=np.float64)
    stage_breakdown = {
        stage: _percentiles(np.asarray(
            [s.stage_ms[stage] for s in summaries], dtype=np.float64
        ))
        for stage in STAGES
    }
    stage_breakdown["total_ms"] = _percentiles(totals)
    outcomes: Dict[str, int] = {}
    for s in summaries:
        outcomes[s.outcome] = outcomes.get(s.outcome, 0) + 1
    root_causes: Dict[str, Dict[str, Any]] = {}
    for s in summaries:
        if s.outcome != "degraded":
            continue
        reason = s.degraded_reason or "unknown"
        entry = root_causes.setdefault(
            reason, {"n": 0, "example": s.request_id}
        )
        entry["n"] += 1
    slo: Optional[Dict[str, Any]] = None
    if slo_ms is not None:
        within = [s for s in summaries if s.total_ms <= slo_ms]
        violators: Dict[str, int] = {}
        for s in summaries:
            if s.total_ms > slo_ms:
                violators[s.outcome] = violators.get(s.outcome, 0) + 1
        slo = {
            "slo_ms": float(slo_ms),
            "n_within": len(within),
            "n_total": len(summaries),
            "attainment": (
                len(within) / len(summaries) if summaries else 0.0
            ),
            "violations_by_outcome": violators,
        }
    return {
        "n_requests": len(traces),
        "n_finished": len(summaries),
        "outcomes": outcomes,
        "stage_breakdown": stage_breakdown,
        "bands": _attribution_bands(summaries),
        "root_causes": root_causes,
        "slo": slo,
        "summaries": summaries,
    }


def _short_stage(stage: str) -> str:
    return stage[:-3] if stage.endswith("_ms") else stage


def render_timeline(events: List[TraceEvent]) -> str:
    """One request's events as an aligned when/what/where table."""
    lines = [f"  {'t_ms':>10}  {'event':<10} {'node':>4}  detail"]
    for event in sorted(events, key=lambda e: e.seq):
        detail = ", ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in event.attrs.items()
        )
        lines.append(
            f"  {event.t_ms:>10.3f}  {event.event:<10} {event.node:>4}  "
            f"{detail}"
        )
    return "\n".join(lines)


def _pick_example(
    traces: Mapping[int, List[TraceEvent]],
    summaries: List[RequestSummary],
    request_id: Optional[int] = None,
) -> Optional[RequestSummary]:
    """An explicit request, else a degraded one, else the slowest."""
    if request_id is not None:
        return next(
            (s for s in summaries if s.request_id == request_id), None
        )
    degraded = [s for s in summaries if s.outcome == "degraded"]
    pool = degraded or summaries
    if not pool:
        return None
    return max(pool, key=lambda s: s.total_ms)


def render_report(
    traces: Mapping[int, List[TraceEvent]],
    slo_ms: Optional[float] = None,
    request_id: Optional[int] = None,
) -> str:
    """Render the full ``serve-report`` text from grouped events."""
    report = build_report(traces, slo_ms=slo_ms)
    summaries: List[RequestSummary] = report["summaries"]
    outcome_txt = ", ".join(
        f"{kind} {n}" for kind, n in sorted(report["outcomes"].items())
    ) or "none"
    lines = [
        f"serve-report: {report['n_requests']} requests traced, "
        f"{report['n_finished']} finished ({outcome_txt})",
        "",
        "per-stage latency breakdown (ms):",
        f"  {'stage':<16} {'p50':>9} {'p95':>9} {'p99':>9}",
    ]
    for stage, pct in report["stage_breakdown"].items():
        lines.append(
            f"  {_short_stage(stage):<16} {pct['p50']:>9.3f} "
            f"{pct['p95']:>9.3f} {pct['p99']:>9.3f}"
        )
    lines += [
        "",
        "critical-path attribution by percentile band:",
        f"  {'band':<8} {'reqs':>5}  {'range (ms)':<19} "
        f"{'dominant stage':<22} {'dominant node':<13}",
    ]
    for band in report["bands"]:
        if not band.get("n"):
            lines.append(f"  {band['band']:<8} {0:>5}  (empty)")
            continue
        lo, hi = band["range_ms"]
        lines.append(
            f"  {band['band']:<8} {band['n']:>5}  "
            f"{lo:>8.3f}-{hi:<9.3f} "
            f"{_short_stage(band['dominant_stage']):<15} "
            f"({band['dominant_stage_share']:>4.0%})  "
            f"node {band['dominant_node']} "
            f"({band['dominant_node_share']:.0%})"
        )
    if report["root_causes"]:
        lines += [
            "",
            "degradation root causes:",
            f"  {'reason':<22} {'requests':>8}  example",
        ]
        for reason, entry in sorted(report["root_causes"].items()):
            lines.append(
                f"  {reason:<22} {entry['n']:>8}  #{entry['example']}"
            )
    if report["slo"] is not None:
        slo = report["slo"]
        lines += [
            "",
            f"SLO attainment (<= {slo['slo_ms']:g} ms): "
            f"{slo['attainment']:.1%} "
            f"({slo['n_within']}/{slo['n_total']} within target)",
        ]
        if slo["violations_by_outcome"]:
            parts = ", ".join(
                f"{kind} {n}"
                for kind, n in sorted(slo["violations_by_outcome"].items())
            )
            lines.append(f"  violations by outcome: {parts}")
    example = _pick_example(traces, summaries, request_id=request_id)
    if example is not None:
        lines += [
            "",
            f"request #{example.request_id} timeline "
            f"({example.outcome}, {example.total_ms:.3f} ms, "
            f"{example.hops} hops, {example.attempts} attempts):",
            render_timeline(traces[example.request_id]),
        ]
    elif request_id is not None:
        lines += ["", f"request #{request_id}: not found in trace"]
    return "\n".join(lines)


def serve_report(
    path: Union[str, Path],
    slo_ms: Optional[float] = None,
    request_id: Optional[int] = None,
) -> str:
    """Load a trace file and render the report (the CLI entry point)."""
    return render_report(
        load_request_trace(path), slo_ms=slo_ms, request_id=request_id
    )
