"""Request-level tracing for the serving runtime.

A :class:`TraceContext` rides on every
:class:`~repro.serve.request.ServeRequest` when observability is
enabled: it carries the request id, the hop path (node ids visited) and
a cumulative transmission-attempt counter, and accumulates
:class:`TraceEvent` records for every stage the request passes —
admission, queue wait, batch formation, encode, associative search,
escalation transit, retry/backoff, answer descent and degradation.
Because the *same* request object travels through node inboxes and
escalation bundles, propagation is by construction: every hop appends
to the one context, and a single request's end-to-end causal timeline
is reconstructable from its event list alone.

Event kinds and the stage they witness:

==================  ====================================================
``admitted``        request entered its start leaf's inbox
``hop``             micro-batch formed at a node (queue wait, batch size,
                    ``landed_ms``: when the request entered the inbox)
``encode``          cohort encode at a node (batch wall time)
``search``          associative search at a node (batch wall time)
``decide``          a decision-capable node recorded (answer / escalate)
``escalate``        uplink transmission attempt on a (child, parent) edge
``transit``         uplink transfer completed (simulated wire time)
``drop``            fault injection dropped this request's send
``timeout``         ack / hop timeout fired for this request
``backoff``         retry backoff wait before the next attempt
``retry``           request retransmitted after a failed attempt
``shed``            backpressure shed (admission or escalation)
``corrupt``         fault injection damaged this request's payload
``degraded``        answered in degraded mode (``reason`` attribute)
``descend``         answer descent over the charged escalation path
``done``            terminal response (outcome + stage timing totals)
==================  ====================================================

Timestamps are milliseconds since the serving run started. The
telemetry time-series (queue depth, in-flight, batch size, fault
counters per node) are not recorded beside the trace but replayed from
it: :meth:`RequestTraceLog.telemetry`.
Event *sequences* are seed-deterministic under a
:class:`~repro.serve.faults.FaultPlan` (fault decisions derive from
structural tags); timestamps and batch sizes are not — comparisons must
use :func:`semantic_timeline`.

The fault kinds (:data:`FAULT_EVENTS`) are the run's post-mortem
evidence — *why* a request degraded, not just that it did — and are
recorded nowhere else; :meth:`RequestTraceLog.faults` is the view over
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.obs.ring import Ring, read_jsonl
from repro.obs.telemetry import TelemetryLog

__all__ = [
    "TraceEvent",
    "TraceContext",
    "RequestTraceLog",
    "load_request_trace",
    "semantic_timeline",
]

#: event kinds that are seed-deterministic (timing-independent): the
#: causal skeleton two same-seed chaos runs must agree on.
SEMANTIC_EVENTS = (
    "admitted",
    "escalate",
    "drop",
    "timeout",
    "retry",
    "shed",
    "degraded",
    "done",
)

#: event kinds that witness a fault — the live counterparts of the
#: paper's Fig. 12 failure mechanisms (DESIGN §4g).
FAULT_EVENTS = ("drop", "timeout", "shed", "corrupt", "degraded")


def _integer(data: Mapping[str, Any], key: str, default: Optional[int] = None) -> int:
    value = data[key] if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One step of one request's causal timeline."""

    request_id: int
    seq: int
    t_ms: float
    event: str
    node: int = -1
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request": self.request_id,
            "seq": self.seq,
            "t_ms": self.t_ms,
            "event": self.event,
            "node": self.node,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """The inverse of :meth:`to_dict`; a field of the wrong type
        (a float or bool id, a non-finite time) raises ``ValueError``."""
        t_ms = data["t_ms"]
        if isinstance(t_ms, bool) or not isinstance(t_ms, (int, float)) \
                or not math.isfinite(t_ms):
            raise ValueError(f"'t_ms' must be a finite number, got {t_ms!r}")
        event = data["event"]
        if not isinstance(event, str):
            raise ValueError(f"'event' must be a string, got {event!r}")
        attrs = data.get("attrs") or {}
        if not isinstance(attrs, dict):
            raise ValueError(f"'attrs' must be an object, got {attrs!r}")
        return cls(
            request_id=_integer(data, "request"),
            seq=_integer(data, "seq"),
            t_ms=float(t_ms),
            event=event,
            node=_integer(data, "node", -1),
            attrs=dict(attrs),
        )


class TraceContext:
    """Per-request trace state carried on a ``ServeRequest``.

    Mutable on purpose: the request object (and hence this context)
    travels through queues and escalation bundles, so every hop appends
    to one shared timeline.
    """

    __slots__ = (
        "request_id", "hop_path", "attempts", "landed_ms", "events", "_seq"
    )

    def __init__(self, request_id: int) -> None:
        self.request_id = int(request_id)
        #: node ids visited, in order (the hop path).
        self.hop_path: List[int] = []
        #: cumulative uplink transmission attempts across all edges.
        self.attempts = 0
        #: when the request last entered a node inbox (trace clock);
        #: the next ``hop`` event carries it.
        self.landed_ms = 0.0
        self.events: List[TraceEvent] = []
        self._seq = 0

    def emit(
        self, event: str, t_ms: float, node: int = -1, **attrs: Any
    ) -> TraceEvent:
        """Append one event to the timeline."""
        record = TraceEvent(
            request_id=self.request_id,
            seq=self._seq,
            t_ms=float(t_ms),
            event=event,
            node=int(node),
            attrs=attrs,
        )
        self._seq += 1
        self.events.append(record)
        return record

    def visit(self, node: int) -> None:
        """Record a hop onto ``node`` (deduplicates immediate repeats)."""
        if not self.hop_path or self.hop_path[-1] != node:
            self.hop_path.append(int(node))


def _by_request(events: Iterable[TraceEvent]) -> Dict[int, List[TraceEvent]]:
    """Events grouped by request id, each list in seq order."""
    grouped: Dict[int, List[TraceEvent]] = {}
    for event in events:
        grouped.setdefault(event.request_id, []).append(event)
    for timeline in grouped.values():
        timeline.sort(key=lambda e: e.seq)
    return grouped


class RequestTraceLog(Ring[TraceEvent]):
    """Bounded ring of completed-request trace events.

    Finished requests flush their whole event list here; ring semantics
    (oldest events first) bound a long serving run, with evictions
    counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 500_000) -> None:
        super().__init__(capacity)
        #: requests whose timelines were flushed into the log.
        self.n_requests = 0

    def extend(self, events: List[TraceEvent]) -> None:
        for event in events:
            self.append(event)
        if events:
            self.n_requests += 1

    def clear(self) -> None:
        super().clear()
        self.n_requests = 0

    def by_request(self) -> Dict[int, List[TraceEvent]]:
        """Events grouped by request id, each list in seq order."""
        return _by_request(self)

    def faults(self) -> List[TraceEvent]:
        """Every :data:`FAULT_EVENTS` record of the run, in ring order."""
        return [event for event in self if event.event in FAULT_EVENTS]

    def telemetry(self) -> TelemetryLog:
        """The run's ``serve.telemetry.*`` series, replayed from the log.

        Each series gets one point at every instant it changes, valued
        after all of that instant's changes:

        ======================  ========================================
        ``inflight``            +1 at ``admitted``, -1 at ``done``
        ``queue_depth{node}``   +1 at a ``hop``'s ``landed_ms``, -1 at
                                the ``hop``
        ``batch_size{node}``    the ``batch`` of each ``hop`` cohort
        ``batches``             +1 per ``encode`` cohort
        ``retries{node}``       +1 per ``retry``
        ``timeouts{node}``      +1 per ``timeout`` cohort (one timer)
        ``degraded{node}``      +1 per ``done`` whose outcome is
                                ``degraded``, at its deciding node
        ======================  ========================================

        A cohort is the events one batch, or one failed attempt, emits
        for its requests: they share kind, node and timestamp, and two
        cohorts at one node are apart by at least their own work. Over
        a truncated log (``dropped > 0``) the series start mid-run.
        """
        changes: List[Tuple[float, str, Optional[int], float]] = []
        cohorts: Set[Tuple[str, int, float]] = set()

        def first_of_cohort(event: TraceEvent) -> bool:
            key = (event.event, event.node, event.t_ms)
            fresh = key not in cohorts
            cohorts.add(key)
            return fresh

        for event in self:
            t, node, kind = event.t_ms, event.node, event.event
            if kind == "admitted":
                changes.append((t, "inflight", None, 1.0))
            elif kind == "done":
                changes.append((t, "inflight", None, -1.0))
                if event.attrs.get("outcome") == "degraded":
                    changes.append((t, "degraded", node, 1.0))
            elif kind == "hop":
                landed = float(event.attrs["landed_ms"])
                changes.append((landed, "queue_depth", node, 1.0))
                changes.append((t, "queue_depth", node, -1.0))
                if first_of_cohort(event):
                    batch = float(event.attrs["batch"])
                    changes.append((t, "batch_size", node, batch))
            elif kind == "encode" and first_of_cohort(event):
                changes.append((t, "batches", None, 1.0))
            elif kind == "timeout" and first_of_cohort(event):
                changes.append((t, "timeouts", node, 1.0))
            elif kind == "retry":
                changes.append((t, "retries", node, 1.0))
        changes.sort(key=itemgetter(0))
        log = TelemetryLog(capacity=max(1, len(changes)))
        state: Dict[Tuple[str, Optional[int]], float] = {}
        for t, instant in groupby(changes, key=itemgetter(0)):
            touched: Dict[Tuple[str, Optional[int]], None] = {}
            for _, name, node, value in instant:
                key = (name, node)
                # batch_size is a level; every other series a count.
                state[key] = (
                    value if name == "batch_size"
                    else state.get(key, 0.0) + value
                )
                touched[key] = None
            for name, node in touched:
                log.record(
                    f"serve.telemetry.{name}", state[(name, node)], t / 1e3,
                    {} if node is None else {"node": node},
                )
        return log


def _event_or_none(data: Any) -> Optional[TraceEvent]:
    if not isinstance(data, dict) or "event" not in data:
        return None
    return TraceEvent.from_dict(data)


def load_request_trace(path: Union[str, Path]) -> Dict[int, List[TraceEvent]]:
    """Read an exported trace back as ``{request_id: [events]}``.

    Tolerates (and skips) non-event lines — e.g. span records from
    :meth:`repro.obs.TraceBuffer.export_jsonl` sharing the file — so a
    mixed trace file still yields every request timeline it contains.
    A torn line or an event record without its required fields is
    :func:`~repro.obs.ring.read_jsonl`'s ``path:line`` ``ValueError``.
    """
    return _by_request(read_jsonl(path, _event_or_none))


def semantic_timeline(events: List[TraceEvent]) -> List[str]:
    """Timing-free causal skeleton of one request's timeline.

    Keeps only the seed-deterministic event kinds and renders each as
    ``event@node`` (plus the edge for escalation attempts), dropping
    timestamps, batch sizes and wall-time attributes — the form two
    same-seed chaos runs must reproduce exactly.
    """
    out: List[str] = []
    for event in sorted(events, key=lambda e: e.seq):
        if event.event not in SEMANTIC_EVENTS:
            continue
        tag = f"{event.event}@{event.node}"
        edge = event.attrs.get("edge")
        if edge is not None:
            tag += f":{edge}"
        attempt = event.attrs.get("attempt")
        if attempt is not None:
            tag += f"#a{attempt}"
        reason = event.attrs.get("reason")
        if reason is not None:
            tag += f"({reason})"
        outcome = event.attrs.get("outcome")
        if outcome is not None:
            tag += f"={outcome}"
        out.append(tag)
    return out
