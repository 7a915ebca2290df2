"""Request / response / result types for the serving runtime.

A :class:`ServeRequest` is one query travelling through the node tree;
it carries the per-stage latency accumulators and the escalation path
so that the final :class:`ServeResponse` can report where time went:
queue wait, encode, associative search, and escalation round-trip.

:class:`ServeResult` aggregates a whole run and computes **exact**
latency percentiles from the recorded per-request values (unlike the
fixed-bucket :mod:`repro.obs` histograms, which approximate) — the
numbers ``repro serve-bench`` and ``bench_chaos_serving.py`` report.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.tracing import TraceContext

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.hierarchy.inference import InferenceOutcome
    from repro.network.message import Message
    from repro.obs.telemetry import TelemetryLog
    from repro.serve.tracing import RequestTraceLog

__all__ = ["StageTimings", "ServeRequest", "ServeResponse", "ServeResult"]

#: per-stage latency keys, in pipeline order.
STAGES = ("queue_wait_ms", "encode_ms", "search_ms", "escalation_rtt_ms")


@dataclass(slots=True)
class StageTimings:
    """Cumulative per-stage latency of one request (milliseconds).

    Batch-level stages (encode, search) charge each cohort member the
    full stage wall time — that is the latency the request experienced
    while waiting for its batch to finish.
    """

    queue_wait_ms: float = 0.0
    encode_ms: float = 0.0
    search_ms: float = 0.0
    escalation_rtt_ms: float = 0.0
    total_ms: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "queue_wait_ms": self.queue_wait_ms,
            "encode_ms": self.encode_ms,
            "search_ms": self.search_ms,
            "escalation_rtt_ms": self.escalation_rtt_ms,
            "total_ms": self.total_ms,
        }


@dataclass(slots=True)
class ServeRequest:
    """One in-flight query (runtime-internal bookkeeping)."""

    index: int
    features: np.ndarray
    start_leaf: int
    arrival_s: float = 0.0
    #: set when the request entered its current node's queue.
    enqueued_s: float = 0.0
    timings: StageTimings = field(default_factory=StageTimings)
    #: (label, confidence, node, level) of the last decision-capable
    #: node visited; None until one is reached (mirrors ``chosen`` in
    #: the offline walk).
    decided: Optional[Tuple[int, float, int, int]] = None
    #: (child, parent) edges this request escalated over — the edges
    #: the answer descends (and is charged) on the way back.
    charged_path: List[Tuple[int, int]] = field(default_factory=list)
    #: (node, row) of the highest node that has encoded this request so
    #: far: what it forwards upward (undamaged), so the next node
    #: projects it instead of re-encoding the subtree. Dropped when the
    #: request finishes.
    forwarded: Optional[Tuple[int, np.ndarray]] = None
    #: the answer a closed-loop client awaits. None in the open loop,
    #: where the runtime counts unanswered requests instead and its
    #: drive awaits one future, set when the count reaches zero.
    future: Optional["asyncio.Future[ServeResponse]"] = None
    #: set by the request's one response; a second one is an error.
    finished: bool = False
    #: per-request trace (None when tracing is disabled). The context
    #: travels with the request through queues and escalation bundles,
    #: which is what propagates the request id and hop path end to end.
    trace: Optional[TraceContext] = None


@dataclass(slots=True)
class ServeResponse:
    """Terminal outcome of one request.

    Not frozen: the runtime builds one per request, and a frozen
    dataclass sets each field through ``object.__setattr__``, which
    makes construction about 2.4× as dear.
    """

    index: int
    start_leaf: int
    #: -1 when the request was shed before any node decided.
    label: int
    confidence: float
    deciding_node: int
    deciding_level: int
    #: True when admission or escalation shedding degraded / refused
    #: the request (``deciding_node == -1`` means refused outright).
    shed: bool
    timings: StageTimings
    #: True when fault injection forced a degraded answer: escalation
    #: retries exhausted, a parent crashed, or a per-hop timeout fired
    #: — the label is the best locally available decision, not the one
    #: the fault-free escalation walk would have produced.
    degraded: bool = False

    @property
    def rejected(self) -> bool:
        return self.deciding_node < 0


class ServeResult:
    """Aggregate outcome of one serving run."""

    def __init__(
        self,
        responses: Sequence[ServeResponse],
        makespan_s: float,
        energy_j: float,
        wire_bytes: int,
        escalations: Dict[Tuple[int, int], int],
        messages: Sequence["Message"],
        n_shed_admission: int,
        n_shed_escalation: int,
        queue_high_water: Dict[int, int],
        n_retries: int = 0,
        n_timeouts: int = 0,
        traces: Optional["RequestTraceLog"] = None,
        topology: Optional[Dict[str, object]] = None,
    ) -> None:
        self.responses = sorted(responses, key=lambda r: r.index)
        self.makespan_s = float(makespan_s)
        self.energy_j = float(energy_j)
        #: bytes actually charged on the wire (per-flush bundles and
        #: fault-injected retransmissions — may exceed the offline
        #: accounting by bundle fragmentation and retries).
        self.wire_bytes = int(wire_bytes)
        #: queries escalated over each (child -> parent) edge (each
        #: request counted once per edge, retransmissions excluded).
        self.escalations = dict(escalations)
        #: ``HierarchicalInference.escalation_messages(escalations)`` —
        #: the message list the offline walk reports for these queries.
        self.messages: List["Message"] = list(messages)
        self.n_shed_admission = int(n_shed_admission)
        self.n_shed_escalation = int(n_shed_escalation)
        #: max depth each node's inbox reached (memory bound witness);
        #: a cluster run reports its router backlog under key 0.
        self.queue_high_water = dict(queue_high_water)
        #: fault injection: (request, attempt) retransmissions issued.
        self.n_retries = int(n_retries)
        #: fault injection: loss-detection / per-hop timeouts that fired.
        self.n_timeouts = int(n_timeouts)
        #: per-request trace-event log (None when tracing was disabled);
        #: ``traces.faults()`` is the run's fault evidence.
        self.traces = traces
        #: runtime topology metadata: workers / shared_memory_bytes
        #: (plus eviction counts for cluster runs). ``{"workers": 1}``
        #: -style dict for the single-process runtime.
        self.topology: Dict[str, object] = dict(topology or {"workers": 1})

    # ------------------------------------------------------------------
    @cached_property
    def telemetry(self) -> Optional["TelemetryLog"]:
        """Labeled ``serve.telemetry.*`` time-series of the run: a view
        over :attr:`traces` (None when tracing was disabled)."""
        return self.traces.telemetry() if self.traces is not None else None

    @property
    def n_total(self) -> int:
        return len(self.responses)

    @property
    def n_shed(self) -> int:
        return self.n_shed_admission + self.n_shed_escalation

    @property
    def answered(self) -> List[ServeResponse]:
        """Responses carrying a real decision (shed-degraded included)."""
        return [r for r in self.responses if not r.rejected]

    @property
    def n_answered(self) -> int:
        return len(self.answered)

    @property
    def n_degraded(self) -> int:
        """Responses answered in degraded mode under fault injection."""
        return sum(1 for r in self.responses if r.degraded)

    @property
    def degraded_rate(self) -> float:
        """Fraction of all requests that got a degraded answer."""
        if not self.responses:
            return 0.0
        return self.n_degraded / self.n_total

    @property
    def throughput_rps(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.n_answered / self.makespan_s

    # ------------------------------------------------------------------
    def fingerprint(self) -> Tuple[Tuple[int, int, int, int, int, bool, bool], ...]:
        """Timing-free semantic content of the run, for determinism tests.

        One tuple per request (sorted by index): ``(index, start_leaf,
        label, deciding_node, deciding_level, shed, degraded)``. Under
        a fixed seed and :class:`~repro.serve.faults.FaultPlan` every
        fault decision derives from structural tags, so two runs of the
        same workload produce identical fingerprints even though
        wall-clock timings (and hence micro-batch boundaries) differ.
        Confidences are excluded: dense-backend BLAS accumulation order
        varies with batch shape at the last ulp — compare them with
        ``allclose`` separately.
        """
        return tuple(
            (
                r.index,
                r.start_leaf,
                r.label,
                r.deciding_node,
                r.deciding_level,
                r.shed,
                r.degraded,
            )
            for r in self.responses
        )

    # ------------------------------------------------------------------
    def latencies_ms(self, stage: str = "total_ms") -> np.ndarray:
        """Per-request latency array for one stage (answered only)."""
        values = [getattr(r.timings, stage) for r in self.answered]
        return np.asarray(values, dtype=np.float64)

    def percentiles(
        self, stage: str = "total_ms", qs: Sequence[float] = (50, 95, 99)
    ) -> Dict[str, float]:
        """Exact latency percentiles, e.g. ``{"p50": ..., "p99": ...}``."""
        lat = self.latencies_ms(stage)
        if lat.size == 0:
            return {f"p{q:g}": 0.0 for q in qs}
        return {f"p{q:g}": float(np.percentile(lat, q)) for q in qs}

    def stage_breakdown(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 for every pipeline stage plus the total."""
        return {
            stage: self.percentiles(stage)
            for stage in STAGES + ("total_ms",)
        }

    # ------------------------------------------------------------------
    def to_outcome(self) -> "InferenceOutcome":
        """Convert to an offline-comparable ``InferenceOutcome``.

        :attr:`messages` comes from the *aggregated* escalation counts
        through the offline walk's own ``escalation_messages``, so
        ``total_bytes`` is directly comparable to
        ``HierarchicalInference.run`` on the same queries. Raises if
        any request was shed or answered in degraded mode (neither has
        an offline equivalent).
        """
        from repro.hierarchy.inference import InferenceOutcome

        if self.n_shed:
            raise ValueError(
                f"cannot convert a run with {self.n_shed} shed requests "
                "to an offline outcome"
            )
        if self.n_degraded:
            raise ValueError(
                f"cannot convert a run with {self.n_degraded} degraded "
                "answers to an offline outcome"
            )
        rs = self.responses
        return InferenceOutcome(
            labels=np.asarray([r.label for r in rs], dtype=np.int64),
            deciding_node=np.asarray(
                [r.deciding_node for r in rs], dtype=np.int64
            ),
            deciding_level=np.asarray(
                [r.deciding_level for r in rs], dtype=np.int64
            ),
            confidence=np.asarray([r.confidence for r in rs], dtype=np.float64),
            start_leaf=np.asarray([r.start_leaf for r in rs], dtype=np.int64),
            messages=list(self.messages),
        )

    def summary(self) -> str:
        """Human-readable one-run report."""
        pct = self.percentiles()
        lines = [
            f"requests: {self.n_total} answered: {self.n_answered} "
            f"shed: {self.n_shed} "
            f"(admission {self.n_shed_admission}, "
            f"escalation {self.n_shed_escalation})",
            f"makespan: {self.makespan_s * 1e3:.1f} ms  "
            f"throughput: {self.throughput_rps:.0f} req/s",
            f"latency total: p50 {pct['p50']:.2f} ms  "
            f"p95 {pct['p95']:.2f} ms  p99 {pct['p99']:.2f} ms",
        ]
        for stage in STAGES:
            p = self.percentiles(stage)
            lines.append(
                f"  {stage:<18} p50 {p['p50']:.3f}  p95 {p['p95']:.3f}  "
                f"p99 {p['p99']:.3f}"
            )
        lines.append(
            f"escalated: {sum(self.escalations.values())} over "
            f"{len(self.escalations)} edges  wire: "
            f"{self.wire_bytes / 1024:.1f} KiB  "
            f"energy: {self.energy_j * 1e3:.2f} mJ"
        )
        if self.n_degraded or self.n_retries or self.n_timeouts:
            lines.append(
                f"faults: degraded {self.n_degraded} "
                f"({self.degraded_rate:.1%})  retries {self.n_retries}  "
                f"timeouts {self.n_timeouts}"
            )
        workers = self.topology.get("workers", 1)
        if isinstance(workers, int) and workers > 1:
            lines.append(
                f"cluster: {workers} workers  shared model: "
                f"{int(self.topology.get('shared_memory_bytes', 0)) / 1024:.1f} KiB"
            )
        return "\n".join(lines)
