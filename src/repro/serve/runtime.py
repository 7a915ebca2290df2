"""Asyncio serving runtime over a trained hierarchical inference tree.

Every hierarchy node becomes a :class:`_NodeServer`: a bounded inbox
(:class:`~repro.serve.queueing.BoundedQueue`), a
:class:`~repro.serve.batcher.MicroBatcher`, and a processing loop that
encodes + classifies each micro-batch in one vectorized call and routes
the cohort as :meth:`HierarchicalInference.step` says — the same call
the offline walk in :meth:`HierarchicalInference.run` makes per cohort,
so the two cannot disagree on who answers, who escalates and who falls
through to the root.

Escalated cohorts travel as compressed ``m``-query bundles (Eq. 3):
the uplink is charged :meth:`HierarchicalInference.uplink_bytes`
through the edge's :class:`~repro.network.medium.Medium` — transfer
time is simulated with ``asyncio.sleep``, energy and bytes accumulate
in the result. Answers descend the escalation path as
:data:`~repro.hierarchy.inference.PREDICTION_BYTES` each.

A request carries up what its last node forwarded (undamaged), and
each node encodes only the sibling subtrees its cohort lacks, through
the :class:`~repro.hierarchy.federation.LazyEncodings` the offline walk
uses — each (query, node) pair once, deterministic row by row, so
micro-batch composition cannot change any answer. Noisy bundles are
never decoded; the offline walk charges wire bytes the same way, which
is what keeps served and offline outcomes identical.

With a :class:`~repro.serve.faults.FaultPlan` the same tree serves
through an unreliable network: escalation attempts drop and pay
latency jitter, in-flight bundles lose dimensions/blocks, and non-root
nodes crash for configured windows. Senders detect failures by
timeout, retry with exponential backoff up to ``max_attempts``, and —
when the parent stays unreachable — answer in **degraded mode** from
the best locally available decision (the node's own model if nothing
decided yet), flagged on :class:`ServeResponse`. Every request always
receives exactly one terminal response; with no plan (or an inert
one) the behaviour is bit-for-bit the fault-free fast path.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.core.search import SearchSpec
from repro.hierarchy.inference import PREDICTION_BYTES, HierarchicalInference
from repro.network.medium import Medium, edge_medium
from repro.serve.batcher import MicroBatcher
from repro.serve.faults import FaultPlan
from repro.serve.queueing import POLICIES, BoundedQueue, QueueTimeout, ShedError
from repro.serve.request import ServeRequest, ServeResponse, ServeResult
from repro.serve.tracing import RequestTraceLog, TraceContext
from repro.serve.workload import ServeWorkload, open_loop_arrivals
from repro.utils.validation import check_positive

__all__ = ["ServeConfig", "ServingRuntime"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the serving runtime."""

    #: largest micro-batch a node takes from its backlog in one flush
    #: (batches are work-conserving: a node never waits to fill one).
    max_batch: int = 32
    #: bounded inbox depth per node; in a
    #: :class:`~repro.serve.cluster.ClusterRuntime`, the bound on the
    #: router's one backlog (buffered plus in flight), which ``"shed"``
    #: enforces at admission.
    queue_depth: int = 64
    #: backpressure policy: ``"block"`` or ``"shed"``.
    policy: str = "block"
    #: escalation ceiling (``None`` = hierarchy depth), as in
    #: ``HierarchicalInference.run(max_level=...)``.
    max_level: Optional[int] = None
    #: simulated per-flush compute time in seconds (0 = as fast as the
    #: hardware allows; used to model slow nodes and to force overload
    #: in tests).
    service_time_base_s: float = 0.0
    #: associative-search override for every node's classify call
    #: (:class:`repro.core.search.SearchSpec`); ``None`` serves with
    #: the inference object's own spec, which is what keeps served
    #: answers bit-identical to the offline walk.
    search: Optional[SearchSpec] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        check_positive(
            "service_time_base_s", self.service_time_base_s, allow_zero=True
        )
        if self.search is not None and not isinstance(self.search, SearchSpec):
            raise TypeError(
                f"search must be a SearchSpec or None, got "
                f"{type(self.search).__name__}"
            )


class _NodeServer:
    """One hierarchy node's inbox, batcher and processing loop."""

    def __init__(
        self,
        runtime: "ServingRuntime",
        node_id: int,
        config: ServeConfig,
        traced: bool,
    ) -> None:
        self.runtime = runtime
        self.node_id = node_id
        self.node = runtime.hierarchy.nodes[node_id]
        self.queue = BoundedQueue(
            config.queue_depth, config.policy,
            on_put=runtime._landed if traced else None,
        )
        self.batcher = MicroBatcher(self.queue, config.max_batch)

    async def run(self) -> None:
        while True:
            batch = await self.batcher.next_batch()
            await self._process(batch)

    # ------------------------------------------------------------------
    async def _process(self, batch: List[ServeRequest]) -> None:
        rt = self.runtime
        loop = asyncio.get_running_loop()
        now = loop.time()
        now_ms = (now - rt._t0) * 1e3
        for req in batch:
            wait_ms = (now - req.enqueued_s) * 1e3
            req.timings.queue_wait_ms += wait_ms
            if req.trace is not None:
                req.trace.visit(self.node_id)
                req.trace.emit(
                    "hop", now_ms, node=self.node_id,
                    queue_wait_ms=wait_ms, batch=len(batch),
                    landed_ms=req.trace.landed_ms,
                )
        if rt.config.service_time_base_s > 0:
            await asyncio.sleep(rt.config.service_time_base_s)

        def predict(where: Optional[np.ndarray]):
            if where is None:
                return self._predict(batch)
            return self._predict(
                [req for req, w in zip(batch, where.tolist()) if w]
            )

        seen = np.fromiter(
            (req.decided is not None for req in batch), bool, len(batch)
        )
        step = rt.inference.step(self.node_id, rt.cap, seen, predict)
        level = self.node.level
        decisions = iter(
            zip(step.labels.tolist(), step.confidence.tolist())
        )
        answer: List[ServeRequest] = []
        move: List[ServeRequest] = []
        for req, decided_here, answers_here in zip(
            batch, step.decided.tolist(), step.answer.tolist()
        ):
            (answer if answers_here else move).append(req)
            if decided_here:
                label, confidence = next(decisions)
                req.decided = (label, confidence, self.node_id, level)
                if req.trace is not None:
                    req.trace.emit(
                        "decide", rt._now_ms(), node=self.node_id, level=level,
                        label=label, confidence=confidence,
                        action="answer" if answers_here else "escalate",
                    )
            elif answers_here and req.trace is not None:
                req.trace.emit(
                    "decide", rt._now_ms(), node=self.node_id, level=level,
                    action="answer_cached",
                )
        for req in answer:
            rt._answer(req)
        if not move:
            return
        if step.charged:
            await self._escalate(move)
        else:
            await rt._forward(move, step.destination, origin=self)

    # ------------------------------------------------------------------
    def _predict(
        self, batch: List[ServeRequest]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One vectorized encode + associative search for the cohort.

        Rows that escalated here bring what the node below forwarded
        (:attr:`ServeRequest.forwarded`), so only the sibling subtrees
        they lack are encoded; a node below the root hands its own
        forward to every request in turn.
        """
        rt = self.runtime
        rows = np.stack([req.features for req in batch])
        t0 = time.perf_counter()
        lazy = rt.federation.encode_lazy(rows)
        carried: Dict[int, Tuple[List[int], List[np.ndarray]]] = {}
        for i, req in enumerate(batch):
            if req.forwarded is not None:
                node_id, row = req.forwarded
                at, held = carried.setdefault(node_id, ([], []))
                at.append(i)
                held.append(row)
        for node_id, (at, held) in carried.items():
            lazy.carry(node_id, np.asarray(at), np.stack(held))
        everyone = np.arange(len(batch))
        encoded = lazy.own_rows(self.node_id, everyone)
        if self.node.parent is not None:
            forwarded = lazy.forward_rows(self.node_id, everyone)
            for req, row in zip(batch, forwarded):
                req.forwarded = (self.node_id, row)
        plan = rt.plan
        if plan is not None and plan.corrupts_payload:
            # Replay the wire damage onto rows that escalated to get
            # here; the pattern derives from (seed, node, request), so
            # batch composition cannot change it. The forwards handed
            # on above stay undamaged, as a fresh encoding would be.
            encoded = np.array(encoded, dtype=np.float64)
            for i, req in enumerate(batch):
                if req.charged_path:
                    encoded[i] = plan.corrupt(
                        encoded[i], self.node_id, req.index
                    )
                    if req.trace is not None:
                        req.trace.emit(
                            "corrupt", rt._now_ms(), node=self.node_id
                        )
                    if obs.enabled():
                        obs.incr("serve.faults.corrupted")
        t1 = time.perf_counter()
        result = rt.federation.classifiers[self.node_id].predict(
            encoded, search=rt.search
        )
        t2 = time.perf_counter()
        encode_ms = (t1 - t0) * 1e3
        search_ms = (t2 - t1) * 1e3
        now_ms = rt._now_ms() if batch and batch[0].trace is not None else 0.0
        for req in batch:
            req.timings.encode_ms += encode_ms
            req.timings.search_ms += search_ms
            if req.trace is not None:
                req.trace.emit(
                    "encode", now_ms, node=self.node_id,
                    ms=encode_ms, batch=len(batch),
                )
                req.trace.emit(
                    "search", now_ms, node=self.node_id, ms=search_ms
                )
        rt.n_batches += 1
        if obs.enabled():
            obs.incr("serve.batches")
            obs.observe("serve.batch_size", len(batch), bounds=rt._BATCH_BUCKETS)
            obs.observe("serve.latency.encode_ms", encode_ms)
            obs.observe("serve.latency.search_ms", search_ms)
        return result.labels, result.top_confidence

    async def _transmit(
        self,
        cohort: List[ServeRequest],
        parent: int,
        payload: int,
        jitter_s: float = 0.0,
        count_escalation: bool = True,
    ) -> None:
        """Charge and simulate one uplink bundle transfer.

        ``count_escalation`` is False for fault-injected
        retransmissions: the wire bytes and energy are spent again, but
        the request is only counted once per escalation edge so the
        aggregated escalation map stays comparable across runs.
        """
        rt = self.runtime
        medium = edge_medium(
            rt.hierarchy, self.node_id, parent, rt.medium, rt.media_by_level
        )
        delay = medium.transfer_time(payload, jitter_s=jitter_s)
        rt.energy_j += medium.transfer_energy(payload)
        rt.wire_bytes += payload
        edge = (self.node_id, parent)
        if count_escalation:
            rt.escalations[edge] = rt.escalations.get(edge, 0) + len(cohort)
            if obs.enabled():
                obs.incr("serve.escalated", len(cohort))
        if obs.enabled():
            obs.incr("serve.escalation.bytes", payload)
        # Store-and-forward: the uplink transfer occupies this node.
        await asyncio.sleep(delay)
        delay_ms = delay * 1e3
        for req in cohort:
            req.timings.escalation_rtt_ms += delay_ms
            if req.trace is not None:
                req.trace.emit(
                    "transit", rt._now_ms(), node=self.node_id,
                    edge=f"{self.node_id}->{parent}", ms=delay_ms,
                    bytes=payload,
                )

    async def _escalate(self, cohort: List[ServeRequest]) -> None:
        """Ship the cohort upward as compressed m-query bundles.

        Without a fault plan this is a single reliable transfer. Under
        a plan each request's send is a per-attempt Bernoulli draw
        (crashed parents fail the whole attempt); dropped requests wait
        out the loss-detection timeout plus exponential backoff and are
        retransmitted, up to ``max_attempts`` total tries, after which
        they are answered in degraded mode instead of hanging.
        """
        rt = self.runtime
        parent = self.node.parent
        assert parent is not None, "root nodes never escalate"
        plan = rt.plan
        edge = (self.node_id, parent)
        edge_tag = f"{self.node_id}->{parent}"
        if plan is None:
            for req in cohort:
                if req.trace is not None:
                    req.trace.attempts += 1
                    req.trace.emit(
                        "escalate", rt._now_ms(), node=self.node_id,
                        edge=edge_tag, attempt=1,
                    )
            payload = rt.inference.uplink_bytes(parent, len(cohort))
            await self._transmit(cohort, parent, payload)
            await rt._forward(cohort, parent, via_edge=edge, origin=self)
            return
        pending = cohort
        attempt = 0
        counted = False
        while pending:
            attempt += 1
            for req in pending:
                if req.trace is not None:
                    req.trace.attempts += 1
                    req.trace.emit(
                        "escalate", rt._now_ms(), node=self.node_id,
                        edge=edge_tag, attempt=attempt,
                    )
            delivered: List[ServeRequest] = []
            dropped: List[ServeRequest] = []
            parent_dead = plan.crashed(parent, rt._elapsed())
            if parent_dead:
                # Dead parent: the whole attempt fails; nothing reaches
                # the radio on the other side, so no bytes are charged.
                dropped = pending
            else:
                payload = rt.inference.uplink_bytes(parent, len(pending))
                for req in pending:
                    failed = plan.message_dropped(
                        edge, req.index, attempt, payload
                    )
                    (dropped if failed else delivered).append(req)
                jitter = plan.jitter_s(edge, pending[0].index, attempt)
                await self._transmit(
                    pending, parent, payload, jitter_s=jitter,
                    count_escalation=not counted,
                )
                counted = True
                if delivered:
                    await rt._forward(
                        delivered, parent, via_edge=edge, origin=self
                    )
            if not dropped:
                return
            drop_reason = "parent_crashed" if parent_dead else "message_lost"
            for req in dropped:
                if req.trace is not None:
                    req.trace.emit(
                        "drop", rt._now_ms(), node=self.node_id,
                        edge=edge_tag, attempt=attempt, reason=drop_reason,
                    )
            # Loss detection: the sender waits out the ack timeout (and
            # the backoff when a retry is still allowed). One timer
            # fires for the cohort, so its events share one timestamp.
            rt.n_timeouts += 1
            if obs.enabled():
                obs.incr("serve.timeouts")
            exhausted = attempt >= plan.max_attempts
            delay = plan.timeout_s + (
                0.0 if exhausted else plan.backoff_s(attempt - 1)
            )
            fired_ms = rt._now_ms()
            for req in dropped:
                if req.trace is not None:
                    req.trace.emit(
                        "timeout", fired_ms, node=self.node_id,
                        edge=edge_tag, attempt=attempt,
                    )
                    if not exhausted and delay > 0:
                        req.trace.emit(
                            "backoff", fired_ms, node=self.node_id,
                            attempt=attempt, wait_ms=delay * 1e3,
                        )
            if delay > 0:
                await asyncio.sleep(delay)
                delay_ms = delay * 1e3
                for req in dropped:
                    req.timings.escalation_rtt_ms += delay_ms
            if exhausted:
                if obs.enabled():
                    obs.incr("serve.faults.exhausted", len(dropped))
                rt._degrade_cohort(self, dropped, reason="retries_exhausted")
                return
            rt.n_retries += len(dropped)
            if obs.enabled():
                obs.incr("serve.retries", len(dropped))
            for req in dropped:
                if req.trace is not None:
                    req.trace.emit(
                        "retry", rt._now_ms(), node=self.node_id,
                        edge=edge_tag, attempt=attempt + 1,
                    )
            pending = dropped


class ServingRuntime:
    """Serve a trained :class:`HierarchicalInference` tree as a system.

    Parameters
    ----------
    inference:
        The trained escalation pipeline; its threshold, compression
        count, ``min_level`` and :class:`SearchSpec` all apply
        verbatim (``config.search`` may override the spec for this
        runtime only).
    medium:
        Link model charged for every escalation / answer transfer.
    config:
        Batching, queueing and backpressure tunables.
    media_by_level:
        Optional per-child-level medium override, as in
        :class:`~repro.network.simulator.NetworkSimulator`.
    fault_plan:
        Optional deterministic chaos schedule
        (:class:`~repro.serve.faults.FaultPlan`). An inert plan (every
        knob zero) behaves exactly like ``None``.
    """

    _BATCH_BUCKETS = tuple(float(2 ** i) for i in range(0, 11))

    def __init__(
        self,
        inference: HierarchicalInference,
        medium: Medium,
        config: Optional[ServeConfig] = None,
        media_by_level: Optional[Dict[int, Medium]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.inference = inference
        self.federation = inference.federation
        self.hierarchy = self.federation.hierarchy
        self.medium = medium
        self.media_by_level = media_by_level or {}
        self.config = config or ServeConfig()
        self.cap = inference.effective_cap(self.config.max_level)
        #: resolved associative-search spec every node serves with.
        self.search: SearchSpec = self.config.search or inference.search
        self.fault_plan = fault_plan
        if fault_plan is not None:
            unknown = set(fault_plan.crash_windows) - set(self.hierarchy.nodes)
            if unknown:
                raise ValueError(
                    f"crash_windows names unknown nodes {sorted(unknown)}"
                )
            if self.hierarchy.root_id in fault_plan.crash_windows:
                raise ValueError(
                    "the root node cannot crash: it is the escalation "
                    "fallback of last resort"
                )
        #: the plan the serving loops consult; an inert plan is
        #: normalized to None so the fault-free fast path stays
        #: bit-identical to running without one.
        self.plan: Optional[FaultPlan] = (
            fault_plan if fault_plan is not None and fault_plan.active else None
        )
        self._reset_state()

    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self.nodes: Dict[int, _NodeServer] = {}
        self.escalations: Dict[Tuple[int, int], int] = {}
        self.energy_j = 0.0
        self.wire_bytes = 0
        self.n_batches = 0
        self.n_shed_admission = 0
        self.n_shed_escalation = 0
        self.n_retries = 0
        self.n_timeouts = 0
        #: finished requests flush their trace events here; the run's
        #: telemetry series are a view over it.
        self.trace_log = RequestTraceLog()
        self._responses: List[ServeResponse] = []
        self._deliveries: set = set()
        self._t0 = 0.0
        self._last_completion = 0.0

    def _elapsed(self) -> float:
        """Seconds since the serving run started (crash-window clock)."""
        return asyncio.get_running_loop().time() - self._t0

    def _now_ms(self) -> float:
        """Milliseconds since run start — the trace clock."""
        return self._elapsed() * 1e3

    def _landed(self, req: ServeRequest) -> None:
        """Stamp the instant a traced request enters a node inbox."""
        if req.trace is not None:
            req.trace.landed_ms = self._now_ms()

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def serve_open_loop(
        self,
        workload: ServeWorkload,
        rate_rps: float,
        seed: int = 0,
        arrivals: Optional[np.ndarray] = None,
    ) -> ServeResult:
        """Open-loop serving: submit on a fixed arrival schedule.

        ``arrivals`` (absolute seconds) overrides the default Poisson
        schedule drawn at ``rate_rps`` from ``seed``. Arrivals are
        honored regardless of system state — under overload the
        bounded queues shed or block per the configured policy.
        """
        arrivals = open_loop_arrivals(len(workload), rate_rps, seed, arrivals)
        return asyncio.run(self._serve(workload, arrivals=arrivals))

    def serve_closed_loop(
        self,
        workload: ServeWorkload,
        n_clients: int = 4,
        think_time_s: float = 0.0,
    ) -> ServeResult:
        """Closed-loop serving: ``n_clients`` requests in flight.

        Each client submits its next query once the previous answer
        (or shed notice) came back, after ``think_time_s``.
        """
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        if think_time_s < 0:
            raise ValueError(
                f"think_time_s must be >= 0, got {think_time_s}"
            )
        return asyncio.run(
            self._serve(
                workload, n_clients=n_clients, think_time_s=think_time_s
            )
        )

    # ------------------------------------------------------------------
    async def _serve(
        self,
        workload: ServeWorkload,
        arrivals: Optional[np.ndarray] = None,
        n_clients: int = 0,
        think_time_s: float = 0.0,
    ) -> ServeResult:
        self._reset_state()
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        self._last_completion = self._t0
        tracing = obs.enabled()
        for node_id in self.hierarchy.nodes:
            self.nodes[node_id] = _NodeServer(
                self, node_id, self.config, traced=tracing
            )
        requests = [
            ServeRequest(
                index=i,
                features=workload.features[i],
                start_leaf=int(workload.start_leaves[i]),
                future=loop.create_future(),
                trace=TraceContext(i) if tracing else None,
            )
            for i in range(len(workload))
        ]

        async def submit_and_await_all() -> None:
            if arrivals is not None:
                await self._open_loop(requests, arrivals)
            else:
                await asyncio.gather(
                    *(
                        self._client(requests[c::n_clients], think_time_s)
                        for c in range(n_clients)
                    )
                )
            await asyncio.gather(*(req.future for req in requests))

        # Scheduled ahead of the node tasks: what is due at t=0 is
        # submitted before any node forms its first batch.
        drive = asyncio.ensure_future(submit_and_await_all())
        node_tasks = [
            asyncio.ensure_future(server.run())
            for server in self.nodes.values()
        ]
        with obs.span(
            "serve", n=len(requests), policy=self.config.policy,
            max_batch=self.config.max_batch,
        ):
            try:
                # A node task loops forever, so one that finishes has
                # died — and the answers (or the inbox space) the drive
                # is waiting for would never come.
                await asyncio.wait(
                    {drive, *node_tasks}, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                for task in (drive, *node_tasks):
                    task.cancel()
                await asyncio.gather(drive, *node_tasks, return_exceptions=True)
                for task in list(self._deliveries):
                    task.cancel()
            for task in (*node_tasks, drive):
                if not task.cancelled():
                    task.result()  # re-raises what killed it
        makespan = max(self._last_completion - self._t0, 0.0)
        result = ServeResult(
            responses=self._responses,
            makespan_s=makespan,
            energy_j=self.energy_j,
            wire_bytes=self.wire_bytes,
            escalations=self.escalations,
            messages=self.inference.escalation_messages(self.escalations),
            n_shed_admission=self.n_shed_admission,
            n_shed_escalation=self.n_shed_escalation,
            queue_high_water={
                nid: server.queue.stats.high_water
                for nid, server in self.nodes.items()
            },
            n_retries=self.n_retries,
            n_timeouts=self.n_timeouts,
            traces=self.trace_log if tracing else None,
            topology={"workers": 1, "shared_memory_bytes": 0},
        )
        logger.info(
            "serve: %d requests, %d answered, %d shed, %.0f req/s",
            result.n_total, result.n_answered, result.n_shed,
            result.throughput_rps,
        )
        return result

    async def _open_loop(
        self, requests: List[ServeRequest], arrivals: np.ndarray
    ) -> None:
        loop = asyncio.get_running_loop()
        for req, at in zip(requests, arrivals):
            due = self._t0 + float(at)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.submit(req, arrival_s=due)

    async def _client(
        self, requests: List[ServeRequest], think_time_s: float
    ) -> None:
        for req in requests:
            await self.submit(req)
            await req.future
            if think_time_s > 0:
                await asyncio.sleep(think_time_s)

    # ------------------------------------------------------------------
    async def submit(
        self, req: ServeRequest, arrival_s: Optional[float] = None
    ) -> None:
        """Admit one request at its start leaf (policy applies).

        ``arrival_s`` (loop time) is when the request was due; latency
        is charged from it, so a request held back by a full ``block``
        inbox is not under-reported. It defaults to now.

        A crashed entry node refuses admission outright: the request
        completes immediately as a degraded rejection rather than
        waiting on a dead inbox.
        """
        loop = asyncio.get_running_loop()
        req.enqueued_s = loop.time()
        req.arrival_s = req.enqueued_s if arrival_s is None else arrival_s
        if obs.enabled():
            obs.incr("serve.requests")
        if req.trace is not None:
            req.trace.emit("admitted", self._now_ms(), node=req.start_leaf)
        if self.plan is not None and self.plan.crashed(
            req.start_leaf, self._elapsed()
        ):
            if req.trace is not None:
                req.trace.emit(
                    "degraded", self._now_ms(), node=req.start_leaf,
                    reason="crashed_admission",
                )
            if obs.enabled():
                obs.incr("serve.faults.crashed_admission")
            self._finish(req, label=-1, confidence=0.0, node=-1, level=-1,
                         shed=False, degraded=True)
            return
        try:
            await self.nodes[req.start_leaf].queue.put(req)
        except ShedError:
            self.n_shed_admission += 1
            if req.trace is not None:
                req.trace.emit(
                    "shed", self._now_ms(), node=req.start_leaf,
                    reason="admission",
                )
            if obs.enabled():
                obs.incr("serve.shed.admission")
            self._finish(req, label=-1, confidence=0.0, node=-1, level=-1,
                         shed=True)

    async def _forward(
        self,
        cohort: List[ServeRequest],
        destination: int,
        via_edge: Optional[Tuple[int, int]] = None,
        origin: Optional[_NodeServer] = None,
    ) -> None:
        """Hand a cohort to another node's inbox (policy applies).

        ``via_edge`` marks a charged escalation edge: on success it
        joins the request's answer-descent path; on shed the request
        degrades to its last decision (the uplink was already spent —
        the parent dropped the bundle). Under a fault plan the blocking
        put is bounded by ``hop_timeout_s``: when it expires the
        request is answered in degraded mode at ``origin`` (the sending
        node) instead of wedging the sender forever.
        """
        loop = asyncio.get_running_loop()
        queue = self.nodes[destination].queue
        plan = self.plan
        timeout_s = plan.hop_timeout_s if plan is not None else None
        for req in cohort:
            req.enqueued_s = loop.time()
            # Charge the edge *before* the put: once the request is in
            # the destination inbox the batcher may classify it on any
            # scheduler tick, and damage replay keys off charged_path —
            # appending after the await races the consumer. The failure
            # arms below un-charge it (the consumer never saw it).
            if via_edge is not None:
                req.charged_path.append(via_edge)
            try:
                await queue.put(req, timeout_s=timeout_s)
            except ShedError:
                if via_edge is not None:
                    req.charged_path.pop()
                self.n_shed_escalation += 1
                if req.trace is not None:
                    req.trace.emit(
                        "shed", self._now_ms(), node=destination,
                        reason="escalation",
                    )
                if obs.enabled():
                    obs.incr("serve.shed.escalation")
                if req.decided is not None:
                    self._answer(req, shed=True)
                else:
                    self._finish(req, label=-1, confidence=0.0, node=-1,
                                 level=-1, shed=True)
                continue
            except QueueTimeout:
                if via_edge is not None:
                    req.charged_path.pop()
                self.n_timeouts += 1
                if req.trace is not None:
                    req.trace.emit(
                        "timeout", self._now_ms(), node=destination,
                        reason="hop_timeout",
                    )
                if obs.enabled():
                    obs.incr("serve.timeouts")
                if origin is not None:
                    self._degrade_cohort(origin, [req], reason="hop_timeout")
                    continue
                if req.trace is not None:
                    req.trace.emit(
                        "degraded", self._now_ms(), node=destination,
                        reason="hop_timeout",
                    )
                if req.decided is not None:
                    self._answer(req, degraded=True)
                else:
                    self._finish(req, label=-1, confidence=0.0, node=-1,
                                 level=-1, shed=False, degraded=True)
                continue

    def _degrade_cohort(
        self,
        server: _NodeServer,
        cohort: List[ServeRequest],
        reason: str = "retries_exhausted",
    ) -> None:
        """Answer ``cohort`` in degraded mode at ``server``'s node.

        Requests that already passed a decision-capable node answer
        with that decision; the rest are classified by this node's own
        model — even below ``min_level`` — because a sensing node whose
        uplink is gone answering from its local model is the graceful
        degradation the paper's robustness study argues for (better a
        low-tier answer than none).
        """
        undecided = [req for req in cohort if req.decided is None]
        if undecided:
            labels, conf = server._predict(undecided)
            level = server.node.level
            for i, req in enumerate(undecided):
                req.decided = (
                    int(labels[i]), float(conf[i]), server.node_id, level
                )
        for req in cohort:
            if req.trace is not None:
                req.trace.emit(
                    "degraded", self._now_ms(), node=server.node_id,
                    reason=reason,
                )
            self._answer(req, degraded=True)

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def _answer(
        self, req: ServeRequest, shed: bool = False, degraded: bool = False
    ) -> None:
        """Complete a request with its recorded decision.

        The 4-byte prediction descends every escalation edge the query
        climbed; each hop charges its medium's time and energy.
        """
        assert req.decided is not None
        label, confidence, node, level = req.decided
        delay = 0.0
        for child, parent in reversed(req.charged_path):
            medium = edge_medium(
                self.hierarchy, parent, child, self.medium, self.media_by_level
            )
            delay += medium.transfer_time(PREDICTION_BYTES)
            self.energy_j += medium.transfer_energy(PREDICTION_BYTES)
            self.wire_bytes += PREDICTION_BYTES
        if req.trace is not None and req.charged_path:
            req.trace.emit(
                "descend", self._now_ms(), node=node,
                hops=len(req.charged_path), ms=delay * 1e3,
            )
        if delay > 0:
            req.timings.escalation_rtt_ms += delay * 1e3
            task = asyncio.ensure_future(
                self._deliver(
                    req, delay, label, confidence, node, level, shed, degraded
                )
            )
            self._deliveries.add(task)
            task.add_done_callback(self._deliveries.discard)
        else:
            self._finish(req, label, confidence, node, level, shed, degraded)

    async def _deliver(
        self,
        req: ServeRequest,
        delay: float,
        label: int,
        confidence: float,
        node: int,
        level: int,
        shed: bool,
        degraded: bool,
    ) -> None:
        await asyncio.sleep(delay)
        self._finish(req, label, confidence, node, level, shed, degraded)

    def _finish(
        self,
        req: ServeRequest,
        label: int,
        confidence: float,
        node: int,
        level: int,
        shed: bool,
        degraded: bool = False,
    ) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._last_completion = max(self._last_completion, now)
        req.forwarded = None
        req.timings.total_ms = (now - req.arrival_s) * 1e3
        response = ServeResponse(
            index=req.index,
            start_leaf=req.start_leaf,
            label=label,
            confidence=confidence,
            deciding_node=node,
            deciding_level=level,
            shed=shed,
            timings=req.timings,
            degraded=degraded,
        )
        self._responses.append(response)
        if req.trace is not None:
            t = req.timings
            outcome = "shed" if shed else ("degraded" if degraded else "ok")
            req.trace.emit(
                "done", self._now_ms(), node=node,
                outcome=outcome, label=label, level=level,
                total_ms=t.total_ms,
                queue_wait_ms=t.queue_wait_ms,
                encode_ms=t.encode_ms,
                search_ms=t.search_ms,
                escalation_rtt_ms=t.escalation_rtt_ms,
                hops=len(req.trace.hop_path),
                attempts=req.trace.attempts,
            )
            self.trace_log.extend(req.trace.events)
        if obs.enabled():
            self._record_response(response)
        if req.future is not None and not req.future.done():
            req.future.set_result(response)

    # ------------------------------------------------------------------
    def _record_response(self, response: ServeResponse) -> None:
        t = response.timings
        obs.incr("serve.responses")
        if response.degraded:
            obs.incr("serve.degraded_answers")
        if response.rejected:
            obs.incr("serve.rejected")
            return
        if not response.shed:
            obs.incr(f"serve.decided.l{response.deciding_level}")
        obs.observe("serve.latency.total_ms", t.total_ms)
        obs.observe("serve.latency.queue_wait_ms", t.queue_wait_ms)
        if t.escalation_rtt_ms > 0:
            obs.observe("serve.latency.escalation_rtt_ms", t.escalation_rtt_ms)
