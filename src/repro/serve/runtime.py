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
time is a timer on the loop's virtual clock
(:class:`~repro.serve.clock.VirtualClockLoop`), energy and bytes
accumulate in the result. Answers descend the escalation path as
:data:`~repro.hierarchy.inference.PREDICTION_BYTES` each.

A request carries up what its last node forwarded (undamaged), and
each node encodes only the sibling subtrees its cohort lacks, through
the :class:`~repro.hierarchy.federation.LazyEncodings` the offline walk
uses — each (query, node) pair once, deterministic row by row. Dense
similarities are not: their BLAS product rounds by row count, so a
confidence can move by about 1e-13 with its micro-batch. No label or
escalation decision has differed in any run or pin, but a confidence
that close to the threshold could flip one (ROADMAP item 18). Noisy
bundles are never decoded; the offline walk charges wire bytes the
same way, which is what keeps served and offline outcomes identical.

With a :class:`~repro.serve.faults.FaultPlan` the same tree serves
through an unreliable network: escalation attempts drop and pay
latency jitter, in-flight bundles lose dimensions/blocks, and non-root
nodes crash for configured windows. Senders detect failures by
timeout, retry with exponential backoff up to three attempts a hop
(:data:`~repro.serve.faults.MAX_ATTEMPTS`), and —
when the parent stays unreachable — answer in **degraded mode** from
the best locally available decision (the node's own model if nothing
decided yet), flagged on :class:`ServeResponse`. Every request always
receives exactly one terminal response; with no plan (or an inert
one) the same escalation loop delivers every send on its first
attempt, bit-for-bit as a fault-free network would.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.hierarchy.inference import PREDICTION_BYTES, HierarchicalInference
from repro.network.medium import Medium
from repro.serve.batcher import MicroBatcher
from repro.serve.clock import run_virtual
from repro.serve.faults import (
    HOP_TIMEOUT_S,
    MAX_ATTEMPTS,
    TIMEOUT_S,
    FaultPlan,
    backoff_s,
)
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
    #: in tests). In-process it is charged on the virtual clock: each
    #: flush adds it to every latency in the batch and occupies the
    #: node for it, but costs no wall time.
    service_time_base_s: float = 0.0

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
        if answer:
            rt._answer(answer)
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
        rows = np.array([req.features for req in batch])
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
            lazy.carry(node_id, np.asarray(at), np.array(held))
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
            encoded, search=rt.inference.search
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
        jitter_s: float,
        count_escalation: bool,
    ) -> None:
        """Charge and simulate one uplink bundle transfer.

        ``count_escalation`` is False for fault-injected
        retransmissions: the wire bytes and energy are spent again, but
        the request is only counted once per escalation edge so the
        aggregated escalation map stays comparable across runs.
        """
        rt = self.runtime
        delay = rt.medium.transfer_time(payload, jitter_s=jitter_s)
        rt.energy_j += rt.medium.transfer_energy(payload)
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

        Each request's send is a per-attempt Bernoulli draw of the
        fault plan (crashed parents fail the whole attempt); without a
        plan every send is delivered on attempt 1. Dropped requests
        wait out the loss-detection timeout plus exponential backoff
        and are retransmitted, up to ``MAX_ATTEMPTS`` total tries,
        after which they are answered in degraded mode instead of
        hanging.
        """
        rt = self.runtime
        parent = self.node.parent
        assert parent is not None, "root nodes never escalate"
        plan = rt.plan
        edge = (self.node_id, parent)
        edge_tag = f"{self.node_id}->{parent}"
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
            parent_dead = plan is not None and plan.crashed(
                parent, rt._elapsed()
            )
            if parent_dead:
                # Dead parent: the whole attempt fails; nothing reaches
                # the radio on the other side, so no bytes are charged.
                dropped = pending
            else:
                payload = rt.inference.uplink_bytes(parent, len(pending))
                for req in pending:
                    failed = plan is not None and plan.message_dropped(
                        edge, req.index, attempt, payload
                    )
                    (dropped if failed else delivered).append(req)
                jitter = (
                    0.0 if plan is None
                    else plan.jitter_s(edge, pending[0].index, attempt)
                )
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
            exhausted = attempt >= MAX_ATTEMPTS
            delay = TIMEOUT_S + (0.0 if exhausted else backoff_s(attempt - 1))
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
        verbatim.
    medium:
        Link model charged for every escalation / answer transfer.
    config:
        Batching, queueing and backpressure tunables.
    fault_plan:
        Optional deterministic chaos schedule
        (:class:`~repro.serve.faults.FaultPlan`). An inert plan (every
        knob zero) behaves exactly like ``None``.
    """

    _BATCH_BUCKETS = tuple(float(2 ** i) for i in range(0, 11))
    #: set when the current run's last request is finished.
    _all_finished: "asyncio.Future[None]"

    def __init__(
        self,
        inference: HierarchicalInference,
        medium: Medium,
        config: Optional[ServeConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.inference = inference
        self.federation = inference.federation
        self.hierarchy = self.federation.hierarchy
        self.medium = medium
        self.config = config or ServeConfig()
        self.cap = inference.effective_cap(self.config.max_level)
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
        #: normalized to None, so it serves bit-identically to running
        #: without one.
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
        #: descent timers in flight, by the id of the cohort they carry.
        self._deliveries: Dict[int, asyncio.TimerHandle] = {}
        #: requests with no response yet; ``_all_finished`` is set at 0.
        self._unfinished = 0
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

        The run is on virtual network time (:mod:`repro.serve.clock`):
        arrival gaps and simulated waits advance the loop clock without
        sleeping, so the result's ``makespan_s`` is virtual too. Like
        ``asyncio.run``, it raises when called from a running loop.
        """
        arrivals = open_loop_arrivals(len(workload), rate_rps, seed, arrivals)
        return run_virtual(self._serve(workload, arrivals=arrivals))

    def serve_closed_loop(
        self,
        workload: ServeWorkload,
        n_clients: int = 4,
    ) -> ServeResult:
        """Closed-loop serving: ``n_clients`` requests in flight.

        Each client submits its next query as soon as the previous
        answer (or shed notice) came back.
        """
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        return run_virtual(self._serve(workload, n_clients=n_clients))

    # ------------------------------------------------------------------
    async def _serve(
        self,
        workload: ServeWorkload,
        arrivals: Optional[np.ndarray] = None,
        n_clients: int = 0,
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
        # Only a closed-loop client awaits its own answer; the drive
        # awaits one future, set when the last request is answered.
        closed = arrivals is None
        requests = [
            ServeRequest(
                index=i,
                features=features,
                start_leaf=leaf,
                future=loop.create_future() if closed else None,
                trace=TraceContext(i) if tracing else None,
            )
            for i, (features, leaf) in enumerate(
                zip(workload.features, workload.start_leaves.tolist())
            )
        ]
        all_finished = self._all_finished = loop.create_future()
        self._unfinished = len(requests)
        if not requests:
            all_finished.set_result(None)

        async def submit_and_await_all() -> None:
            if arrivals is not None:
                await self._open_loop(requests, arrivals)
            else:
                await asyncio.gather(
                    *(
                        self._client(requests[c::n_clients])
                        for c in range(n_clients)
                    )
                )
            await all_finished

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
                # is waiting for would never come. ``all_finished`` ends
                # the wait too when a descent timer failed it, because a
                # closed-loop client waits on its own answer instead.
                await asyncio.wait(
                    {drive, all_finished, *node_tasks},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                for task in (drive, *node_tasks):
                    task.cancel()
                await asyncio.gather(drive, *node_tasks, return_exceptions=True)
                for handle in self._deliveries.values():
                    handle.cancel()
                self._deliveries.clear()
            for task in (*node_tasks, drive):
                if not task.cancelled():
                    task.result()  # re-raises what killed it
            all_finished.result()
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
                nid: server.queue.high_water
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
        """Admit each request when it is due.

        Admission is synchronous while the entry inbox has room, so a
        burst due at once enqueues without an await. The drive yields
        only to sleep until the next due time or, under ``"block"``, to
        wait for room in a full inbox.
        """
        loop = asyncio.get_running_loop()
        for req, at in zip(requests, arrivals.tolist()):
            due = self._t0 + at
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                now = loop.time()
            if not self._admit(req, due, now):
                await self.nodes[req.start_leaf].queue.put(req)

    async def _client(self, requests: List[ServeRequest]) -> None:
        for req in requests:
            await self.submit(req)
            await req.future

    # ------------------------------------------------------------------
    async def submit(self, req: ServeRequest) -> None:
        """Admit one request at its start leaf (policy applies), arriving
        now: latency is charged from this call.

        The request is enqueued synchronously while the inbox has room
        (or shed at once under ``"shed"``); the call suspends only to
        wait for room in a full ``"block"`` inbox. A crashed entry node
        refuses admission outright: the request completes immediately
        as a degraded rejection rather than waiting on a dead inbox.
        """
        now = asyncio.get_running_loop().time()
        if not self._admit(req, now, now):
            await self.nodes[req.start_leaf].queue.put(req)

    def _admit(self, req: ServeRequest, arrival_s: float, now: float) -> bool:
        """Admission without waiting: reject, shed or enqueue ``req``.

        False when its ``"block"`` inbox is full; the caller then awaits
        that queue's ``put``, which charges nothing more.
        """
        req.enqueued_s = now
        req.arrival_s = arrival_s
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
            self._reject(req, shed=False)
            return True
        try:
            return self.nodes[req.start_leaf].queue.try_put(req)
        except ShedError:
            self.n_shed_admission += 1
            if req.trace is not None:
                req.trace.emit(
                    "shed", self._now_ms(), node=req.start_leaf,
                    reason="admission",
                )
            if obs.enabled():
                obs.incr("serve.shed.admission")
            self._reject(req, shed=True)
            return True

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
        the parent dropped the bundle). Each put returns without
        suspending while the inbox has room. Under a fault plan a put
        that must wait for room is bounded by ``HOP_TIMEOUT_S``: when it
        expires the request is answered in degraded mode at ``origin``
        (the sending node) instead of wedging the sender forever.
        """
        loop = asyncio.get_running_loop()
        queue = self.nodes[destination].queue
        plan = self.plan
        timeout_s = HOP_TIMEOUT_S if plan is not None else None
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
                    self._answer([req], shed=True)
                else:
                    self._reject(req, shed=True)
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
                    self._answer([req], degraded=True)
                else:
                    self._reject(req, shed=False)
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
        self._answer(cohort, degraded=True)

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def _answer(
        self,
        cohort: List[ServeRequest],
        shed: bool = False,
        degraded: bool = False,
    ) -> None:
        """Complete a cohort with each request's recorded decision.

        The 4-byte prediction descends every escalation edge the query
        climbed; each hop charges the medium's time and energy. The
        clock is read once for the cohort. A request that climbed no
        edge finishes here; the rest finish on one loop timer per
        distinct descent delay.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        descending: Dict[float, List[ServeRequest]] = {}
        for req in cohort:
            if not req.charged_path:
                self._finish(req, now, shed, degraded)
                continue
            delay = 0.0
            for _ in req.charged_path:
                delay += self.medium.transfer_time(PREDICTION_BYTES)
                self.energy_j += self.medium.transfer_energy(PREDICTION_BYTES)
                self.wire_bytes += PREDICTION_BYTES
            if req.trace is not None:
                assert req.decided is not None
                req.trace.emit(
                    "descend", (now - self._t0) * 1e3, node=req.decided[2],
                    hops=len(req.charged_path), ms=delay * 1e3,
                )
            if delay > 0:
                req.timings.escalation_rtt_ms += delay * 1e3
                descending.setdefault(delay, []).append(req)
            else:
                self._finish(req, now, shed, degraded)
        for delay, group in descending.items():
            self._deliveries[id(group)] = loop.call_later(
                delay, self._deliver, group, shed, degraded
            )

    def _deliver(
        self, group: List[ServeRequest], shed: bool, degraded: bool
    ) -> None:
        """A descent timer fired: finish the requests it carried."""
        del self._deliveries[id(group)]
        now = asyncio.get_running_loop().time()
        try:
            for req in group:
                self._finish(req, now, shed, degraded)
        except Exception as exc:
            # A timer callback has no awaiter: fail the run instead of
            # leaving the rest of the group unanswered (the loop logs
            # the re-raised error).
            if not self._all_finished.done():
                self._all_finished.set_exception(exc)
            raise

    def _reject(self, req: ServeRequest, shed: bool) -> None:
        """Complete ``req`` with no decision: shed, or refused by a
        fault (a degraded rejection)."""
        self._finish(
            req, asyncio.get_running_loop().time(), shed, degraded=not shed,
            decision=(-1, 0.0, -1, -1),
        )

    def _finish(
        self,
        req: ServeRequest,
        now: float,
        shed: bool,
        degraded: bool = False,
        decision: Optional[Tuple[int, float, int, int]] = None,
    ) -> None:
        """Record ``req``'s one response (its ``decided`` unless
        ``decision`` is given) and count it off; the run's drive wakes
        when the count reaches zero. A second finish raises, so a
        duplicate can never end the run early."""
        if req.finished:
            raise RuntimeError(f"request {req.index} finished twice")
        req.finished = True
        if decision is None:
            decision = req.decided
            assert decision is not None, "only a decided request is answered"
        label, confidence, node, level = decision
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
                "done", (now - self._t0) * 1e3, node=node,
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
        if req.future is not None:
            req.future.set_result(response)
        self._unfinished -= 1
        if self._unfinished == 0:
            self._all_finished.set_result(None)

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
