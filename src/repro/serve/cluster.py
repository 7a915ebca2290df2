"""Multi-process serving cluster (router + worker replicas).

The single-process :class:`~repro.serve.runtime.ServingRuntime`
simulates the whole hierarchy inside one asyncio loop, which caps
sustained throughput at what one GIL can encode and search. This module
breaks that ceiling with real OS processes while keeping the paper's
semantics exact:

* a **router** (this process) admits the open-loop arrival schedule
  into one backlog and flushes it, as one micro-batch, to the
  least-loaded healthy worker replica
  (:class:`~repro.serve.registry.ReplicaRegistry`) whenever that
  replica is idle or the backlog reaches ``max_batch``;
* **workers** rebuild the federation's structure from seeds (encoders
  and projections are deterministic), attach the learned models from a
  :class:`~repro.serve.shard.SharedModelStore` — read-only, zero-copy,
  never pickled — and replay the exact offline escalation walk
  (:meth:`HierarchicalInference.run`) on every batch queued for them
  at once, each node visit capped at ``max_batch``. Each worker is
  pinned to one CPU of the router's affinity set (replica ``i`` to the
  ``i``-th, wrapping), so the fleet is spread over the cores from its
  first batch instead of whenever the kernel's load balancer gets to
  it;
* a **heartbeat registry** evicts replicas that stop beating and the
  router re-dispatches their outstanding batches, so a killed worker
  (via :meth:`FaultPlan.validate_for_cluster` crash windows keyed by
  *replica index*) is a first-class fault scenario. When the whole
  fleet is down the router answers locally and marks responses
  degraded.

Every replica holds the full shared model and runs the whole walk, so
any replica can take any batch: the unit of placement in the paper
(Sec. IV) is a hierarchy node, not a slice of the request stream.
Because :meth:`HierarchicalInference.run` is per-query deterministic
regardless of batch composition, and per-edge escalation counts are
additive across batches, a ``workers=1`` cluster answers
bit-identically to the offline walk — same labels, deciding nodes,
levels and wire bytes.

Wire/energy accounting is the offline walk's own (escalations climb
*inside* a worker, not between processes): per-request escalation
round-trips, costed by :meth:`HierarchicalInference.uplink_bytes`, are
added to reported latency without sleeping, and run totals come from
the aggregated escalation counts via
:meth:`HierarchicalInference.escalation_messages`.
"""

from __future__ import annotations

import logging
import os
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import multiprocessing as mp

import numpy as np

import repro.obs as obs
from repro.core.search import SearchSpec
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.inference import PREDICTION_BYTES, HierarchicalInference
from repro.network.medium import Medium
from repro.obs.registry import MetricsRegistry
from repro.serve.faults import FaultPlan
from repro.serve.registry import ReplicaRegistry
from repro.serve.request import (
    ServeResponse,
    ServeResult,
    StageTimings,
)
from repro.serve.runtime import ServeConfig
from repro.serve.shard import SharedModelStore
from repro.serve.workload import ServeWorkload, open_loop_arrivals

__all__ = ["ClusterConfig", "ClusterRuntime", "WorkerSpec"]

logger = logging.getLogger(__name__)

#: max seconds close() waits for workers to say goodbye and exit.
_CLOSE_TIMEOUT_S = 10.0
#: replacement workers per runtime (runaway guard for hosts where
#: contention evicts replicas repeatedly).
_MAX_RESPAWNS = 8


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterConfig:
    """Process-topology tunables of the serving cluster."""

    #: total worker processes (replicas) to spawn.
    workers: int = 2
    #: idle workers send a heartbeat this often.
    heartbeat_interval_s: float = 0.05
    #: replicas silent for longer than this are evicted and their
    #: outstanding batches re-dispatched. Workers beat when idle *and*
    #: at every walk's start, so this only needs to exceed the slowest
    #: walk of at most ``queue_depth`` x the node count rows (a late
    #: beat resurrects the replica regardless).
    heartbeat_timeout_s: float = 3.0
    #: max seconds to wait for every worker to attach and report ready.
    ready_timeout_s: float = 60.0
    #: spawn a replacement worker (fresh replica id, same CPU) when a
    #: replica is evicted — the elastic control plane's replacement
    #: loop applied to the process fleet. The replacement attaches the
    #: same shared model store, so catch-up is a zero-copy attach.
    respawn: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s"
            )
        if self.ready_timeout_s <= 0:
            raise ValueError("ready_timeout_s must be > 0")


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild + attach its serving stack.

    Deliberately model-free: the learned arrays travel via the
    shared-memory ``manifest``; ``federation`` is the plain-data
    :meth:`EdgeHDFederation.spec` from which encoders and projections
    regenerate deterministically, exactly as
    :mod:`repro.hierarchy.checkpoint` relies on.
    """

    federation: dict
    confidence_threshold: float
    compression_count: int
    min_level: int
    max_level: Optional[int]
    search: SearchSpec
    manifest: dict
    replica_id: int
    heartbeat_interval_s: float
    #: rows of one node visit, and the walk's row bound per node.
    max_batch: int
    queue_depth: int
    fault_plan: Optional[FaultPlan] = None
    #: CPU the worker pins itself to; None leaves placement to the OS.
    cpu: Optional[int] = None


def _fleet_cpus() -> List[int]:
    """CPUs the router may run on, in order; empty where the platform
    cannot pin a process."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _worker_main(spec: WorkerSpec, task_q, result_q) -> None:
    """Worker replica entry point (runs in a child process).

    Protocol (task queue): ``("warm",)`` once, ignored; ``("batch",
    batch_id, indices, rows, leaves)`` per dispatch; ``("stop",)``.
    Protocol (result queue): ``("ready", id, zero_copy_report)`` once
    attached; ``("hb", id, seq)`` while idle and at every walk's start;
    ``("done", id, dispatches, labels, confidences, nodes, levels,
    escalation_triples, encode_ms, search_ms)`` per walk, where
    ``dispatches`` lists each walked dispatch's ``(batch_id, indices)``
    and the per-request lists follow that order; ``("error", id,
    traceback)`` on failure; ``("bye", id, metrics_snapshot)`` on clean
    shutdown, after the answers of every dispatch taken before the
    ``("stop",)``.

    A walk is every dispatch already queued, never waited for: after the
    first ``("batch", ...)`` the worker takes more with ``get_nowait``
    while the walk stays within ``queue_depth`` x the node count rows
    (a single dispatch is always walked). Each node visit of the walk
    covers at most ``max_batch`` rows. One ``"done"`` carries the whole
    walk, so its answers and escalation counts reach the router together
    or not at all. A fault-plan crash window for this replica index
    makes the process vanish silently — no bye, no more heartbeats —
    which is exactly what a ``kill -9`` looks like to the router.
    """
    t_start = time.monotonic()
    store = None
    metrics = MetricsRegistry()
    labels = {"replica": str(spec.replica_id)}
    try:
        if spec.cpu is not None:
            # Forked next to the router, a worker that sleeps between
            # short batches keeps being woken on the router's core;
            # two of them sharing it halve the fleet until the load
            # balancer moves one, which takes a second or more.
            os.sched_setaffinity(0, {spec.cpu})
        federation = EdgeHDFederation.from_spec(spec.federation)
        store = SharedModelStore.attach(spec.manifest)
        report = store.install(federation)
        inference = HierarchicalInference(
            federation,
            confidence_threshold=spec.confidence_threshold,
            compression_count=spec.compression_count,
            min_level=spec.min_level,
            search=spec.search,
        )
        # Warm the BLAS / encoder paths before accepting traffic so the
        # first real batch doesn't pay one-time setup cost.
        warm = np.zeros((1, federation.partition.n_features))
        leaf0 = federation.hierarchy.leaves()[0]
        inference.run(
            warm,
            start_leaves=np.asarray([leaf0], dtype=np.int64),
            max_level=spec.max_level,
        )
        result_q.put(("ready", spec.replica_id, report))
        crash = (
            spec.fault_plan.crash_windows.get(spec.replica_id)
            if spec.fault_plan is not None
            else None
        )
        # The in-process tree's total inbox capacity.
        walk_rows = spec.queue_depth * len(federation.hierarchy.nodes)
        seq = 0
        #: a task a drain took but could not add to its walk: next up.
        held: Optional[tuple] = None
        while True:
            if crash is not None and time.monotonic() - t_start >= crash[0]:
                return  # simulated kill: vanish without a bye
            msg, held = held, None
            if msg is None:
                try:
                    msg = task_q.get(timeout=spec.heartbeat_interval_s)
                except queue_mod.Empty:
                    seq += 1
                    result_q.put(("hb", spec.replica_id, seq))
                    continue
            if msg[0] == "stop":
                break
            if msg[0] == "warm":
                continue
            walk = [msg]
            n_rows = len(msg[2])
            while True:
                try:
                    msg = task_q.get_nowait()
                except queue_mod.Empty:
                    break
                if msg[0] == "batch" and n_rows + len(msg[2]) <= walk_rows:
                    walk.append(msg)
                    n_rows += len(msg[2])
                else:
                    held = msg
                    break
            # Renew the lease up front so a walk that takes a while to
            # process doesn't read as a dead replica to the router.
            seq += 1
            result_q.put(("hb", spec.replica_id, seq))
            # Encode each query at its entry leaf up front (timed as the
            # encode stage); escalation encodes the rest inside ``run``
            # (timed as search), one cohort per visited node, reusing
            # these rows. Confidence gating stops most queries at their
            # leaf, so untouched subtrees are never projected.
            rows = np.concatenate([task[3] for task in walk])
            leaves_arr = np.asarray(
                [leaf for task in walk for leaf in task[4]], dtype=np.int64
            )
            t0 = time.perf_counter()
            encodings = federation.encode_lazy(rows)
            for leaf in np.unique(leaves_arr).tolist():
                encodings.forward_rows(leaf, np.flatnonzero(leaves_arr == leaf))
            t1 = time.perf_counter()
            outcome = inference.run(
                rows,
                start_leaves=leaves_arr,
                max_level=spec.max_level,
                encodings=encodings,
                max_batch=spec.max_batch,
            )
            t2 = time.perf_counter()
            metrics.counter("cluster.worker.batches", labels).inc()
            metrics.counter("cluster.worker.requests", labels).inc(n_rows)
            metrics.counter(
                "cluster.worker.escalated", labels
            ).inc(sum(outcome.escalations.values()))
            result_q.put(
                (
                    "done",
                    spec.replica_id,
                    [(task[1], task[2]) for task in walk],
                    outcome.labels.tolist(),
                    outcome.confidence.tolist(),
                    outcome.deciding_node.tolist(),
                    outcome.deciding_level.tolist(),
                    [(c, p, n) for (c, p), n in outcome.escalations.items()],
                    (t1 - t0) * 1e3,
                    (t2 - t1) * 1e3,
                )
            )
    except Exception:  # pragma: no cover - surfaced as a router error
        import traceback

        logger.exception("worker %d failed", spec.replica_id)
        result_q.put(("error", spec.replica_id, traceback.format_exc()))
        return
    finally:
        if store is not None:
            store.close()
    result_q.put(("bye", spec.replica_id, metrics.snapshot()))


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
@dataclass
class _Dispatch:
    """Router-side record of one in-flight batch."""

    batch_id: int
    replica_id: int
    indices: List[int]
    dispatched_wall: float


class ClusterRuntime:
    """Router over a fleet of shared-memory worker replicas.

    Mirrors :class:`~repro.serve.runtime.ServingRuntime`'s contract —
    same :class:`ServeConfig` knobs (max_batch / queue_depth / policy /
    max_level / search) and the same work-conserving batching (the
    router's one backlog is dispatched as soon as the least-loaded
    healthy replica is idle, or when it reaches ``max_batch``), same
    :class:`~repro.serve.request.ServeResult` output, same offline
    message accounting — but executes requests on ``cluster.workers``
    OS processes. Under ``policy="shed"``, ``queue_depth`` bounds that
    backlog: buffered plus in-flight requests over the whole fleet.
    Request tracing stays a single-process feature;
    per-worker metrics arrive as labeled
    ``cluster.worker.*`` series merged into the global registry.

    Use as a context manager (or call :meth:`start` / :meth:`close`):

    >>> with ClusterRuntime(inference, medium, cfg, cluster) as rt:
    ...     result = rt.serve_open_loop(workload, rate_rps=1500.0)
    """

    def __init__(
        self,
        inference: HierarchicalInference,
        medium: Medium,
        config: Optional[ServeConfig] = None,
        cluster: Optional[ClusterConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.inference = inference
        self.federation = inference.federation
        self.hierarchy = self.federation.hierarchy
        self.medium = medium
        self.config = config or ServeConfig()
        self.cluster = cluster or ClusterConfig()
        self.cap = inference.effective_cap(self.config.max_level)
        if fault_plan is not None:
            fault_plan.validate_for_cluster(self.cluster.workers)
        #: crash-only plan (or None); inert plans normalize to None.
        self.plan: Optional[FaultPlan] = (
            fault_plan if fault_plan is not None and fault_plan.active else None
        )
        self.registry = ReplicaRegistry(
            heartbeat_timeout_s=self.cluster.heartbeat_timeout_s
        )
        self._edge_rtt_s = self._precompute_edge_rtt()
        self._store: Optional[SharedModelStore] = None
        self._procs: List[mp.process.BaseProcess] = []
        self._task_qs: List = []
        self._result_q = None
        self._zero_copy_reports: Dict[int, dict] = {}
        self._started = False
        self._ctx: Optional[mp.context.BaseContext] = None
        self._manifest: Optional[dict] = None
        #: CPU a replica id is pinned to — replacements inherit their
        #: predecessor's, under a fresh id (ids are never reused).
        self._cpu_of_replica: Dict[int, Optional[int]] = {}
        self.n_respawned = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self, replica_id: int, cpu: Optional[int]) -> None:
        """Spawn one worker process attached to the shared store.

        Used both for the initial fleet and for eviction-triggered
        replacements; ``replica_id`` must be fresh (task queues are
        indexed by it and ids are never reused).
        """
        assert self._ctx is not None and self._manifest is not None
        assert replica_id == len(self._task_qs)
        spec = WorkerSpec(
            federation=self.federation.spec(),
            confidence_threshold=self.inference.confidence_threshold,
            compression_count=self.inference.compression_count,
            min_level=self.inference.min_level,
            max_level=self.config.max_level,
            search=self.inference.search,
            manifest=self._manifest,
            replica_id=replica_id,
            heartbeat_interval_s=self.cluster.heartbeat_interval_s,
            max_batch=self.config.max_batch,
            queue_depth=self.config.queue_depth,
            fault_plan=self.plan,
            cpu=cpu,
        )
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec, task_q, self._result_q),
            daemon=True,
            name=f"repro-worker-{replica_id}",
        )
        proc.start()
        # The first put of an mp.Queue starts its feeder thread (~0.6 ms,
        # several under load): pay it here, not in the first batch.
        task_q.put(("warm",))
        self._task_qs.append(task_q)
        self._procs.append(proc)
        self._cpu_of_replica[replica_id] = cpu

    def start(self) -> None:
        """Publish the shared store and spawn the worker fleet."""
        if self._started:
            return
        try:  # fork where the platform has it, else its default
            ctx = mp.get_context("fork")
        except ValueError:
            ctx = mp.get_context()
        self._ctx = ctx
        self._store = SharedModelStore.publish(self.federation)
        self._manifest = self._store.manifest()
        self._result_q = ctx.Queue()
        self._task_qs = []
        self._procs = []
        cpus = _fleet_cpus()
        for replica_id in range(self.cluster.workers):
            self._spawn_worker(
                replica_id, cpus[replica_id % len(cpus)] if cpus else None
            )
        deadline = time.monotonic() + self.cluster.ready_timeout_s
        while len(self._zero_copy_reports) < self.cluster.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise RuntimeError(
                    f"only {len(self._zero_copy_reports)} of "
                    f"{self.cluster.workers} workers became ready within "
                    f"{self.cluster.ready_timeout_s}s"
                )
            try:
                msg = self._result_q.get(timeout=min(remaining, 0.25))
            except queue_mod.Empty:
                continue
            if msg[0] == "error":
                self.close()
                raise RuntimeError(
                    f"worker {msg[1]} failed to start:\n{msg[2]}"
                )
            if msg[0] == "ready":
                replica_id, report = msg[1], msg[2]
                self._zero_copy_reports[replica_id] = report
                self.registry.register(replica_id, time.monotonic())
        self._started = True
        logger.info(
            "cluster: %d workers ready (%.1f KiB shared)",
            self.cluster.workers,
            (self._store.nbytes if self._store else 0) / 1024,
        )

    def close(self) -> None:
        """Stop workers, collect their metrics, release shared memory."""
        for task_q in self._task_qs:
            try:
                task_q.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue broken
                pass
        deadline = time.monotonic() + _CLOSE_TIMEOUT_S
        expect_bye = {
            info.replica_id
            for info in self.registry.replicas()
            if info.healthy
        } or set(self._zero_copy_reports)
        byes: Dict[int, dict] = {}
        while (
            self._result_q is not None
            and len(byes) < len(expect_bye)
            and time.monotonic() < deadline
        ):
            try:
                msg = self._result_q.get(timeout=0.1)
            except queue_mod.Empty:
                if not any(proc.is_alive() for proc in self._procs):
                    break
                continue
            if msg[0] == "bye":
                byes[msg[1]] = msg[2]
        if obs.enabled():
            registry = obs.get_registry()
            for snapshot in byes.values():
                scratch = MetricsRegistry()
                scratch.load_snapshot(snapshot)
                registry.merge(scratch)
        for proc in self._procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        for task_q in self._task_qs:
            task_q.cancel_join_thread()
            task_q.close()
        if self._result_q is not None:
            self._result_q.cancel_join_thread()
            self._result_q.close()
        self._task_qs = []
        self._result_q = None
        self._procs = []
        if self._store is not None:
            self._store.close()
            self._store.unlink()
            self._store = None
        self._started = False

    def __enter__(self) -> "ClusterRuntime":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def zero_copy(self) -> bool:
        """Did every worker attach without copying a model array?"""
        return bool(self._zero_copy_reports) and all(
            report.get("zero_copy", False)
            for report in self._zero_copy_reports.values()
        )

    def topology(self) -> Dict[str, object]:
        """Topology metadata recorded in every benchmark cell."""
        return {
            "workers": self.cluster.workers,
            "shared_memory_bytes": self._store.nbytes if self._store else 0,
            "evictions": self.registry.n_evicted,
        }

    # ------------------------------------------------------------------
    # simulated escalation accounting
    # ------------------------------------------------------------------
    def _precompute_edge_rtt(self) -> Dict[Tuple[int, int], float]:
        """Per-(child, parent) simulated escalation round-trip seconds.

        One compressed bundle up, one prediction down. The walk itself
        runs inside one worker, so this cost is added to reported
        latency without sleeping.
        """
        rtt: Dict[Tuple[int, int], float] = {}
        for node_id, node in self.hierarchy.nodes.items():
            parent = node.parent
            if parent is None:
                continue
            rtt[(node_id, parent)] = self.medium.transfer_time(
                self.inference.uplink_bytes(parent, 1)
            ) + self.medium.transfer_time(PREDICTION_BYTES)
        return rtt

    def _escalation_rtt_ms(self, start_leaf: int, deciding_node: int) -> float:
        """Simulated climb latency from ``start_leaf`` to its decider."""
        if deciding_node == start_leaf:
            return 0.0
        total = 0.0
        path = self.hierarchy.path_to_root(start_leaf)
        for child, parent in zip(path, path[1:]):
            total += self._edge_rtt_s.get((child, parent), 0.0)
            if parent == deciding_node:
                break
        return total * 1e3

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_open_loop(
        self,
        workload: ServeWorkload,
        rate_rps: float,
        seed: int = 0,
        arrivals: Optional[np.ndarray] = None,
    ) -> ServeResult:
        """Open-loop serving over the worker fleet.

        Same contract as
        :meth:`repro.serve.runtime.ServingRuntime.serve_open_loop`:
        ``arrivals`` (absolute seconds) overrides the Poisson schedule
        drawn at ``rate_rps`` from ``seed``.
        """
        if not self._started:
            self.start()
        n = len(workload)
        arrivals = open_loop_arrivals(n, rate_rps, seed, arrivals)
        order = np.argsort(arrivals, kind="stable")
        cfg = self.config

        responses: Dict[int, ServeResponse] = {}
        escalations: Dict[Tuple[int, int], int] = {}
        backlog: List[int] = []
        outstanding: Dict[int, _Dispatch] = {}
        high_water = 0
        n_shed_admission = 0
        n_retries = 0
        n_timeouts = 0
        n_batches = 0
        last_completion_wall: float

        t0 = time.monotonic()
        last_completion_wall = t0

        def pending() -> int:
            return len(backlog) + sum(
                len(d.indices) for d in outstanding.values()
            )

        def dispatch(indices: List[int]) -> None:
            nonlocal n_batches, last_completion_wall
            info = self.registry.pick()
            if info is None:
                # Whole fleet down: the router still owns the original
                # federation, so it answers locally in degraded mode.
                self._answer_locally(
                    workload, indices, t0, arrivals, responses, escalations
                )
                last_completion_wall = time.monotonic()
                return
            batch_id = n_batches
            n_batches += 1
            rows = np.stack([workload.features[i] for i in indices])
            leaves = [int(workload.start_leaves[i]) for i in indices]
            # The queue wait ends here; the handoff below is the IPC hop.
            dispatched_wall = time.monotonic()
            self._task_qs[info.replica_id].put(
                ("batch", batch_id, indices, rows, leaves)
            )
            self.registry.dispatch(info.replica_id, len(indices))
            outstanding[batch_id] = _Dispatch(
                batch_id=batch_id,
                replica_id=info.replica_id,
                indices=indices,
                dispatched_wall=dispatched_wall,
            )

        def flush() -> None:
            indices = list(backlog)
            backlog.clear()
            dispatch(indices)

        arrival_ptr = 0
        while len(responses) < n:
            now = time.monotonic()
            rel = now - t0
            # 1. admit due arrivals into the backlog
            while arrival_ptr < n and arrivals[order[arrival_ptr]] <= rel:
                idx = int(order[arrival_ptr])
                arrival_ptr += 1
                if cfg.policy == "shed" and pending() >= cfg.queue_depth:
                    n_shed_admission += 1
                    responses[idx] = ServeResponse(
                        index=idx,
                        start_leaf=int(workload.start_leaves[idx]),
                        label=-1,
                        confidence=0.0,
                        deciding_node=-1,
                        deciding_level=-1,
                        shed=True,
                        timings=StageTimings(),
                    )
                    continue
                backlog.append(idx)
                high_water = max(high_water, pending())
                if len(backlog) >= cfg.max_batch:
                    flush()
            # 2. work-conserving flush: the backlog goes out as soon as
            #    the least-loaded replica is idle (or there is none at
            #    all — the router then answers locally); while every
            #    replica is busy the backlog keeps growing.
            if backlog:
                info = self.registry.pick()
                if info is None or info.in_flight == 0:
                    flush()
            # 3. evict silent replicas, re-dispatch their batches and —
            #    with respawn enabled — spawn a replacement worker, so a
            #    crash window becomes a replacement scenario instead of
            #    a permanently smaller fleet.
            for info in self.registry.evict_stale(now):
                n_timeouts += 1
                stranded = [
                    d for d in outstanding.values()
                    if d.replica_id == info.replica_id
                ]
                logger.warning(
                    "cluster: evicting replica %d, re-dispatching %d batches",
                    info.replica_id, len(stranded),
                )
                if obs.enabled():
                    obs.incr("cluster.evictions")
                for d in stranded:
                    del outstanding[d.batch_id]
                    n_retries += len(d.indices)
                    dispatch(d.indices)
                if (
                    self.cluster.respawn
                    and self.n_respawned < _MAX_RESPAWNS
                ):
                    new_id = len(self._task_qs)
                    self.n_respawned += 1
                    logger.info(
                        "cluster: respawning replica %d as replica %d",
                        info.replica_id, new_id,
                    )
                    if obs.enabled():
                        obs.incr("cluster.respawns")
                    self._spawn_worker(
                        new_id, self._cpu_of_replica[info.replica_id]
                    )
            # 4. drain worker results (block briefly to avoid spinning)
            timeout = self._drain_timeout(arrival_ptr, n, order, arrivals, rel)
            try:
                assert self._result_q is not None
                msg = self._result_q.get(timeout=timeout)
            except queue_mod.Empty:
                continue
            while msg is not None:
                done_wall = time.monotonic()
                kind = msg[0]
                if kind == "hb":
                    self.registry.beat(msg[1], done_wall)
                elif kind == "error":
                    self.close()
                    raise RuntimeError(f"worker {msg[1]} crashed:\n{msg[2]}")
                elif kind == "done":
                    (_, replica_id, walked, labels, confs,
                     nodes, levels, triples, encode_ms, search_ms) = msg
                    self.registry.beat(replica_id, done_wall)
                    live = [
                        outstanding.pop(batch_id)
                        for batch_id, _ in walked
                        if batch_id in outstanding
                    ]
                    if replica_id in self.registry:
                        for d in live:
                            self.registry.complete(replica_id, len(d.indices))
                    if len(live) < len(walked):
                        # The walk took dispatches an eviction had already
                        # sent elsewhere, and its escalation counts cannot
                        # be split per dispatch: a walk is taken whole or
                        # not at all, so its live dispatches go out again.
                        for d in live:
                            n_retries += len(d.indices)
                            dispatch(d.indices)
                    else:
                        for c, p, count in triples:
                            edge = (int(c), int(p))
                            escalations[edge] = (
                                escalations.get(edge, 0) + int(count)
                            )
                        answers = list(zip(labels, confs, nodes, levels))
                        lo = 0
                        for d in live:
                            hi = lo + len(d.indices)
                            self._respond(
                                responses, workload, d.indices, t0, arrivals,
                                answers[lo:hi],
                                started_wall=d.dispatched_wall,
                                done_wall=done_wall,
                                encode_ms=float(encode_ms),
                                search_ms=float(search_ms),
                            )
                            lo = hi
                        last_completion_wall = done_wall
                elif kind == "ready":
                    # A replacement worker came up mid-run: register it
                    # so the picker can use it. (Without respawn there
                    # is nothing to arrive.)
                    replica_id, report = msg[1], msg[2]
                    if replica_id not in self.registry:
                        self._zero_copy_reports[replica_id] = report
                        self.registry.register(replica_id, done_wall)
                # "bye" during a run: ignore.
                try:
                    assert self._result_q is not None
                    msg = self._result_q.get_nowait()
                except queue_mod.Empty:
                    msg = None

        makespan = max(last_completion_wall - t0, 0.0)
        messages = self.inference.escalation_messages(escalations)
        wire_bytes = sum(m.payload_bytes for m in messages)
        energy_j = sum(
            self.medium.transfer_energy(m.payload_bytes) for m in messages
        )
        result = ServeResult(
            responses=list(responses.values()),
            makespan_s=makespan,
            energy_j=energy_j,
            wire_bytes=wire_bytes,
            escalations=escalations,
            messages=messages,
            n_shed_admission=n_shed_admission,
            n_shed_escalation=0,
            queue_high_water={0: high_water},
            n_retries=n_retries,
            n_timeouts=n_timeouts,
            topology=self.topology(),
        )
        logger.info(
            "cluster serve: %d requests, %d answered, %d shed, "
            "%d evictions, %.0f req/s",
            result.n_total, result.n_answered, result.n_shed,
            self.registry.n_evicted, result.throughput_rps,
        )
        return result

    def _drain_timeout(
        self,
        arrival_ptr: int,
        n: int,
        order: np.ndarray,
        arrivals: np.ndarray,
        rel: float,
    ) -> float:
        """Longest the router may block on results without missing an
        arrival admission."""
        timeout = self.cluster.heartbeat_interval_s
        if arrival_ptr < n:
            timeout = min(
                timeout, max(arrivals[order[arrival_ptr]] - rel, 0.0)
            )
        return max(timeout, 1e-4)

    def _answer_locally(
        self,
        workload: ServeWorkload,
        indices: List[int],
        t0: float,
        arrivals: np.ndarray,
        responses: Dict[int, ServeResponse],
        escalations: Dict[Tuple[int, int], int],
    ) -> None:
        """Fleet-down fallback: the router runs the walk itself.

        Answers are computed from the same models and are therefore
        *correct*, but they are flagged degraded: the cluster failed to
        provide the isolation/throughput it was asked for, and callers
        (and ``degraded_rate``) should see that.
        """
        rows = np.stack([workload.features[i] for i in indices])
        leaves = np.asarray(
            [int(workload.start_leaves[i]) for i in indices], dtype=np.int64
        )
        started_wall = time.monotonic()
        outcome = self.inference.run(
            rows, start_leaves=leaves, max_level=self.config.max_level
        )
        done_wall = time.monotonic()
        for edge, count in outcome.escalations.items():
            escalations[edge] = escalations.get(edge, 0) + count
        if obs.enabled():
            obs.incr("cluster.local_fallback", len(indices))
        self._respond(
            responses, workload, indices, t0, arrivals,
            zip(
                outcome.labels, outcome.confidence,
                outcome.deciding_node, outcome.deciding_level,
            ),
            started_wall=started_wall,
            done_wall=done_wall,
            encode_ms=0.0,
            search_ms=(done_wall - started_wall) * 1e3,
            degraded=True,
        )

    def _respond(
        self,
        responses: Dict[int, ServeResponse],
        workload: ServeWorkload,
        indices: List[int],
        t0: float,
        arrivals: np.ndarray,
        walk: Iterable[Tuple[int, float, int, int]],
        *,
        started_wall: float,
        done_wall: float,
        encode_ms: float,
        search_ms: float,
        degraded: bool = False,
    ) -> None:
        """Record one batch's responses from the rows of its walk outcome.

        ``walk`` yields ``(label, confidence, deciding node, deciding
        level)`` per request of ``indices``; the batch waited in the
        router until ``started_wall`` and its walk ended at
        ``done_wall``. The simulated climb to the deciding node is
        added on top of the measured wall time.
        """
        for idx, (label, confidence, node, level) in zip(indices, walk):
            leaf = int(workload.start_leaves[idx])
            arrival_wall = t0 + float(arrivals[idx])
            rtt_ms = self._escalation_rtt_ms(leaf, int(node))
            responses[idx] = ServeResponse(
                index=idx,
                start_leaf=leaf,
                label=int(label),
                confidence=float(confidence),
                deciding_node=int(node),
                deciding_level=int(level),
                shed=False,
                degraded=degraded,
                timings=StageTimings(
                    queue_wait_ms=max(
                        (started_wall - arrival_wall) * 1e3, 0.0
                    ),
                    encode_ms=encode_ms,
                    search_ms=search_ms,
                    escalation_rtt_ms=rtt_ms,
                    total_ms=max((done_wall - arrival_wall) * 1e3, 0.0)
                    + rtt_ms,
                ),
            )
