"""Tests for the multi-process serving cluster.

Three layers, in increasing weight:

* pure in-process units — :class:`ReplicaRegistry` selection/eviction/
  resurrection policy, :class:`ClusterConfig` validation, crash-only
  fault-plan gating;
* shared-memory plumbing — :class:`SharedModelStore` publish → attach →
  install round-trips inside one process, including the zero-copy
  assertion the issue pins (worker model arrays are *views* over the
  shared segment, never copies);
* end-to-end fleets — real worker processes serving a workload with
  answers bit-identical to the offline ``HierarchicalInference.run``
  walk, plus a killed-worker scenario where eviction + re-dispatch
  still answers every request correctly;
* the worker loop run in this process on queues filled in advance —
  how it walks what is queued at once, the walk's bounds, and the
  ``bye`` that follows a drain's answers.
"""

from __future__ import annotations

import multiprocessing.queues as mp_queues
import os
import queue
import signal
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core.classifier import HDClassifier
from repro.hierarchy import HierarchicalInference
from repro.network.medium import get_medium
from repro.serve import (
    ClusterConfig,
    ClusterRuntime,
    FaultPlan,
    ReplicaRegistry,
    ServeConfig,
    SharedModelStore,
    WorkerSpec,
    make_workload,
)
from repro.serve.cluster import _worker_main


def _msg_key(m):
    return (m.source, m.destination, m.kind, m.payload_bytes)


@pytest.fixture(scope="module")
def cluster_setup(trained_federation):
    federation, _, data = trained_federation
    inference = HierarchicalInference(federation, confidence_threshold=0.7)
    workload = make_workload(
        data.test_x, inference, seed=3, labels=data.test_y
    )
    offline = inference.run(
        data.test_x, start_leaves=workload.start_leaves
    )
    return inference, workload, offline, data


def assert_matches_offline(result, offline, cell="tree"):
    out = result.to_outcome()
    assert np.array_equal(out.labels, offline.labels), cell
    assert np.array_equal(out.deciding_node, offline.deciding_node), cell
    assert np.array_equal(out.deciding_level, offline.deciding_level), cell
    assert np.array_equal(out.start_leaf, offline.start_leaf), cell
    assert np.allclose(out.confidence, offline.confidence), cell
    assert sorted(map(_msg_key, out.messages)) == sorted(
        map(_msg_key, offline.messages)
    ), cell
    assert out.total_bytes == offline.total_bytes, cell


def offline_head(inference, workload, n):
    """The first ``n`` requests of ``workload`` and their offline walk."""
    head = make_workload(
        workload.features[:n], inference,
        start_leaves=workload.start_leaves[:n],
    )
    return head, inference.run(head.features, start_leaves=head.start_leaves)


def worker_counter(snapshot, name):
    """Sum of a worker counter over its replica labels."""
    return sum(
        series["value"]
        for key, series in snapshot.items()
        if obs.parse_series_key(key)[0] == name
    )


def worker_spec(inference, store, *, max_batch, queue_depth):
    return WorkerSpec(
        federation=inference.federation.spec(),
        confidence_threshold=inference.confidence_threshold,
        compression_count=inference.compression_count,
        min_level=inference.min_level,
        max_level=None,
        search=inference.search,
        manifest=store.manifest(),
        replica_id=0,
        heartbeat_interval_s=0.05,
        max_batch=max_batch,
        queue_depth=queue_depth,
    )


def run_worker(inference, tasks, *, max_batch, queue_depth):
    """Run a worker in this process on a task queue filled in advance;
    returns everything it put on its result queue, in order."""
    task_q, result_q = queue.Queue(), queue.Queue()
    for task in tasks:
        task_q.put(task)
    with SharedModelStore.publish(inference.federation) as store:
        _worker_main(
            worker_spec(
                inference, store,
                max_batch=max_batch, queue_depth=queue_depth,
            ),
            task_q, result_q,
        )
    return [result_q.get_nowait() for _ in range(result_q.qsize())]


def batch_task(workload, batch_id, indices):
    return (
        "batch", batch_id, indices, workload.features[indices],
        [int(workload.start_leaves[i]) for i in indices],
    )


# ----------------------------------------------------------------------
# replica registry
# ----------------------------------------------------------------------
class TestReplicaRegistry:
    def test_register_and_duplicate_rejected(self):
        reg = ReplicaRegistry()
        reg.register(0, now=1.0)
        assert 0 in reg and len(reg) == 1
        with pytest.raises(ValueError, match="already registered"):
            reg.register(0, now=2.0)

    def test_evicts_only_stale_replicas(self):
        reg = ReplicaRegistry(heartbeat_timeout_s=1.0)
        reg.register(0, now=0.0)
        reg.register(1, now=0.0)
        reg.beat(1, now=2.0)
        evicted = reg.evict_stale(now=2.5)
        assert [info.replica_id for info in evicted] == [0]
        assert reg.n_evicted == 1
        assert not reg.get(0).healthy and reg.get(1).healthy
        # already-evicted replicas are not evicted twice
        assert reg.evict_stale(now=10.0) == [reg.get(1)]

    def test_beat_resurrects_evicted_replica(self):
        reg = ReplicaRegistry(heartbeat_timeout_s=1.0)
        reg.register(0, now=0.0)
        reg.dispatch(0, 8)
        assert reg.evict_stale(now=5.0)
        assert reg.pick() is None
        # the worker was slow, not dead: a late beat brings it back
        # with an empty in-flight count (its batches were re-dispatched)
        assert reg.beat(0, now=5.5) is True
        info = reg.get(0)
        assert info.healthy and info.in_flight == 0
        assert reg.n_resurrected == 1
        assert reg.pick() is info

    def test_pick_prefers_least_loaded_home_replica(self):
        reg = ReplicaRegistry()
        reg.register(0, now=0.0)
        reg.register(1, now=0.0)
        reg.register(2, now=0.0)
        reg.dispatch(0, 5)
        reg.dispatch(1, 3)
        assert reg.pick().replica_id == 2
        reg.dispatch(2, 5)
        assert reg.pick().replica_id == 1
        reg.dispatch(1, 2)
        # tie on in_flight breaks on lowest replica id
        assert reg.pick().replica_id == 0

    def test_pick_falls_back_across_shards(self):
        # any healthy replica is a candidate, however loaded; with the
        # whole fleet evicted there is none and the router goes local
        reg = ReplicaRegistry(heartbeat_timeout_s=1.0)
        reg.register(0, now=0.0)
        reg.register(1, now=0.0)
        reg.dispatch(1, 5)
        reg.beat(1, now=2.0)
        assert [i.replica_id for i in reg.evict_stale(now=2.5)] == [0]
        assert reg.pick().replica_id == 1
        assert [i.replica_id for i in reg.evict_stale(now=5.0)] == [1]
        assert reg.pick() is None

    def test_complete_clamps_and_counts(self):
        reg = ReplicaRegistry()
        reg.register(0, now=0.0)
        reg.dispatch(0, 3)
        reg.complete(0, 5)
        info = reg.get(0)
        assert info.in_flight == 0
        assert info.n_dispatched == 3 and info.n_completed == 5


class TestRegistryLeaseEdgeCases:
    """Interleavings at lease boundaries (ISSUE 10 satellite 4).

    The topology control plane reuses the registry's lease semantics
    for node-crash detection, so the exact boundary behavior — strict
    inequality, resurrection mid-re-dispatch, late beats after a
    planned drain — is load-bearing beyond the serving cluster.
    """

    def test_resurrection_after_evict_during_redispatch(self):
        # replica 0 goes quiet with a batch in flight; the router
        # evicts it and re-dispatches the stranded batch to replica 1.
        reg = ReplicaRegistry(heartbeat_timeout_s=1.0)
        reg.register(0, now=0.0)
        reg.register(1, now=0.0)
        reg.dispatch(0, 4)
        reg.beat(1, now=2.0)
        assert [i.replica_id for i in reg.evict_stale(now=2.5)] == [0]
        reg.dispatch(1, 4)  # re-dispatch of the stranded batch
        # mid-re-dispatch, the "dead" worker beats: it was slow, not
        # gone. It must come back with an EMPTY in-flight count — its
        # old batch now belongs to replica 1.
        assert reg.beat(0, now=2.6) is True
        assert reg.get(0).in_flight == 0
        assert reg.n_resurrected == 1
        # the old batch's late completion clamps at zero rather than
        # going negative and skewing selection forever after
        reg.complete(0, 4)
        assert reg.get(0).in_flight == 0
        # selection prefers the resurrected idle replica again
        assert reg.pick().replica_id == 0
        # and total fleet load reflects only the live re-dispatch
        assert sum(i.in_flight for i in reg.healthy_replicas()) == 4

    def test_lease_expiry_races_late_heartbeat(self):
        # eviction is strictly-greater-than: a beat landing exactly at
        # the lease boundary keeps the replica alive.
        reg = ReplicaRegistry(heartbeat_timeout_s=1.0)
        reg.register(0, now=0.0)
        assert reg.lease_remaining(0, now=1.0) == 0.0
        assert reg.evict_stale(now=1.0) == []  # boundary: still held
        assert reg.get(0).healthy
        # one tick past the boundary the lease is gone
        assert [i.replica_id for i in reg.evict_stale(now=1.0 + 1e-9)] == [0]
        assert reg.lease_remaining(0, now=1.5) < 0
        # the heartbeat that lost the race arrives now: resurrection,
        # counted once, and the replica is not re-reported as evicted
        assert reg.beat(0, now=1.5) is True
        assert reg.beat(0, now=1.6) is False  # already healthy
        assert reg.n_evicted == 1 and reg.n_resurrected == 1
        assert reg.evict_stale(now=1.7) == []

    def test_beat_after_deregister_is_ignored(self):
        # planned drain: a late beat from the departed id must not
        # re-create the record (ids are never reused by the control
        # plane, so a revenant here would be a ghost replica).
        reg = ReplicaRegistry(heartbeat_timeout_s=1.0)
        reg.register(0, now=0.0)
        gone = reg.deregister(0)
        assert gone is not None and gone.replica_id == 0
        assert reg.beat(0, now=0.5) is False
        assert 0 not in reg and len(reg) == 0
        assert reg.deregister(0) is None  # idempotent


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestClusterConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"heartbeat_interval_s": 0.0},
            {"heartbeat_interval_s": 2.0, "heartbeat_timeout_s": 1.0},
            {"heartbeat_interval_s": 1.0, "heartbeat_timeout_s": 1.0},
            {"ready_timeout_s": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestFaultPlanClusterValidation:
    def test_crash_only_plans_accepted(self):
        FaultPlan(crash_windows={0: (0.1, 1.0)}).validate_for_cluster(2)

    def test_non_crash_knobs_rejected(self):
        plan = FaultPlan(drop_probability=0.5)
        with pytest.raises(ValueError, match="crash-only"):
            plan.validate_for_cluster(2)

    def test_replica_index_out_of_range_rejected(self):
        plan = FaultPlan(crash_windows={3: (0.0, 1.0)})
        with pytest.raises(ValueError):
            plan.validate_for_cluster(2)

    def test_whole_fleet_crash_rejected(self):
        plan = FaultPlan(crash_windows={0: (0.0, 1.0), 1: (0.0, 1.0)})
        with pytest.raises(ValueError, match="at least one"):
            plan.validate_for_cluster(2)


# ----------------------------------------------------------------------
# shared-memory model store
# ----------------------------------------------------------------------
class TestSharedModelStore:
    def test_publish_attach_round_trip(self, trained_federation):
        federation, _, _ = trained_federation
        with SharedModelStore.publish(federation) as store:
            manifest = store.manifest()
            assert manifest["format_version"] == 1
            assert set(manifest["nodes"]) == {
                str(node_id) for node_id in federation.hierarchy.nodes
            }
            attached = SharedModelStore.attach(manifest)
            try:
                for node_id, clf in federation.classifiers.items():
                    model, normalized, packed = attached.node_views(node_id)
                    assert np.array_equal(model, clf.class_hypervectors)
                    assert model.flags.writeable is False
            finally:
                attached.close()

    def test_install_is_zero_copy(self, trained_federation, apri_small,
                                  small_config):
        """The issue's acceptance bar: workers attach the packed model
        shards as shared-memory views — zero per-worker copies."""
        from repro.data import partition_features
        from repro.hierarchy import EdgeHDFederation, build_tree

        federation, _, _ = trained_federation
        with SharedModelStore.publish(federation) as store:
            replica = EdgeHDFederation(
                federation.hierarchy,
                federation.partition,
                federation.n_classes,
                small_config,
            )
            attached = SharedModelStore.attach(store.manifest())
            try:
                report = attached.install(replica)
                assert report["zero_copy"] is True
                assert report["nodes"] == len(federation.hierarchy.nodes)
                for node_id, clf in replica.classifiers.items():
                    model = clf.class_hypervectors
                    # a view over the shared segment, not an owned copy
                    assert model.flags.owndata is False
                    probe, _, _ = attached.node_views(node_id)
                    assert np.shares_memory(model, probe)
                    assert np.array_equal(
                        model,
                        federation.classifiers[node_id].class_hypervectors,
                    )
            finally:
                attached.close()

    def test_attach_rejects_tampered_manifest(self, trained_federation):
        federation, _, _ = trained_federation
        with SharedModelStore.publish(federation) as store:
            manifest = store.manifest()
            bad = dict(manifest, name="psm_does_not_exist")
            with pytest.raises(FileNotFoundError):
                SharedModelStore.attach(bad)


# ----------------------------------------------------------------------
# end-to-end worker fleets
# ----------------------------------------------------------------------
class TestClusterServing:
    def test_single_worker_matches_offline(self, cluster_setup, ragged_cells):
        inference, workload, offline, _ = cluster_setup
        cells = [("tree", inference, None, workload, offline), *ragged_cells]
        for name, inference, max_level, workload, offline in cells:
            with ClusterRuntime(
                inference,
                get_medium("wired-1gbps"),
                ServeConfig(
                    max_batch=16, queue_depth=512,
                    max_level=max_level,
                ),
                cluster=ClusterConfig(workers=1),
            ) as runtime:
                assert runtime.zero_copy, name
                result = runtime.serve_open_loop(
                    workload, rate_rps=2000.0, seed=1
                )
            assert_matches_offline(result, offline, cell=name)
            assert result.topology["workers"] == 1, name
            assert result.degraded_rate == 0.0, name

    def test_lone_arrival_dispatched_to_idle_worker(self, cluster_setup):
        """An arrival that finds an idle worker goes out in the
        same router pass: nothing is held back waiting for company. The
        second arrival is far off, so the first is not the last either."""
        inference, workload, _, _ = cluster_setup
        pair = make_workload(
            workload.features[:2], inference,
            start_leaves=workload.start_leaves[:2],
        )
        with ClusterRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(),
            cluster=ClusterConfig(workers=1),
        ) as runtime:
            result = runtime.serve_open_loop(
                pair, rate_rps=1.0, arrivals=np.array([0.0, 0.2])
            )
        first = next(r for r in result.responses if r.index == 0)
        assert first.timings.queue_wait_ms < 1.0

    def test_two_worker_fleet_matches_offline(self, cluster_setup):
        inference, workload, offline, _ = cluster_setup
        with ClusterRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=16, queue_depth=512),
            cluster=ClusterConfig(workers=2),
        ) as runtime:
            assert runtime.zero_copy
            result = runtime.serve_open_loop(workload, rate_rps=2000.0, seed=1)
            topology = runtime.topology()
            # a t=0 burst of six full batches: the one backlog goes out
            # in max_batch slices, each to the least-loaded replica, so
            # neither worker is handed more than the other's share
            n = 6 * 16
            head = make_workload(
                workload.features[:n], inference,
                start_leaves=workload.start_leaves[:n],
            )
            before = [i.n_dispatched for i in runtime.registry.replicas()]
            burst = runtime.serve_open_loop(
                head, rate_rps=1.0, arrivals=np.zeros(n)
            )
            per_replica = [
                i.n_dispatched - n0
                for i, n0 in zip(runtime.registry.replicas(), before)
            ]
        assert_matches_offline(result, offline)
        assert np.array_equal(
            burst.to_outcome().labels, offline.labels[:n]
        )
        assert topology["workers"] == 2
        assert topology["shared_memory_bytes"] > 0
        assert sum(per_replica) == n
        assert max(per_replica) - min(per_replica) <= 16

    def test_burst_is_walked_as_few_cohorts(self, cluster_setup):
        """A t=0 burst of five full dispatches reaches one worker faster
        than it walks them: it walks what is queued at once, in fewer
        walks than dispatches, and answers as the offline walk does."""
        inference, workload, _, _ = cluster_setup
        max_batch = 16
        head, offline = offline_head(inference, workload, 5 * max_batch)
        obs.reset()
        obs.enable()
        try:
            with ClusterRuntime(
                inference,
                get_medium("wired-1gbps"),
                ServeConfig(max_batch=max_batch),
                cluster=ClusterConfig(workers=1),
            ) as runtime:
                result = runtime.serve_open_loop(
                    head, rate_rps=1.0, arrivals=np.zeros(len(head))
                )
            walks = worker_counter(obs.snapshot(), "cluster.worker.batches")
        finally:
            obs.disable()
            obs.reset()
        assert_matches_offline(result, offline)
        assert result.degraded_rate == 0.0
        assert 1 <= walks < 5

    def test_stop_during_a_drain_says_bye_after_the_answers(
        self, cluster_setup
    ):
        inference, workload, offline, _ = cluster_setup
        dispatches = [[0, 1, 2], [3, 4], [5, 6, 7, 8]]
        out = run_worker(
            inference,
            [("warm",)]
            + [batch_task(workload, i, ix) for i, ix in enumerate(dispatches)]
            + [("stop",)],
            max_batch=32, queue_depth=64,
        )
        assert [msg[0] for msg in out] == ["ready", "hb", "done", "bye"]
        done = out[2]
        assert done[2] == list(enumerate(dispatches))
        rows = [i for ix in dispatches for i in ix]
        assert done[3] == offline.labels[rows].tolist()
        assert done[5] == offline.deciding_node[rows].tolist()
        assert worker_counter(out[3][2], "cluster.worker.batches") == 1
        assert worker_counter(out[3][2], "cluster.worker.requests") == 9

    def test_walk_bounds(self, cluster_setup, monkeypatch):
        """A walk stays within ``queue_depth`` x the node count rows (a
        single dispatch is always walked), and no node visit predicts
        more than ``max_batch`` rows."""
        inference, workload, offline, _ = cluster_setup
        queue_depth, max_batch = 1, 2
        bound = queue_depth * len(inference.federation.hierarchy.nodes)
        assert bound == 5
        sizes = [3, 2, 4, 1, 6]
        starts = np.cumsum([0] + sizes)
        dispatches = [
            list(range(lo, hi)) for lo, hi in zip(starts, starts[1:])
        ]
        widths = []
        predict = HDClassifier.predict

        def counting(self, encoded, search=None):
            widths.append(len(encoded))
            return predict(self, encoded, search=search)

        monkeypatch.setattr(HDClassifier, "predict", counting)
        out = run_worker(
            inference,
            [batch_task(workload, i, ix) for i, ix in enumerate(dispatches)]
            + [("stop",)],
            max_batch=max_batch, queue_depth=queue_depth,
        )
        done = [msg for msg in out if msg[0] == "done"]
        assert [[b for b, _ in msg[2]] for msg in done] == [[0, 1], [2, 3], [4]]
        for msg in done:
            rows = [i for _, ix in msg[2] for i in ix]
            assert len(rows) <= max(bound, len(msg[2][0][1]))
            assert msg[3] == offline.labels[rows].tolist()
        assert out[-1][0] == "bye"
        assert widths and max(widths) <= max_batch

    def test_walk_with_a_redispatched_batch_is_taken_whole_or_not_at_all(
        self, cluster_setup
    ):
        """A walk's escalation counts cannot be split per dispatch, so a
        walk that took a dispatch an eviction already sent elsewhere is
        dropped whole: its answers and counts are not used, and its
        live dispatches go out again."""
        inference, workload, _, _ = cluster_setup
        n = 8
        head, offline = offline_head(inference, workload, n)
        runtime = ClusterRuntime(
            inference, get_medium("wired-1gbps"), ServeConfig(max_batch=n),
            cluster=ClusterConfig(workers=1),
        )
        leaf = int(head.start_leaves[0])
        root = inference.federation.hierarchy.root_id
        task_q, result_q = queue.Queue(), queue.Queue()
        # Batch 0 (the router's first dispatch) walked with batch 99,
        # which is not outstanding: wrong answers, inflated counts.
        result_q.put((
            "done", 0, [(99, [0]), (0, list(range(n)))],
            [-1] * (n + 1), [0.0] * (n + 1), [root] * (n + 1),
            [1] * (n + 1), [(leaf, root, 1000)], 0.0, 0.0,
        ))
        with SharedModelStore.publish(inference.federation) as store:
            worker = threading.Thread(
                target=_worker_main,
                args=(
                    worker_spec(inference, store, max_batch=n, queue_depth=64),
                    task_q, result_q,
                ),
                daemon=True,
            )
            runtime._task_qs = [task_q]
            runtime._result_q = result_q
            runtime.registry.register(0, time.monotonic())
            runtime._started = True
            worker.start()
            try:
                result = runtime.serve_open_loop(
                    head, rate_rps=1.0, arrivals=np.zeros(n)
                )
            finally:
                task_q.put(("stop",))
                worker.join(timeout=30)
        assert not worker.is_alive()
        assert_matches_offline(result, offline)
        assert result.n_retries >= n
        assert result.degraded_rate == 0.0

    def test_shed_policy_bounds_the_backlog(self, cluster_setup):
        """``queue_depth`` bounds the router's one backlog (buffered plus
        in flight): a t=0 burst past it sheds the excess at admission,
        every request gets exactly one response, and what is answered
        is the offline walk's answer."""
        inference, workload, offline, _ = cluster_setup
        depth = 8
        n = len(workload)
        assert n > depth
        with ClusterRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=4, queue_depth=depth, policy="shed"),
            cluster=ClusterConfig(workers=2),
        ) as runtime:
            result = runtime.serve_open_loop(
                workload, rate_rps=1.0, arrivals=np.zeros(n)
            )
        assert [r.index for r in result.responses] == list(range(n))
        shed = [r for r in result.responses if r.shed]
        assert shed and result.n_shed_admission == len(shed)
        assert result.n_answered == n - len(shed)
        assert max(result.queue_high_water.values()) <= depth
        for r in result.answered:
            assert not r.degraded
            assert r.label == offline.labels[r.index]
            assert r.deciding_node == offline.deciding_node[r.index]
            assert r.deciding_level == offline.deciding_level[r.index]

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API"
    )
    def test_workers_pinned_one_cpu_each(self, cluster_setup):
        inference, _, _, _ = cluster_setup
        cpus = sorted(os.sched_getaffinity(0))
        with ClusterRuntime(
            inference, get_medium("wired-1gbps"), ServeConfig(),
            cluster=ClusterConfig(workers=3),
        ) as runtime:
            pinned = [os.sched_getaffinity(p.pid) for p in runtime._procs]
        assert pinned == [{cpus[i % len(cpus)]} for i in range(3)]

    def test_killed_worker_is_evicted_and_work_redispatched(
        self, cluster_setup
    ):
        inference, workload, offline, _ = cluster_setup
        plan = FaultPlan(crash_windows={0: (0.0, float("inf"))})
        with ClusterRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=16, queue_depth=512),
            cluster=ClusterConfig(
                workers=2,
                heartbeat_interval_s=0.02,
                heartbeat_timeout_s=0.3,
            ),
            fault_plan=plan,
        ) as runtime:
            result = runtime.serve_open_loop(workload, rate_rps=2000.0, seed=1)
            evicted = runtime.registry.n_evicted
        assert evicted >= 1
        assert result.n_answered == len(workload)
        out = result.to_outcome()
        assert np.array_equal(out.labels, offline.labels)
        assert np.array_equal(out.deciding_node, offline.deciding_node)

    def test_local_fallback_answers_degraded(self, cluster_setup):
        """Fleet-down path: the router's own walk answers correctly but
        flags every response degraded (exercised without processes)."""
        inference, workload, offline, _ = cluster_setup
        runtime = ClusterRuntime(
            inference, get_medium("wired-1gbps"), ServeConfig()
        )
        n = min(8, len(workload))
        indices = list(range(n))
        responses: dict = {}
        escalations: dict = {}
        runtime._answer_locally(
            workload, indices, 0.0, np.zeros(len(workload)),
            responses, escalations,
        )
        assert sorted(responses) == indices
        for idx in indices:
            assert responses[idx].degraded is True
            assert responses[idx].label == int(offline.labels[idx])


@pytest.mark.scenario
class TestSigkillMidWalk:
    def test_every_request_answered_once_after_a_kill_mid_walk(
        self, cluster_setup, monkeypatch, tmp_path
    ):
        """The first worker to start a walk of several dispatches is
        SIGKILLed between its leaf and gateway visits. Every dispatch
        it held goes to the survivor: each request is answered once, as
        the offline walk answers it, with the offline wire bytes, and no
        shared-memory segment is left behind.

        A walk holds several dispatches only if they were queued before
        the worker drained its queue, so that is made certain: a
        worker's first batch waits for a gate file the router creates
        once it has queued every full dispatch of the t=0 burst, and
        the drain then takes each dispatch already put for it."""
        inference, workload, offline, _ = cluster_setup
        max_batch = 16
        router = os.getpid()
        leaves = set(inference.federation.hierarchy.leaves())
        killed = tmp_path / "killed"
        gate = tmp_path / "burst-queued"
        burst_dispatches = len(workload) // max_batch
        assert burst_dispatches >= 6, "each worker needs three dispatches"
        walk_rows = {}
        run, step = HierarchicalInference.run, HierarchicalInference.step
        put, get = mp_queues.Queue.put, mp_queues.Queue.get
        queued = []

        def gated_put(self, obj, *args, **kwargs):
            put(self, obj, *args, **kwargs)
            if os.getpid() == router and obj[0] == "batch":
                queued.append(obj[1])
                if len(queued) == burst_dispatches:
                    gate.touch()

        def gated_get(self, block=True, timeout=None):
            if os.getpid() == router:
                return get(self, block, timeout)
            if not block and gate.exists() and self.qsize() > 0:
                # Already put, so it is on its way: the router's feeder
                # thread may not have written it to the pipe yet.
                return get(self, True, 10.0)
            msg = get(self, block, timeout)
            deadline = time.monotonic() + 10.0
            while (
                msg[0] == "batch"
                and not gate.exists()
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            return msg

        def recording_run(self, features, *args, **kwargs):
            walk_rows["n"] = len(features)
            return run(self, features, *args, **kwargs)

        def killing_step(self, node_id, *args, **kwargs):
            if (
                os.getpid() != router
                and walk_rows.get("n", 0) > 2 * max_batch
                and node_id not in leaves
            ):
                try:  # one worker dies; the other must survive
                    os.close(os.open(killed, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
            return step(self, node_id, *args, **kwargs)

        answered = []
        respond = ClusterRuntime._respond

        def counting_respond(self, responses, workload, indices, *a, **kw):
            answered.extend(indices)
            return respond(self, responses, workload, indices, *a, **kw)

        monkeypatch.setattr(HierarchicalInference, "run", recording_run)
        monkeypatch.setattr(HierarchicalInference, "step", killing_step)
        monkeypatch.setattr(ClusterRuntime, "_respond", counting_respond)
        monkeypatch.setattr(mp_queues.Queue, "put", gated_put)
        monkeypatch.setattr(mp_queues.Queue, "get", gated_get)
        segments = set(os.listdir("/dev/shm"))
        with ClusterRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=max_batch),
            cluster=ClusterConfig(
                workers=2, heartbeat_interval_s=0.02, heartbeat_timeout_s=0.3,
            ),
        ) as runtime:
            result = runtime.serve_open_loop(
                workload, rate_rps=1.0, arrivals=np.zeros(len(workload))
            )
            evicted = runtime.registry.n_evicted
        assert killed.exists()
        assert evicted >= 1
        assert result.n_retries > max_batch
        assert sorted(answered) == list(range(len(workload)))
        assert_matches_offline(result, offline)
        assert set(os.listdir("/dev/shm")) <= segments


class TestLazyEncodings:
    def test_lazy_matches_eager_bitwise(self, trained_federation):
        federation, _, data = trained_federation
        rows = data.test_x[:16]
        eager = federation.encode_all(rows)
        lazy = federation.encode_lazy(rows)
        assert lazy.n_materialized == 0
        for node_id, encoded in eager.items():
            assert np.array_equal(lazy.own(node_id), encoded)
        assert lazy.n_materialized == len(eager)

    def test_only_touched_subtree_materializes(self, trained_federation):
        federation, _, data = trained_federation
        lazy = federation.encode_lazy(data.test_x[:4])
        leaf = federation.hierarchy.leaves()[0]
        lazy.own(leaf)
        assert lazy.n_materialized == 1

    def test_prefill_seeds_the_cache(self, trained_federation):
        federation, _, data = trained_federation
        rows = data.test_x[:4]
        leaf = federation.hierarchy.leaves()[0]
        seeded = federation.encode_lazy(
            rows, prefill={leaf: federation.encode_leaf(leaf, rows)}
        )
        assert seeded.n_materialized == 1
        assert np.array_equal(
            seeded.own(leaf), federation.encode_all(rows)[leaf]
        )

    def test_unknown_node_rejected(self, trained_federation):
        federation, _, data = trained_federation
        lazy = federation.encode_lazy(data.test_x[:2])
        with pytest.raises(KeyError):
            lazy.own(10_000)
        with pytest.raises(KeyError):
            federation.encode_lazy(data.test_x[:2], prefill={10_000: None})
