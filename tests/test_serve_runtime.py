"""End-to-end tests of the asyncio serving runtime.

The load-bearing property: micro-batched serving gives **identical**
answers to the offline batch walk (``HierarchicalInference.run``) on
the same queries with the same seed — same labels, same deciding nodes
and levels, same escalation decisions, same message accounting.
Confidence is compared with ``allclose`` for the dense backend (BLAS
accumulation order varies with batch shape, last-ulp only); the packed
backend's integer similarities make even confidences bitwise equal.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.core.search import SearchSpec
from repro.hierarchy import HierarchicalInference
from repro.network.medium import get_medium
from repro.serve import ServeConfig, ServingRuntime, make_workload
from repro.serve.runtime import _NodeServer


def _msg_key(m):
    return (m.source, m.destination, m.kind, m.payload_bytes)


@pytest.fixture(scope="module")
def serve_setup(trained_federation):
    federation, _, data = trained_federation
    inference = HierarchicalInference(federation, confidence_threshold=0.7)
    workload = make_workload(
        data.test_x, inference, seed=3, labels=data.test_y
    )
    offline = inference.run(data.test_x, seed=3)
    return inference, workload, offline, data


class TestEquivalence:
    def _assert_equivalent(
        self, result, offline, exact_confidence=False, cell="tree"
    ):
        out = result.to_outcome()
        assert np.array_equal(out.labels, offline.labels), cell
        assert np.array_equal(out.deciding_node, offline.deciding_node), cell
        assert np.array_equal(
            out.deciding_level, offline.deciding_level
        ), cell
        assert np.array_equal(out.start_leaf, offline.start_leaf), cell
        if exact_confidence:
            assert np.array_equal(out.confidence, offline.confidence), cell
        else:
            assert np.allclose(out.confidence, offline.confidence), cell
        assert sorted(map(_msg_key, out.messages)) == sorted(
            map(_msg_key, offline.messages)
        ), cell
        assert out.total_bytes == offline.total_bytes, cell

    def test_open_loop_matches_offline(self, serve_setup, ragged_cells):
        inference, workload, offline, _ = serve_setup
        cells = [("tree", inference, None, workload, offline), *ragged_cells]
        for name, inference, max_level, workload, offline in cells:
            runtime = ServingRuntime(
                inference,
                get_medium("wired-1gbps"),
                ServeConfig(
                    max_batch=16, queue_depth=512,
                    max_level=max_level,
                ),
            )
            result = runtime.serve_open_loop(
                workload, rate_rps=3000.0, seed=1
            )
            assert result.n_shed == 0, name
            assert result.n_answered == len(workload), name
            self._assert_equivalent(result, offline, cell=name)

    def test_batch_window_does_not_change_answers(self, serve_setup):
        """Different micro-batch composition, same decisions — encoding
        and search are deterministic per row."""
        inference, workload, offline, _ = serve_setup
        for max_batch in (1, 64):
            runtime = ServingRuntime(
                inference,
                get_medium("wired-1gbps"),
                ServeConfig(max_batch=max_batch, queue_depth=1024),
            )
            result = runtime.serve_open_loop(
                workload, rate_rps=5000.0, seed=1
            )
            assert result.n_shed == 0
            self._assert_equivalent(result, offline)

    def test_packed_backend_bitwise_equal(self, trained_federation):
        federation, _, data = trained_federation
        inference = HierarchicalInference(
            federation, confidence_threshold=0.7,
            search=SearchSpec(backend="packed"),
        )
        workload = make_workload(data.test_x, inference, seed=3)
        offline = inference.run(data.test_x, seed=3)
        runtime = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=16, queue_depth=512),
        )
        result = runtime.serve_open_loop(workload, rate_rps=3000.0, seed=2)
        assert result.n_shed == 0
        self._assert_equivalent(result, offline, exact_confidence=True)

    def test_min_and_max_level_respected(self, trained_federation):
        federation, _, data = trained_federation
        depth = federation.hierarchy.depth
        inference = HierarchicalInference(
            federation, confidence_threshold=0.99, min_level=2
        )
        x = data.test_x[:40]
        offline = inference.run(x, max_level=depth, seed=5)
        workload = make_workload(x, inference, seed=5)
        runtime = ServingRuntime(
            inference,
            get_medium("wifi-802.11ac"),
            ServeConfig(
                max_batch=8, queue_depth=256,
                max_level=depth,
            ),
        )
        result = runtime.serve_open_loop(workload, rate_rps=2000.0, seed=5)
        assert result.n_shed == 0
        self._assert_equivalent(result, offline)
        out = result.to_outcome()
        assert out.deciding_level.min() >= 2

    def test_wire_bytes_at_least_offline(self, serve_setup):
        """Per-flush bundle fragmentation can only add bytes on the
        live wire relative to the aggregated offline accounting."""
        inference, workload, offline, _ = serve_setup
        runtime = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=4, queue_depth=512),
        )
        result = runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)
        assert result.wire_bytes >= offline.total_bytes
        assert result.energy_j > 0

    def test_closed_loop_matches_offline(self, serve_setup, ragged_cells):
        inference, workload, offline, _ = serve_setup
        cells = [("tree", inference, None, workload, offline), *ragged_cells]
        for name, inference, max_level, workload, offline in cells:
            runtime = ServingRuntime(
                inference,
                get_medium("wired-1gbps"),
                ServeConfig(
                    max_batch=8, queue_depth=256,
                    max_level=max_level,
                ),
            )
            result = runtime.serve_closed_loop(workload, n_clients=8)
            assert result.n_answered == len(workload), name
            self._assert_equivalent(result, offline, cell=name)

    def test_accuracy_matches_offline(self, serve_setup):
        inference, workload, offline, data = serve_setup
        runtime = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(queue_depth=512),
        )
        result = runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)
        served_labels = np.asarray([r.label for r in result.responses])
        assert workload.accuracy(served_labels) == pytest.approx(
            float(np.mean(offline.labels == data.test_y))
        )


class TestOverloadAndBackpressure:
    def test_shed_policy_bounds_memory_and_terminates(self, serve_setup):
        """Overload with shedding: the run finishes, sheds are counted,
        and no inbox ever exceeds its bound."""
        inference, workload, _, _ = serve_setup
        runtime = ServingRuntime(
            inference,
            get_medium("bluetooth-4.0"),
            ServeConfig(
                max_batch=4,
                queue_depth=4,
                policy="shed",
                service_time_base_s=0.004,
            ),
        )
        result = runtime.serve_open_loop(workload, rate_rps=5000.0, seed=1)
        assert result.n_total == len(workload)
        assert result.n_shed > 0
        assert result.n_shed == result.n_shed_admission + result.n_shed_escalation
        assert max(result.queue_high_water.values()) <= 4
        # Every request got a terminal response: answered or rejected.
        assert result.n_answered + sum(
            1 for r in result.responses if r.rejected
        ) == len(workload)
        with pytest.raises(ValueError, match="shed"):
            result.to_outcome()

    def test_block_policy_loses_nothing_under_overload(self, serve_setup):
        inference, workload, _, _ = serve_setup
        runtime = ServingRuntime(
            inference,
            get_medium("wifi-802.11ac"),
            ServeConfig(
                max_batch=4,
                queue_depth=4,
                policy="block",
                service_time_base_s=0.002,
            ),
        )
        result = runtime.serve_open_loop(workload, rate_rps=5000.0, seed=1)
        assert result.n_shed == 0
        assert result.n_answered == len(workload)
        assert max(result.queue_high_water.values()) <= 4

    def test_shed_responses_flagged(self, serve_setup):
        inference, workload, _, _ = serve_setup
        runtime = ServingRuntime(
            inference,
            get_medium("bluetooth-4.0"),
            ServeConfig(
                max_batch=2,
                queue_depth=1,
                policy="shed",
                service_time_base_s=0.01,
            ),
        )
        result = runtime.serve_open_loop(workload, rate_rps=10000.0, seed=1)
        shed_responses = [r for r in result.responses if r.shed]
        assert len(shed_responses) == result.n_shed
        for r in shed_responses:
            # Either rejected outright or degraded to a real decision.
            assert r.rejected or r.deciding_node >= 0


class TestWorkConservingBatching:
    def test_lone_request_pays_no_batch_window(self, trained_federation):
        """A request alone in the system is flushed at every hop as soon
        as it is dequeued: no node waits for company that is not
        coming."""
        federation, _, data = trained_federation
        inference = HierarchicalInference(
            federation, confidence_threshold=1.0
        )
        workload = make_workload(data.test_x[:1], inference, seed=0)
        runtime = ServingRuntime(
            inference, get_medium("wired-1gbps"), ServeConfig()
        )
        result = runtime.serve_open_loop(workload, rate_rps=1.0, seed=0)
        (response,) = result.responses
        assert response.deciding_level == federation.hierarchy.depth
        # Summed over three hops; a 2 ms window per hop read ~4.5 ms.
        assert response.timings.queue_wait_ms < 1.0

    def test_latency_counts_from_due_time(self, serve_setup):
        """Under ``block`` a request whose admission stalls behind a full
        inbox is charged the stall: latency runs from when it was due,
        not from when the inbox finally took it."""
        inference, workload, _, _ = serve_setup
        service_s = 0.02
        runtime = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(
                max_batch=1, queue_depth=1, policy="block",
                service_time_base_s=service_s, max_level=1,
            ),
        )
        leaf = workload.start_leaves[0]
        n = 4
        one_leaf = make_workload(
            workload.features[:n], inference,
            start_leaves=np.full(n, leaf),
        )
        result = runtime.serve_open_loop(
            one_leaf, rate_rps=1.0, arrivals=np.zeros(n)
        )
        by_index = {r.index: r.timings.total_ms for r in result.responses}
        # All four are due at t=0 and the leaf serves one per flush, so
        # the last one completes after four service times.
        assert by_index[n - 1] >= n * service_s * 1e3


class TestNodeTaskDeath:
    @pytest.mark.parametrize("loop", ["open", "closed"])
    def test_dead_node_task_fails_the_run(self, serve_setup, monkeypatch, loop):
        """A node task that dies takes with it the answers (and the
        inbox space) the drive waits for: the run must re-raise what
        killed it instead of waiting forever. Served from a thread so
        the *test* is bounded even where the run is not."""
        inference, workload, _, _ = serve_setup

        async def exploding(self, batch):
            raise RuntimeError("node exploded")

        monkeypatch.setattr(_NodeServer, "_process", exploding)
        runtime = ServingRuntime(
            inference, get_medium("wired-1gbps"), ServeConfig(queue_depth=4)
        )
        raised = []

        def serve():
            try:
                if loop == "open":
                    runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)
                else:
                    runtime.serve_closed_loop(workload, n_clients=4)
            except RuntimeError as exc:
                raised.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive(), "the run hung on a dead node task"
        assert [str(exc) for exc in raised] == ["node exploded"]


class TestTimingsAndObs:
    def test_stage_timings_populated(self, serve_setup):
        inference, workload, _, _ = serve_setup
        runtime = ServingRuntime(
            inference,
            get_medium("wifi-802.11ac"),
            ServeConfig(max_batch=16, queue_depth=512),
        )
        result = runtime.serve_open_loop(workload, rate_rps=2000.0, seed=4)
        escalated = [
            r for r in result.answered if r.timings.escalation_rtt_ms > 0
        ]
        assert escalated, "threshold 0.7 must escalate some queries"
        for r in result.answered:
            assert r.timings.total_ms > 0
            assert r.timings.queue_wait_ms >= 0
            assert r.timings.encode_ms > 0
            assert r.timings.search_ms > 0
        pct = result.stage_breakdown()
        assert pct["total_ms"]["p99"] >= pct["total_ms"]["p50"] > 0
        assert result.throughput_rps > 0
        assert "p99" in result.summary()

    def test_obs_counters_recorded(self, serve_setup):
        inference, workload, _, _ = serve_setup
        runtime = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=16, queue_depth=512),
        )
        obs.reset()
        obs.enable()
        try:
            runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)
            snap = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()
        n = len(workload)
        assert snap["serve.requests"]["value"] == n
        assert snap["serve.responses"]["value"] == n
        assert snap["serve.batches"]["value"] > 0
        assert snap["serve.escalated"]["value"] > 0
        assert snap["serve.latency.total_ms"]["count"] == n
        assert snap["serve.batch_size"]["count"] > 0

    def test_media_by_level_override(self, serve_setup):
        """A slower leaf uplink must raise escalation RTT."""
        inference, workload, _, _ = serve_setup
        fast = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(queue_depth=512),
        )
        slow = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(queue_depth=512),
            media_by_level={1: get_medium("bluetooth-4.0")},
        )
        r_fast = fast.serve_open_loop(workload, rate_rps=2000.0, seed=4)
        r_slow = slow.serve_open_loop(workload, rate_rps=2000.0, seed=4)
        assert (
            r_slow.latencies_ms("escalation_rtt_ms").sum()
            > r_fast.latencies_ms("escalation_rtt_ms").sum()
        )
        assert r_slow.energy_j != r_fast.energy_j
