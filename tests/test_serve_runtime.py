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

import asyncio
import gc
import logging
import math
import socket
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core.search import SearchSpec
from repro.hierarchy import HierarchicalInference
from repro.hierarchy.inference import PREDICTION_BYTES
from repro.network.medium import get_medium
from repro.serve import FaultPlan, ServeConfig, ServingRuntime, make_workload
from repro.serve.clock import run_virtual
from repro.serve.faults import MAX_ATTEMPTS
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


def _bounded(serve, timeout_s=30.0):
    """``serve()`` from a thread, so the *test* is bounded even where
    the run is not; returns its result or re-raises what it raised."""
    out, raised = [], []

    def target():
        try:
            out.append(serve())
        except Exception as exc:  # handed back to the test thread
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=timeout_s)
    assert not thread.is_alive(), "the run hung"
    if raised:
        raise raised[0]
    return out[0]


def _one_response_each(result, workload):
    assert sorted(r.index for r in result.responses) == list(
        range(len(workload))
    )


class TestCountedCompletion:
    """The open-loop drive awaits one future, set when the count of
    unanswered requests reaches zero: every way a request can end must
    count once, or the run would hang or end early."""

    def test_shedding_run(self, serve_setup):
        inference, workload, _, _ = serve_setup
        runtime = ServingRuntime(
            inference, get_medium("bluetooth-4.0"),
            ServeConfig(max_batch=2, queue_depth=1, policy="shed",
                        service_time_base_s=0.002),
        )
        result = _bounded(
            lambda: runtime.serve_open_loop(workload, 10000.0, seed=1)
        )
        _one_response_each(result, workload)
        assert result.n_shed > 0

    def test_crashed_entry_leaf_rejects(self, serve_setup):
        inference, workload, _, _ = serve_setup
        victim = int(workload.start_leaves[0])
        runtime = ServingRuntime(
            inference, get_medium("wired-1gbps"),
            ServeConfig(queue_depth=512),
            fault_plan=FaultPlan(crash_windows={victim: (0.0, math.inf)}),
        )
        result = _bounded(
            lambda: runtime.serve_open_loop(workload, 3000.0, seed=1)
        )
        _one_response_each(result, workload)
        rejected = [r.index for r in result.responses if r.rejected]
        assert rejected == list(
            np.flatnonzero(workload.start_leaves == victim)
        )

    def test_retries_exhausted_degrade(self, serve_setup):
        inference, workload, offline, _ = serve_setup
        runtime = ServingRuntime(
            inference, get_medium("wired-1gbps"),
            ServeConfig(queue_depth=512),
            fault_plan=FaultPlan(seed=5, drop_probability=1.0),
        )
        result = _bounded(
            lambda: runtime.serve_open_loop(workload, 3000.0, seed=1)
        )
        _one_response_each(result, workload)
        # nothing gets past its first uplink: what escalated offline
        # degrades, the rest answers as offline
        escalated = offline.deciding_level > 1
        assert escalated.any()
        degraded = np.array([r.degraded for r in result.responses])
        assert np.array_equal(degraded, escalated)
        assert result.n_retries == (MAX_ATTEMPTS - 1) * result.n_degraded

    @pytest.mark.parametrize("descended", [False, True])
    def test_double_finish_fails_the_run(
        self, serve_setup, monkeypatch, caplog, descended
    ):
        """A request finished twice would count twice and could end the
        run before another request is answered; the second finish
        raises instead, on the inline and on the descent-timer path."""
        inference, workload, _, _ = serve_setup
        finish = ServingRuntime._finish
        doubled = []

        def twice(self, req, *args, **kwargs):
            finish(self, req, *args, **kwargs)
            if not doubled and bool(req.charged_path) == descended:
                doubled.append(req.index)
                finish(self, req, *args, **kwargs)

        monkeypatch.setattr(ServingRuntime, "_finish", twice)
        runtime = ServingRuntime(
            inference, get_medium("wifi-802.11ac"), ServeConfig()
        )
        with caplog.at_level(logging.CRITICAL, logger="asyncio"):
            with pytest.raises(RuntimeError, match="finished twice"):
                _bounded(
                    lambda: runtime.serve_open_loop(workload, 3000.0, seed=1)
                )
        assert len(doubled) == 1


class TestAdmission:
    def test_burst_under_block_admits_in_arrival_order(
        self, serve_setup, monkeypatch
    ):
        """A t=0 burst into one-slot inboxes: admission waits on each
        full inbox in turn, and never overfills one, reorders a
        request or changes an answer."""
        inference, workload, offline, _ = serve_setup
        admitted, served = [], []
        admit, process = ServingRuntime._admit, _NodeServer._process

        def recording_admit(self, req, arrival_s, now):
            admitted.append(req.index)
            return admit(self, req, arrival_s, now)

        async def recording_process(self, batch):
            served.append((self.node_id, [req.index for req in batch]))
            await process(self, batch)

        monkeypatch.setattr(ServingRuntime, "_admit", recording_admit)
        monkeypatch.setattr(_NodeServer, "_process", recording_process)
        runtime = ServingRuntime(
            inference, get_medium("wifi-802.11ac"),
            ServeConfig(max_batch=1, queue_depth=1, policy="block"),
        )
        result = _bounded(lambda: runtime.serve_open_loop(
            workload, 1.0, arrivals=np.zeros(len(workload))
        ))
        assert admitted == list(range(len(workload)))
        assert max(result.queue_high_water.values()) <= 1
        for leaf in inference.federation.hierarchy.leaves():
            at_leaf = [i for node, (i,) in served if node == leaf]
            assert at_leaf == list(
                np.flatnonzero(workload.start_leaves == leaf)
            )
        TestEquivalence()._assert_equivalent(result, offline)


@pytest.mark.filterwarnings("error")
class TestNodeTaskDeath:
    @pytest.mark.parametrize("loop", ["open", "closed"])
    def test_dead_node_task_fails_the_run(
        self, serve_setup, monkeypatch, caplog, loop
    ):
        """A node task that dies takes with it the answers (and the
        inbox space) the drive waits for: the run must re-raise what
        killed it instead of waiting forever, and leave nothing
        scheduled or pending behind."""
        inference, workload, _, _ = serve_setup

        async def exploding(self, batch):
            raise RuntimeError("node exploded")

        monkeypatch.setattr(_NodeServer, "_process", exploding)
        runtime = ServingRuntime(
            inference, get_medium("wired-1gbps"), ServeConfig(queue_depth=4)
        )

        def serve():
            if loop == "open":
                return runtime.serve_open_loop(workload, 3000.0, seed=1)
            return runtime.serve_closed_loop(workload, n_clients=4)

        with pytest.raises(RuntimeError, match="^node exploded$"):
            _bounded(serve, timeout_s=20)
        gc.collect()
        assert runtime._deliveries == {}
        assert "destroyed" not in caplog.text

    def test_death_with_answers_descending(
        self, serve_setup, monkeypatch, caplog
    ):
        """The root dies while answers it gave are still descending:
        teardown cancels their timers."""
        inference, workload, _, _ = serve_setup
        root = inference.federation.hierarchy.root_id
        process = _NodeServer._process
        in_flight = []

        async def dies_second_time(self, batch):
            if self.node_id == root and in_flight:
                raise RuntimeError("root exploded")
            await process(self, batch)
            if self.node_id == root:
                in_flight.append(len(self.runtime._deliveries))

        monkeypatch.setattr(_NodeServer, "_process", dies_second_time)
        runtime = ServingRuntime(
            inference, get_medium("bluetooth-4.0"), ServeConfig()
        )
        with pytest.raises(RuntimeError, match="^root exploded$"):
            _bounded(lambda: runtime.serve_open_loop(
                workload, 1.0, arrivals=np.zeros(len(workload))
            ))
        gc.collect()
        assert in_flight[0] > 0, "no descent was in flight at the death"
        assert runtime._deliveries == {}
        assert "destroyed" not in caplog.text


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


class TestVirtualClock:
    """The loop in-process serving runs on: idle waits are skipped,
    real ones are refused, and a wait nothing can end raises."""

    def test_idle_wait_costs_no_wall_time(self):
        async def main():
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await asyncio.sleep(3600)
            return loop.time() - t0

        start = time.perf_counter()
        advanced = run_virtual(main())
        assert time.perf_counter() - start < 1.0
        assert advanced >= 3600

    def test_timers_fire_in_due_order(self):
        async def main():
            fired = []
            loop = asyncio.get_running_loop()
            t0 = loop.time()

            async def wake(delay):
                await asyncio.sleep(delay)
                fired.append((delay, loop.time() - t0))

            await asyncio.gather(*(wake(d) for d in (30.0, 0.5, 7.0)))
            return fired

        fired = run_virtual(main())
        assert [d for d, _ in fired] == [0.5, 7.0, 30.0]
        for due, at in fired:
            assert at >= due

    def test_registered_descriptor_refuses_the_skip(self):
        """A socket could be due any moment: skipping past it would
        hide a real wait."""
        ours, theirs = socket.socketpair()

        async def main():
            loop = asyncio.get_running_loop()
            loop.add_reader(ours.fileno(), lambda: None)
            try:
                await asyncio.sleep(1.0)
            finally:
                loop.remove_reader(ours.fileno())

        try:
            with pytest.raises(RuntimeError, match="file descriptors"):
                _bounded(lambda: run_virtual(main()), timeout_s=10)
        finally:
            ours.close()
            theirs.close()

    def test_wait_nothing_can_end_raises(self):
        async def main():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeError, match="nothing scheduled"):
            _bounded(lambda: run_virtual(main()), timeout_s=10)

    @pytest.mark.filterwarnings("error")
    def test_serving_inside_a_running_loop_raises(self, serve_setup):
        inference, workload, _, _ = serve_setup
        runtime = ServingRuntime(
            inference, get_medium("wired-1gbps"), ServeConfig()
        )

        async def nested():
            runtime.serve_open_loop(workload, 1000.0, seed=1)

        with pytest.raises(RuntimeError, match="running event loop"):
            asyncio.run(nested())


class TestChargedNotSlept:
    def test_simulated_time_is_charged_not_slept(self, serve_setup):
        """A second of simulated compute per flush: every latency pays
        it at each node it visits, and the run pays none of it in wall
        time. One request in flight at a time, so each uplink carries a
        bundle of one and the network part of a latency is exact."""
        inference, workload, _, _ = serve_setup
        hierarchy = inference.federation.hierarchy
        medium = get_medium("wifi-802.11ac")
        runtime = ServingRuntime(
            inference, medium, ServeConfig(service_time_base_s=1.0)
        )
        start = time.perf_counter()
        result = _bounded(lambda: runtime.serve_open_loop(
            workload, 1.0, arrivals=np.arange(len(workload)) * 10.0
        ), timeout_s=10)
        assert time.perf_counter() - start < 1.0
        assert result.n_answered == len(workload)
        climbed_any = False
        for r in result.answered:
            path = [r.start_leaf]
            while path[-1] != r.deciding_node:
                parent = hierarchy.nodes[path[-1]].parent
                assert parent is not None, "deciding node not an ancestor"
                path.append(parent)
            assert r.timings.total_ms >= 1000.0 * len(path)
            rtt_ms = 0.0
            for child, parent in zip(path, path[1:]):
                rtt_ms += 1e3 * (
                    medium.transfer_time(inference.uplink_bytes(parent, 1))
                    + medium.transfer_time(PREDICTION_BYTES)
                )
                climbed_any = True
            assert r.timings.escalation_rtt_ms == pytest.approx(
                rtt_ms, rel=1e-12, abs=1e-12
            )
        assert climbed_any, "threshold 0.7 must escalate some queries"
