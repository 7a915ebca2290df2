"""Unit tests for the serving building blocks.

Covers the bounded queue policies, the micro-batcher's two-condition
flush window (including the item-preservation guarantee across window
timeouts), workloads and arrival processes, and the result/response
containers — everything below the full runtime, which
``test_serve_runtime.py`` exercises end to end.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import (
    BoundedQueue,
    MicroBatcher,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    ServeResult,
    ShedError,
    StageTimings,
    make_workload,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serve.workload import ServeWorkload


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# BoundedQueue
# ----------------------------------------------------------------------
class TestBoundedQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)
        with pytest.raises(ValueError):
            BoundedQueue(4, policy="drop-tail")

    def test_shed_policy_raises_when_full(self):
        async def scenario():
            q = BoundedQueue(2, policy="shed")
            await q.put("a")
            await q.put("b")
            with pytest.raises(ShedError):
                await q.put("c")
            return q

        q = run(scenario())
        assert q.high_water == 2
        assert len(q) == 2

    def test_block_policy_waits_for_space(self):
        async def scenario():
            q = BoundedQueue(1, policy="block")
            await q.put("a")

            async def producer():
                await q.put("b")
                return "done"

            task = asyncio.ensure_future(producer())
            await asyncio.sleep(0.01)
            assert not task.done()  # blocked on the full queue
            assert await q.get() == "a"
            assert await task == "done"
            assert await q.get() == "b"
            return q

        q = run(scenario())
        assert len(q) == 0
        assert q.high_water == 1

    def test_on_put_sees_the_item_land_not_the_blocked_put(self):
        landed = []

        async def scenario():
            q = BoundedQueue(1, policy="block", on_put=landed.append)
            await q.put("a")
            task = asyncio.ensure_future(q.put("b"))
            await asyncio.sleep(0.01)
            assert landed == ["a"]  # "b" waits at the door, not inside
            assert await q.get() == "a"
            await task
            assert landed == ["a", "b"]
            assert await q.get() == "b"

        run(scenario())

    def test_try_put_never_waits(self):
        """The no-wait attempt: a full ``"block"`` queue returns False
        (its caller awaits ``put`` next); a full ``"shed"`` queue
        raises, as ``put`` does."""

        async def scenario():
            block = BoundedQueue(1, policy="block")
            shed = BoundedQueue(1, policy="shed")
            assert block.try_put("a") and shed.try_put("a")
            assert block.try_put("b") is False
            with pytest.raises(ShedError):
                shed.try_put("b")
            return block, shed

        block, shed = run(scenario())
        assert len(block) == len(shed) == 1
        assert block.high_water == shed.high_water == 1

    def test_put_with_room_does_not_suspend(self):
        """``put`` into a queue with room completes on its first step:
        nothing else runs in between."""

        async def scenario():
            q = BoundedQueue(2, policy="block")
            ran = []
            asyncio.get_running_loop().call_soon(ran.append, "other")
            await q.put("a")
            return list(ran)

        assert run(scenario()) == []


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_validation(self):
        async def scenario():
            q = BoundedQueue(4)
            with pytest.raises(ValueError):
                MicroBatcher(q, max_batch=0)

        run(scenario())

    def test_flush_on_max_batch(self):
        async def scenario():
            q = BoundedQueue(16)
            b = MicroBatcher(q, max_batch=3)
            for i in range(5):
                await q.put(i)
            first = await b.next_batch()
            second = await b.next_batch()
            return first, second, b

        first, second, b = run(scenario())
        # Full flush at max_batch, then whatever is left is the backlog.
        assert first == [0, 1, 2]
        assert second == [3, 4]
        assert b.n_batches == 2
        assert b.n_items == 5
        assert b.mean_batch_size == pytest.approx(2.5)

    def test_no_item_lost_across_producer_gaps(self):
        """Items trickling in between flushes are each delivered once,
        in order, whether they find the consumer waiting or busy."""

        async def scenario():
            q = BoundedQueue(16)
            b = MicroBatcher(q, max_batch=8)
            received = []

            async def consumer():
                while len(received) < 10:
                    received.extend(await b.next_batch())

            async def producer():
                for i in range(10):
                    await q.put(i)
                    # Awkward gaps: some items arrive to an idle
                    # consumer, some while it is between batches.
                    await asyncio.sleep(0.004 if i % 2 else 0.0)

            await asyncio.wait_for(
                asyncio.gather(consumer(), producer()), timeout=10.0
            )
            return received, b

        received, b = run(scenario())
        assert received == list(range(10))
        assert b.n_items == 10


# ----------------------------------------------------------------------
# Workload + arrivals
# ----------------------------------------------------------------------
class TestWorkload:
    def test_make_workload_matches_offline_seed_derivation(
        self, trained_federation
    ):
        from repro.hierarchy import HierarchicalInference

        federation, _, data = trained_federation
        inference = HierarchicalInference(federation)
        wl = make_workload(data.test_x, inference, seed=9, labels=data.test_y)
        offline = inference.run(data.test_x, seed=9)
        assert np.array_equal(wl.start_leaves, offline.start_leaf)
        assert len(wl) == data.test_x.shape[0]
        assert 0.0 <= wl.accuracy(data.test_y) <= 1.0

    def test_explicit_start_leaves_validated(self, trained_federation):
        from repro.hierarchy import HierarchicalInference

        federation, _, data = trained_federation
        inference = HierarchicalInference(federation)
        root = federation.hierarchy.root_id
        with pytest.raises(ValueError, match="non-leaf"):
            make_workload(
                data.test_x,
                inference,
                start_leaves=np.full(data.test_x.shape[0], root),
            )

    def test_workload_shape_validation(self):
        feats = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ValueError):
            ServeWorkload(features=feats, start_leaves=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            ServeWorkload(
                features=feats,
                start_leaves=np.zeros(5, dtype=int),
                labels=np.zeros(3, dtype=int),
            )
        wl = ServeWorkload(features=feats, start_leaves=np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="no ground-truth"):
            wl.accuracy(np.zeros(5))

    def test_poisson_arrivals_reproducible_and_rate_correct(self):
        a1 = poisson_arrivals(4000, rate_rps=100.0, seed=7)
        a2 = poisson_arrivals(4000, rate_rps=100.0, seed=7)
        a3 = poisson_arrivals(4000, rate_rps=100.0, seed=8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)
        assert np.all(np.diff(a1) >= 0)
        # Mean interarrival ~ 1/rate (law of large numbers, loose).
        assert a1[-1] / 4000 == pytest.approx(0.01, rel=0.1)

    def test_uniform_arrivals(self):
        a = uniform_arrivals(4, rate_rps=10.0)
        assert np.allclose(a, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError):
            uniform_arrivals(-1, rate_rps=10.0)
        with pytest.raises(ValueError):
            poisson_arrivals(4, rate_rps=0.0)


# ----------------------------------------------------------------------
# ServeConfig + result containers
# ----------------------------------------------------------------------
class TestConfigAndResult:
    def test_config_validation(self):
        for bad in (
            dict(max_batch=0),
            dict(queue_depth=0),
            dict(policy="nope"),
            dict(service_time_base_s=-1.0),
            dict(service_time_base_s=float("nan")),
            dict(service_time_base_s=float("inf")),
        ):
            with pytest.raises(ValueError):
                ServeConfig(**bad)

    def test_per_query_types_have_no_instance_dict(self):
        """The runtime builds one of each per query; a finished result
        keeps the responses and their timings."""
        timings = StageTimings()
        for instance in (
            timings,
            ServeRequest(index=0, features=np.zeros(3), start_leaf=0),
            ServeResponse(
                index=0, start_leaf=0, label=1, confidence=0.5,
                deciding_node=0, deciding_level=1, shed=False,
                timings=timings,
            ),
        ):
            assert not hasattr(instance, "__dict__"), type(instance)
            with pytest.raises(AttributeError):
                instance.undeclared = 1

    def _response(self, index, total_ms, shed=False, node=0):
        t = StageTimings(total_ms=total_ms, queue_wait_ms=total_ms / 2)
        return ServeResponse(
            index=index,
            start_leaf=0,
            label=-1 if node < 0 else 1,
            confidence=0.9,
            deciding_node=node,
            deciding_level=1 if node >= 0 else -1,
            shed=shed,
            timings=t,
        )

    def test_result_percentiles_and_counts(self):
        responses = [self._response(i, float(i + 1)) for i in range(100)]
        responses.append(self._response(100, 0.0, shed=True, node=-1))
        result = ServeResult(
            responses=responses,
            makespan_s=2.0,
            energy_j=0.5,
            wire_bytes=1000,
            escalations={(0, 3): 10},
            messages=[],
            n_shed_admission=1,
            n_shed_escalation=0,
            queue_high_water={0: 4},
        )
        assert result.n_total == 101
        assert result.n_answered == 100  # rejected response excluded
        assert result.n_shed == 1
        assert result.throughput_rps == pytest.approx(50.0)
        pct = result.percentiles()
        assert pct["p50"] == pytest.approx(50.5)
        assert pct["p99"] == pytest.approx(99.01)
        breakdown = result.stage_breakdown()
        assert set(breakdown) == {
            "queue_wait_ms",
            "encode_ms",
            "search_ms",
            "escalation_rtt_ms",
            "total_ms",
        }
        assert breakdown["queue_wait_ms"]["p50"] == pytest.approx(25.25)
        assert "p99" in result.summary()

    def test_result_empty_percentiles(self):
        result = ServeResult(
            responses=[],
            makespan_s=0.0,
            energy_j=0.0,
            wire_bytes=0,
            escalations={},
            messages=[],
            n_shed_admission=0,
            n_shed_escalation=0,
            queue_high_water={},
        )
        assert result.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert result.throughput_rps == 0.0

    def test_to_outcome_refuses_shed_runs(self):
        result = ServeResult(
            responses=[self._response(0, 1.0, shed=True, node=-1)],
            makespan_s=1.0,
            energy_j=0.0,
            wire_bytes=0,
            escalations={},
            messages=[],
            n_shed_admission=1,
            n_shed_escalation=0,
            queue_high_water={},
        )
        with pytest.raises(ValueError, match="shed"):
            result.to_outcome()

    def test_stage_timings_to_dict(self):
        t = StageTimings(queue_wait_ms=1.0, encode_ms=2.0, total_ms=3.0)
        d = t.to_dict()
        assert d["queue_wait_ms"] == 1.0
        assert d["encode_ms"] == 2.0
        assert d["total_ms"] == 3.0
