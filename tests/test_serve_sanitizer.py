"""Tests for the REPRO_SAN dynamic race sanitizer."""

from __future__ import annotations

import asyncio
import sys

import numpy as np
import pytest

from repro.hierarchy import HierarchicalInference
from repro.network.medium import get_medium
from repro.serve import ServeConfig, ServingRuntime, make_workload, sanitizer
from repro.serve.batcher import MicroBatcher
from repro.serve.queueing import BoundedQueue
from repro.serve.request import ServeRequest
from repro.serve.sanitizer import (
    GuardedList,
    OwnershipGuard,
    RaceError,
    SanitizedServeRequest,
)


@pytest.fixture()
def san():
    sanitizer.enable(True)
    yield sanitizer
    sanitizer.enable(False)


def _request(index=0):
    return SanitizedServeRequest(
        index=index, features=np.zeros(4), start_leaf=0
    )


class TestOwnershipGuard:
    def test_creator_may_mutate_freely(self):
        guard = OwnershipGuard("x")
        guard.on_mutate("set")
        guard.on_mutate("append")
        assert guard.generation == 2

    def test_mutation_while_enqueued_raises(self):
        guard = OwnershipGuard("x")
        guard.publish()
        with pytest.raises(RaceError, match="while it is enqueued"):
            guard.on_mutate("append")

    def test_acquire_then_mutate_is_allowed(self):
        guard = OwnershipGuard("x")
        guard.publish()
        guard.acquire()
        guard.on_mutate("set")  # no loop -> owner is None, allowed

    def test_acquire_detects_generation_drift(self):
        guard = OwnershipGuard("x")
        guard.publish()
        guard.generation += 1  # a mutation path that bypassed proxies
        with pytest.raises(RaceError, match="changed while enqueued"):
            guard.acquire()

    def test_foreign_task_mutation_raises(self):
        async def main():
            guard = OwnershipGuard("x")
            guard.publish()
            guard.acquire()  # owned by this task

            async def intruder():
                guard.on_mutate("append")

            task = asyncio.ensure_future(intruder())
            with pytest.raises(RaceError, match="owned by"):
                await task

        asyncio.run(main())


class TestGuardedList:
    def test_all_mutators_are_guarded(self):
        guard = OwnershipGuard("req")
        items = GuardedList([1, 2, 3], guard)
        guard.publish()
        for op in (
            lambda: items.append(4),
            lambda: items.extend([4]),
            lambda: items.insert(0, 4),
            lambda: items.remove(1),
            lambda: items.pop(),
            lambda: items.clear(),
            lambda: items.sort(),
            lambda: items.reverse(),
            lambda: items.__setitem__(0, 9),
            lambda: items.__delitem__(0),
            lambda: items.__iadd__([4]),
        ):
            with pytest.raises(RaceError):
                op()
        assert list(items) == [1, 2, 3]  # nothing went through

    def test_reads_are_never_guarded(self):
        guard = OwnershipGuard("req")
        items = GuardedList([1, 2], guard)
        guard.publish()
        assert items[0] == 1 and len(items) == 2 and list(items) == [1, 2]


class TestSanitizedRequest:
    def test_request_class_dispatch(self, san):
        assert sanitizer.request_class() is SanitizedServeRequest
        sanitizer.enable(False)
        assert sanitizer.request_class() is ServeRequest

    def test_setattr_is_guarded_after_publish(self):
        req = _request()
        req.decided = (1, 0.5, 0, 0)  # creator mutation: fine
        req._san_guard.publish()
        with pytest.raises(RaceError, match="set .decided"):
            req.decided = None

    def test_charged_path_is_guarded(self):
        req = _request()
        req.charged_path.append((1, 0))
        req._san_guard.publish()
        with pytest.raises(RaceError, match="append"):
            req.charged_path.append((2, 1))

    def test_timings_stay_unguarded(self):
        # delivery tasks legitimately update nested timing accumulators
        req = _request()
        req._san_guard.publish()
        req.timings.total_ms = 4.2
        assert req.timings.total_ms == 4.2


class TestQueueIntegration:
    def test_prefix_forward_interleaving_is_caught(self, san):
        """The PR-8 defect, replayed against the real queue/batcher:
        append after a successful ``put`` raises at the mutation."""

        async def main():
            queue = BoundedQueue(maxsize=8, policy="block")
            req = _request()
            await queue.put(req)
            with pytest.raises(RaceError, match="mutate before the handoff"):
                req.charged_path.append((1, 0))

        asyncio.run(main())

    def test_failed_put_leaves_ownership_with_producer(self, san):
        """A shed / timed-out ``put`` and a refused ``offer`` un-publish:
        the item never entered the queue, so the undo append/pop of the
        fixed ``_forward`` must stay legal."""
        from repro.serve.queueing import QueueTimeout, ShedError

        async def main():
            shedding = BoundedQueue(maxsize=1, policy="shed")
            await shedding.put(_request(0))
            blocking = BoundedQueue(maxsize=1, policy="block")
            await blocking.put(_request(0))
            req = _request(1)
            sanitizer.acquire(req)  # as in _forward: a node task owns it
            for attempt, refusal in (
                (lambda: shedding.put(req), ShedError),
                (lambda: blocking.put(req, timeout_s=0.001), QueueTimeout),
            ):
                req.charged_path.append((1, 0))
                with pytest.raises(refusal):
                    await attempt()
                req.charged_path.pop()  # producer still owns it
            req.charged_path.append((1, 0))
            assert blocking.offer(req) is False
            req.charged_path.pop()
            guard = req._san_guard
            assert guard.owner is asyncio.current_task()  # not the creator
            assert guard.generation == 6  # un-publishing is no mutation

        asyncio.run(main())

    @pytest.mark.skipif(
        sys.version_info >= (3, 12),
        reason="from 3.12 wait_for awaits the put inline instead of in a "
        "task, so the producer cannot resume after the consumer",
    )
    def test_publish_precedes_the_enqueue(self, san):
        """A bounded ``put`` resumes *after* a consumer that was already
        runnable: the consumer gets and acquires the request first, and
        a publish on resumption would re-mark a request it owns."""

        async def main():
            queue = BoundedQueue(maxsize=8, policy="block")
            req = _request()

            async def consumer():
                await asyncio.sleep(0)
                got = queue.get_nowait()
                sanitizer.acquire(got)
                for label in range(4):
                    got.decided = (label, 0.5, 0, 0)
                    await asyncio.sleep(0)

            task = asyncio.ensure_future(consumer())
            await queue.put(req, timeout_s=1.0)
            await task

        asyncio.run(main())

    def test_batcher_transfers_ownership_to_consumer(self, san):
        async def main():
            queue = BoundedQueue(maxsize=8, policy="block")
            batcher = MicroBatcher(queue, max_batch=4)
            req = _request()
            await queue.put(req)
            (got,) = await batcher.next_batch()
            got.charged_path.append((1, 0))  # consumer owns it now
            got.decided = (1, 0.9, 0, 0)

        asyncio.run(main())

    def test_offer_also_publishes(self, san):
        async def main():
            queue = BoundedQueue(maxsize=8, policy="block")
            req = _request()
            assert queue.offer(req)
            with pytest.raises(RaceError):
                req.decided = (1, 0.5, 0, 0)

        asyncio.run(main())


class TestRuntimeUnderSanitizer:
    def test_full_serve_run_is_race_free(self, san, trained_federation):
        """The fixed runtime must complete a faulty+escalating workload
        with the sanitizer armed — zero false positives, answers equal
        to the offline walk."""
        federation, _, data = trained_federation
        inference = HierarchicalInference(
            federation, confidence_threshold=0.7
        )
        workload = make_workload(
            data.test_x[:64], inference, seed=3, labels=data.test_y[:64]
        )
        runtime = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=16, queue_depth=512),
        )
        result = runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)
        assert result.n_answered == len(workload)
        offline = inference.run(data.test_x[:64], seed=3)
        out = result.to_outcome()
        assert np.array_equal(out.labels, offline.labels)
        assert np.array_equal(out.deciding_node, offline.deciding_node)

    @pytest.mark.parametrize(
        "value,expect", [("", "False"), ("0", "False"), ("1", "True")]
    )
    def test_env_var_arms_the_sanitizer(self, value, expect):
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_SAN=value)
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.serve import sanitizer; print(sanitizer.enabled())",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == expect
