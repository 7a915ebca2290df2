"""Chaos tests of the fault-tolerant serving path.

Three load-bearing properties of :class:`~repro.serve.faults.FaultPlan`
plus :class:`~repro.serve.runtime.ServingRuntime`:

* **determinism** — the same workload under the same plan and seed
  produces the same semantic result (labels, deciding nodes, degraded
  flags, escalation map, retry count) across runs, even though
  wall-clock timing shifts micro-batch boundaries;
* **inert-plan transparency** — a plan with every knob at zero serves
  bit-identically to no plan at all, preserving the
  served-equals-offline invariant;
* **liveness** — under message drops plus a permanently crashed
  non-root node, every request still receives exactly one terminal
  response (answered or explicitly degraded — never hung or lost).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.hierarchy import HierarchicalInference
from repro.network.medium import get_medium
from repro.serve import (
    FaultPlan,
    ServeConfig,
    ServingRuntime,
    make_workload,
)
from repro.serve.faults import backoff_s

MEDIUM = get_medium("wired-1gbps")
CONFIG = ServeConfig(max_batch=16, queue_depth=512)


@pytest.fixture(scope="module")
def chaos_setup(trained_federation):
    federation, _, data = trained_federation
    inference = HierarchicalInference(federation, confidence_threshold=0.7)
    workload = make_workload(
        data.test_x, inference, seed=3, labels=data.test_y
    )
    offline = inference.run(data.test_x, seed=3)
    return inference, workload, offline


def _serve(inference, workload, plan):
    runtime = ServingRuntime(inference, MEDIUM, CONFIG, fault_plan=plan)
    return runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)


def _crashable_internal(inference):
    """A non-root internal node (the interesting crash victim)."""
    nodes = inference.federation.hierarchy.nodes
    internal = [
        nid for nid, n in nodes.items() if n.parent is not None and n.children
    ]
    assert internal, "fixture tree must have a non-root internal node"
    return internal[0]


class TestDeterminism:
    def test_same_seed_same_result(self, chaos_setup):
        """Two fresh runtimes under one plan: identical fingerprints,
        escalation maps and retry counts; confidences allclose (dense
        BLAS varies at the last ulp with batch shape)."""
        inference, workload, _ = chaos_setup
        plan = FaultPlan(
            seed=42, drop_probability=0.3, latency_jitter_s=0.001,
            dimension_loss=0.15,
        )
        first = _serve(inference, workload, plan)
        second = _serve(inference, workload, plan)
        assert first.fingerprint() == second.fingerprint()
        assert first.escalations == second.escalations
        assert first.n_retries == second.n_retries
        assert np.allclose(
            [r.confidence for r in first.responses],
            [r.confidence for r in second.responses],
        )

    def test_different_fault_seed_changes_decisions(self, chaos_setup):
        inference, workload, _ = chaos_setup
        runs = [
            _serve(inference, workload, FaultPlan(seed=s, drop_probability=0.5))
            for s in (1, 2)
        ]
        assert runs[0].n_retries != runs[1].n_retries or (
            runs[0].fingerprint() != runs[1].fingerprint()
        )

    def test_crash_run_deterministic(self, chaos_setup):
        inference, workload, _ = chaos_setup
        victim = _crashable_internal(inference)
        plan = FaultPlan(
            seed=7, drop_probability=0.2,
            crash_windows={victim: (0.0, math.inf)},
        )
        first = _serve(inference, workload, plan)
        second = _serve(inference, workload, plan)
        assert first.fingerprint() == second.fingerprint()
        assert first.n_degraded == second.n_degraded > 0


class TestInertPlanTransparency:
    def test_zero_fault_plan_equals_no_plan(self, chaos_setup):
        inference, workload, _ = chaos_setup
        plain = _serve(inference, workload, None)
        inert = _serve(inference, workload, FaultPlan(seed=99))
        assert inert.fingerprint() == plain.fingerprint()
        assert inert.escalations == plain.escalations
        assert inert.n_retries == inert.n_timeouts == 0
        assert inert.n_degraded == 0

    def test_zero_fault_plan_matches_offline(self, chaos_setup):
        """The PR 3 invariant survives an inert plan end to end."""
        inference, workload, offline = chaos_setup
        result = _serve(inference, workload, FaultPlan())
        out = result.to_outcome()
        assert np.array_equal(out.labels, offline.labels)
        assert np.array_equal(out.deciding_node, offline.deciding_node)
        assert np.array_equal(out.deciding_level, offline.deciding_level)
        assert np.allclose(out.confidence, offline.confidence)
        assert out.total_bytes == offline.total_bytes

    def test_inert_plan_is_not_active(self):
        assert FaultPlan().active is False
        assert FaultPlan(seed=123).active is False
        for active in (
            FaultPlan(drop_probability=0.1),
            FaultPlan(latency_jitter_s=0.001),
            FaultPlan(dimension_loss=0.1),
            FaultPlan(block_loss=0.1),
            FaultPlan(crash_windows={3: (0.0, 1.0)}),
        ):
            assert active.active is True


class TestLiveness:
    def test_every_request_completes_under_chaos(self, chaos_setup):
        """Drop 0.3 + one crashed non-root node: exactly one terminal
        response per request, each answered or explicitly degraded."""
        inference, workload, _ = chaos_setup
        victim = _crashable_internal(inference)
        plan = FaultPlan(
            seed=7, drop_probability=0.3,
            crash_windows={victim: (0.0, math.inf)},
        )
        result = _serve(inference, workload, plan)
        assert result.n_total == len(workload)
        indices = sorted(r.index for r in result.responses)
        assert indices == list(range(len(workload)))
        for r in result.responses:
            assert r.degraded or not r.shed
            if not r.rejected:
                assert r.deciding_node >= 0
        assert result.n_degraded > 0
        assert result.escalations.get((victim, 0), 0) == 0, (
            "nothing can escalate out of a node crashed from t=0"
        )
        with pytest.raises(ValueError, match="degraded"):
            result.to_outcome()

    def test_crashed_entry_leaf_rejects_degraded(self, chaos_setup):
        inference, workload, _ = chaos_setup
        leaves = sorted(set(int(s) for s in workload.start_leaves))
        victim = leaves[0]
        plan = FaultPlan(crash_windows={victim: (0.0, math.inf)})
        result = _serve(inference, workload, plan)
        assert result.n_total == len(workload)
        from_victim = [
            r for r in result.responses if r.start_leaf == victim
        ]
        assert from_victim
        assert all(r.degraded and r.rejected for r in from_victim)
        others = [r for r in result.responses if r.start_leaf != victim]
        assert all(not r.degraded for r in others)

    def test_degraded_rate_and_summary(self, chaos_setup):
        inference, workload, _ = chaos_setup
        victim = _crashable_internal(inference)
        plan = FaultPlan(
            seed=7, drop_probability=0.3,
            crash_windows={victim: (0.0, math.inf)},
        )
        result = _serve(inference, workload, plan)
        assert result.degraded_rate == result.n_degraded / result.n_total
        assert "degraded" in result.summary()


class TestFaultPlanValidation:
    def test_root_crash_rejected(self, chaos_setup):
        inference, _, _ = chaos_setup
        root = inference.federation.hierarchy.root_id
        plan = FaultPlan(crash_windows={root: (0.0, 1.0)})
        with pytest.raises(ValueError, match="root"):
            ServingRuntime(inference, MEDIUM, CONFIG, fault_plan=plan)

    def test_unknown_crash_node_rejected(self, chaos_setup):
        inference, _, _ = chaos_setup
        plan = FaultPlan(crash_windows={999: (0.0, 1.0)})
        with pytest.raises(ValueError, match="unknown"):
            ServingRuntime(inference, MEDIUM, CONFIG, fault_plan=plan)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_probability": 1.5},
            {"drop_probability": -0.1},
            {"dimension_loss": 2.0},
            {"block_loss": -0.5},
            {"latency_jitter_s": -1.0},
            {"block_size": 0},
            {"crash_windows": {1: (2.0, 1.0)}},
            {"crash_windows": {1: (-1.0, 2.0)}},
            {"latency_jitter_s": float("nan")},
            {"latency_jitter_s": float("inf")},
            {"drop_probability": float("nan")},
            {"crash_windows": {1: (float("nan"), 2.0)}},
            {"crash_windows": {1: (0.0, float("nan"))}},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_crash_window_boundaries(self):
        plan = FaultPlan(crash_windows={5: (1.0, 2.0)})
        assert not plan.crashed(5, 0.5)
        assert plan.crashed(5, 1.0)
        assert plan.crashed(5, 1.5)
        assert not plan.crashed(5, 2.0)
        assert not plan.crashed(4, 1.5)

    def test_backoff_schedule(self):
        assert backoff_s(0) == pytest.approx(0.005)
        assert backoff_s(1) == pytest.approx(0.01)
        assert backoff_s(2) == pytest.approx(0.02)


class TestSampleCrashes:
    def test_deterministic_and_disjoint(self):
        candidates = [1, 2, 3, 4, 5]
        first = FaultPlan.sample_crashes(9, candidates, n_crashes=2)
        second = FaultPlan.sample_crashes(9, candidates, n_crashes=2)
        assert first == second
        assert len(first) == 2
        assert set(first) <= set(candidates)
        other = FaultPlan.sample_crashes(10, candidates, n_crashes=2)
        assert set(other) <= set(candidates)

    def test_window_parameters(self):
        windows = FaultPlan.sample_crashes(
            0, [1, 2], n_crashes=1, crash_start_s=0.5, crash_duration_s=2.0
        )
        ((_, window),) = windows.items()
        assert window == (0.5, 2.5)

    def test_too_many_crashes_rejected(self):
        with pytest.raises(ValueError, match="cannot crash"):
            FaultPlan.sample_crashes(0, [1], n_crashes=2)
