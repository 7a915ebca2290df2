"""Tests for features added during calibration: shared-medium
contention, packed compressed bundles, min_level inference, block loss,
and normalized online learning."""

import numpy as np
import pytest

from repro.core.compression import compressed_bundle_bytes
from repro.core.classifier import HDClassifier
from repro.core.online import ResidualAccumulator
from repro.core.hypervector import normalize_rows, random_bipolar
from repro.hierarchy.inference import HierarchicalInference
from repro.hierarchy.online import OnlineLearner, OnlineSession
from repro.hierarchy.topology import build_star
from repro.network.failure import drop_blocks
from repro.network.medium import Medium
from repro.network.message import Message, MessageKind
from repro.network.simulator import NetworkSimulator

FAST = Medium("fast", 1e9, 0.0, 1e-9, 1e-9)


class TestSharedMedium:
    def test_shared_medium_serializes_everything(self):
        h = build_star(4)
        messages = [
            Message(leaf, h.root_id, MessageKind.QUERY, 1000)
            for leaf in h.leaves()
        ]
        parallel = NetworkSimulator(h, FAST).simulate_independent(messages)
        shared = NetworkSimulator(
            h, FAST, shared_medium=True
        ).simulate_independent(messages)
        assert shared.makespan_s == pytest.approx(4 * FAST.transfer_time(1000))
        assert parallel.makespan_s == pytest.approx(FAST.transfer_time(1000))

    def test_shared_medium_same_energy(self):
        h = build_star(3)
        messages = [
            Message(leaf, h.root_id, MessageKind.QUERY, 500)
            for leaf in h.leaves()
        ]
        a = NetworkSimulator(h, FAST).simulate_independent(messages)
        b = NetworkSimulator(h, FAST, shared_medium=True).simulate_independent(
            messages
        )
        assert a.energy_j == pytest.approx(b.energy_j)


class TestCompressedBundleBytes:
    def test_m25_uses_6_bits(self):
        # 2*25+1 = 51 states -> 6 bits per element.
        assert compressed_bundle_bytes(4000, 25) == (4000 * 6 + 7) // 8

    def test_m1_uses_2_bits(self):
        assert compressed_bundle_bytes(8, 1) == 2  # 8 elements * 2 bits

    def test_smaller_than_naive_ints(self):
        assert compressed_bundle_bytes(4000, 25) < 4000 * 4

    def test_per_query_cost_decreases_with_m(self):
        per_query = [
            compressed_bundle_bytes(4000, m) / m for m in (1, 5, 25)
        ]
        assert per_query[0] > per_query[1] > per_query[2]

    def test_invalid(self):
        with pytest.raises(ValueError):
            compressed_bundle_bytes(0, 5)
        with pytest.raises(ValueError):
            compressed_bundle_bytes(10, 0)


class TestMinLevelInference:
    def test_min_level_skips_leaves(self, trained_federation):
        fed, _, data = trained_federation
        inference = HierarchicalInference(
            fed, confidence_threshold=0.0, min_level=2
        )
        outcome = inference.run(data.test_x)
        assert outcome.deciding_level.min() >= 2

    def test_min_level_escalation_charged(self, trained_federation):
        fed, _, data = trained_federation
        inference = HierarchicalInference(
            fed, confidence_threshold=0.0, min_level=2
        )
        outcome = inference.run(data.test_x)
        # Leaf -> parent hops must appear as traffic.
        assert outcome.total_bytes > 0

    def test_min_level_above_cap_rejected(self, trained_federation):
        fed, _, data = trained_federation
        inference = HierarchicalInference(fed, min_level=3)
        with pytest.raises(ValueError):
            inference.run(data.test_x, max_level=2)

    def test_invalid_min_level(self, trained_federation):
        fed, _, _ = trained_federation
        with pytest.raises(ValueError):
            HierarchicalInference(fed, min_level=0)

    def test_start_leaf_recorded(self, trained_federation):
        fed, _, data = trained_federation
        inference = HierarchicalInference(fed)
        outcome = inference.run(data.test_x)
        assert outcome.start_leaf.shape == outcome.labels.shape
        assert set(outcome.start_leaf.tolist()) <= set(fed.hierarchy.leaves())


class TestDropBlocks:
    def test_fraction_of_blocks_zeroed(self):
        hv = np.ones(1024)
        damaged = drop_blocks(hv, 0.5, block_size=128, seed=1)
        assert np.mean(damaged == 0.0) == pytest.approx(0.5, abs=0.01)

    def test_loss_is_contiguous(self):
        hv = np.ones(1024)
        damaged = drop_blocks(hv, 0.25, block_size=256, seed=2)
        zero_runs = np.flatnonzero(damaged == 0.0)
        assert zero_runs.size == 256
        assert zero_runs.max() - zero_runs.min() == 255  # one block

    def test_zero_loss_identity(self):
        hv = random_bipolar(256, seed=3).astype(float)
        assert np.array_equal(drop_blocks(hv, 0.0), hv)

    def test_rows_independent(self):
        mat = np.ones((20, 1024))
        damaged = drop_blocks(mat, 0.5, block_size=128, seed=4)
        patterns = {tuple(np.flatnonzero(r == 0)[:3]) for r in damaged}
        assert len(patterns) > 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            drop_blocks(np.ones(8), 1.5)
        with pytest.raises(ValueError):
            drop_blocks(np.ones(8), 0.5, block_size=0)


class TestAveragedResidualApply:
    def test_average_bounds_update(self):
        clf = HDClassifier(2, 64)
        model = normalize_rows(
            random_bipolar(64, count=2, seed=5).astype(float)
        )
        clf.set_model(model)
        acc = ResidualAccumulator(2, 64)
        q = random_bipolar(64, seed=6).astype(float) / 8.0  # unit norm
        for _ in range(50):
            acc.record_negative(q, predicted_class=0)
        before = clf.class_hypervectors.copy()
        acc.apply_to(clf, learning_rate=0.1, normalized=True)
        delta = np.linalg.norm(clf.class_hypervectors[0] - before[0])
        # 50 identical events averaged: update magnitude ~ lr, not 50*lr.
        assert delta < 0.3

    def test_renormalize_keeps_unit_rows(self):
        clf = HDClassifier(2, 32)
        clf.set_model(normalize_rows(np.ones((2, 32))))
        acc = ResidualAccumulator(2, 32)
        acc.record_negative(np.ones(32) / np.sqrt(32), 0)
        acc.apply_to(clf, learning_rate=0.5, normalized=True)
        norms = np.linalg.norm(clf.class_hypervectors, axis=1)
        assert np.allclose(norms, 1.0)

    def test_per_class_counts_tracked(self):
        acc = ResidualAccumulator(3, 8)
        acc.record_negative(np.ones(8), 0, true_class=1)
        acc.record_negative(np.ones(8), 0)
        assert acc.negative_counts[0] == 2
        assert acc.positive_counts[1] == 1
        acc.clear()
        assert acc.negative_counts.sum() == 0


class TestNormalizedOnlineLearner:
    def test_normalize_rescales_models(self, trained_federation):
        fed, _, _ = trained_federation
        # Work on copies so the session-scoped fixture stays intact.
        import copy

        fed2 = copy.deepcopy(fed)
        OnlineLearner(fed2, normalize=True)
        for clf in fed2.classifiers.values():
            norms = np.linalg.norm(clf.class_hypervectors, axis=1)
            assert np.allclose(norms, 1.0)

    def test_unnormalized_leaves_models_alone(self, trained_federation):
        fed, _, _ = trained_federation
        before = fed.classifiers[fed.root_id].class_hypervectors.copy()
        OnlineLearner(fed, normalize=False)
        assert np.array_equal(
            fed.classifiers[fed.root_id].class_hypervectors, before
        )

    def test_aggregate_children_false_no_residual_messages(
        self, trained_federation
    ):
        import copy

        fed, _, data = trained_federation
        fed2 = copy.deepcopy(fed)
        learner = OnlineLearner(fed2, aggregate_children=False, normalize=True)
        leaf = fed2.hierarchy.leaves()[0]
        dim = fed2.hierarchy.nodes[leaf].dimension
        learner.record_feedback(leaf, np.ones(dim), predicted_class=0)
        assert learner.propagate() == []

    def test_lr_decay(self, trained_federation):
        import copy

        fed, _, _ = trained_federation
        fed2 = copy.deepcopy(fed)
        learner = OnlineLearner(fed2, learning_rate=1.0, normalize=True)
        assert learner._propagations == 0
        learner.propagate()
        learner.propagate()
        assert learner._propagations == 2

    def test_invalid_feedback_mode(self, trained_federation):
        fed, _, _ = trained_federation
        with pytest.raises(ValueError):
            OnlineSession(fed, feedback_mode="telepathy")
