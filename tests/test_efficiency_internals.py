"""Unit tests for the analytic efficiency machinery (Fig. 10 internals)."""

import math

import pytest

from repro.data import DATASETS, partition_features
from repro.experiments.efficiency import (
    CONFIGS,
    _batches_per_node,
    edgehd_query_messages,
    edgehd_training_messages,
    system_inference_cost,
    system_training_cost,
)
from repro.hierarchy.topology import build_tree
from repro.network.message import MessageKind


@pytest.fixture(scope="module")
def pdp_tree():
    spec = DATASETS["PDP"]
    hierarchy = build_tree(spec.n_end_nodes)
    partition = partition_features(spec.n_features, spec.n_end_nodes)
    hierarchy.allocate_dimensions(4000, partition.feature_counts())
    return hierarchy, spec


class TestBatchesPerNode:
    def test_balanced_classes(self):
        assert _batches_per_node(750, 3, 75) == 3 * math.ceil(250 / 75)

    def test_minimum_one_batch_per_class(self):
        assert _batches_per_node(2, 2, 75) == 2


class TestTrainingMessages:
    def test_two_messages_per_non_root(self, pdp_tree):
        hierarchy, spec = pdp_tree
        messages = edgehd_training_messages(hierarchy, 1000, spec.n_classes, 75)
        assert len(messages) == 2 * (len(hierarchy.nodes) - 1)

    def test_kinds(self, pdp_tree):
        hierarchy, spec = pdp_tree
        messages = edgehd_training_messages(hierarchy, 1000, spec.n_classes, 75)
        kinds = {m.kind for m in messages}
        assert kinds == {MessageKind.CLASS_MODEL, MessageKind.BATCH_HYPERVECTORS}

    def test_batch_bytes_scale_with_samples(self, pdp_tree):
        hierarchy, spec = pdp_tree

        def batch_bytes(n):
            return sum(
                m.payload_bytes
                for m in edgehd_training_messages(hierarchy, n, spec.n_classes, 75)
                if m.kind == MessageKind.BATCH_HYPERVECTORS
            )

        assert batch_bytes(10_000) > batch_bytes(1_000)

    def test_model_bytes_independent_of_samples(self, pdp_tree):
        hierarchy, spec = pdp_tree

        def model_bytes(n):
            return sum(
                m.payload_bytes
                for m in edgehd_training_messages(hierarchy, n, spec.n_classes, 75)
                if m.kind == MessageKind.CLASS_MODEL
            )

        assert model_bytes(10_000) == model_bytes(1_000)

    def test_negative_samples_rejected(self, pdp_tree):
        hierarchy, spec = pdp_tree
        with pytest.raises(ValueError):
            edgehd_training_messages(hierarchy, -1, spec.n_classes, 75)


class TestQueryMessages:
    def test_all_local_no_messages(self, pdp_tree):
        hierarchy, spec = pdp_tree
        messages = edgehd_query_messages(
            hierarchy, 1000, 25, level_frequency={1: 1.0, 2: 0.0, 3: 0.0}
        )
        assert messages == []

    def test_all_central_maximal_traffic(self, pdp_tree):
        hierarchy, spec = pdp_tree
        local = edgehd_query_messages(
            hierarchy, 1000, 25, level_frequency={1: 0.5, 2: 0.3, 3: 0.2}
        )
        central = edgehd_query_messages(
            hierarchy, 1000, 25, level_frequency={1: 0.0, 2: 0.0, 3: 1.0}
        )
        assert sum(m.payload_bytes for m in central) > sum(
            m.payload_bytes for m in local
        )

    def test_compression_reduces_bundles(self, pdp_tree):
        hierarchy, spec = pdp_tree
        freq = {1: 0.0, 2: 0.0, 3: 1.0}
        tight = edgehd_query_messages(hierarchy, 1000, 50, level_frequency=freq)
        loose = edgehd_query_messages(hierarchy, 1000, 1, level_frequency=freq)
        assert sum(m.payload_bytes for m in tight) < sum(
            m.payload_bytes for m in loose
        )


class TestSystemCosts:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_training_positive(self, config):
        cost = system_training_cost(config, "PDP")
        assert cost.total_time_s > 0
        assert cost.total_energy_j > 0

    @pytest.mark.parametrize("config", CONFIGS)
    def test_inference_positive(self, config):
        cost = system_inference_cost(config, "PDP")
        assert cost.total_time_s > 0

    def test_edgehd_lowest_comm(self):
        edge = system_training_cost("edgehd", "PDP")
        central = system_training_cost("hd-fpga", "PDP")
        assert edge.comm_bytes < central.comm_bytes

    def test_slow_medium_increases_comm_time(self):
        fast = system_training_cost("hd-gpu", "PDP", medium="wired-1gbps")
        slow = system_training_cost("hd-gpu", "PDP", medium="bluetooth-4.0")
        assert slow.comm_time_s > fast.comm_time_s
        # Compute time is unchanged.
        assert slow.compute_time_s == pytest.approx(fast.compute_time_s)

    def test_star_cheaper_than_tree_comm(self):
        star = system_training_cost("hd-gpu", "PDP", topology="star")
        tree = system_training_cost("hd-gpu", "PDP", topology="tree")
        assert star.comm_time_s < tree.comm_time_s

    def test_unknown_config(self):
        with pytest.raises(ValueError):
            system_training_cost("quantum", "PDP")

    def test_flat_dataset_rejected(self):
        with pytest.raises(ValueError):
            system_training_cost("edgehd", "MNIST")

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            system_training_cost("edgehd", "PDP", topology="ring")
