"""Integration tests: federated training through real wire frames."""

import numpy as np
import pytest

from repro.config import EdgeHDConfig
from repro.data import load_dataset, partition_features
from repro.hierarchy.deployment import SimulatedDeployment
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.topology import build_tree
from repro.network.failure import FailureModel
from repro.network.medium import MEDIA


@pytest.fixture(scope="module")
def setup():
    data = load_dataset("PDP", scale=0.05, max_train=700, max_test=250, seed=9)
    partition = partition_features(data.n_features, 5)
    config = EdgeHDConfig(
        dimension=1024, batch_size=10, retrain_epochs=5, seed=13
    )
    return data, partition, config


def fresh_federation(setup):
    data, partition, config = setup
    return EdgeHDFederation(build_tree(5), partition, data.n_classes, config)


class TestCleanDeployment:
    def test_matches_in_memory_training(self, setup):
        """Wire-level training reproduces in-memory federated training
        bit for bit when the network is clean: both drive the same
        per-node step, and at this size (every projection scale exactly
        1/8) the float32 class-model frames lose nothing."""
        data, partition, config = setup
        in_memory = fresh_federation(setup)
        in_memory.fit_offline(data.train_x, data.train_y)

        deployed_fed = fresh_federation(setup)
        deployment = SimulatedDeployment(deployed_fed, MEDIA["wired-1gbps"])
        deployment.train(data.train_x, data.train_y)

        for nid, clf in in_memory.classifiers.items():
            assert np.array_equal(
                deployed_fed.classifiers[nid].class_hypervectors,
                clf.class_hypervectors,
            ), f"node {nid}"

    def test_report_contents(self, setup):
        data, partition, config = setup
        fed = fresh_federation(setup)
        deployment = SimulatedDeployment(fed, MEDIA["wired-1gbps"])
        report = deployment.train(data.train_x, data.train_y)
        # Two frames (model + batches) per non-root node.
        non_root = len(fed.hierarchy.nodes) - 1
        assert report.frames_sent == 2 * non_root
        assert report.frames_corrupted == 0
        assert report.bytes_on_wire > 0
        assert report.simulation.makespan_s > 0
        assert len(report.node_train_accuracy) > 0

    def test_wire_bytes_close_to_accounting(self, setup):
        """Actual frame bytes should be close to the analytic charge
        (headers add a little)."""
        data, partition, config = setup
        fed = fresh_federation(setup)
        analytic = fresh_federation(setup)
        analytic_report = analytic.fit_offline(data.train_x, data.train_y)
        deployment = SimulatedDeployment(fed, MEDIA["wired-1gbps"])
        report = deployment.train(data.train_x, data.train_y)
        ratio = report.bytes_on_wire / analytic_report.total_bytes
        assert 0.8 < ratio < 1.3


class TestLossyDeployment:
    def test_corruption_detected_and_counted(self, setup):
        data, partition, config = setup
        fed = fresh_federation(setup)
        deployment = SimulatedDeployment(
            fed, MEDIA["wifi-802.11n"], corrupt_bits=1.0, seed=3
        )
        report = deployment.train(data.train_x, data.train_y)
        assert report.frames_corrupted == report.frames_sent

    def test_training_survives_partial_corruption(self, setup):
        """Losing some children's frames degrades but does not break
        the central model (robustness story, Sec. VI-F)."""
        data, partition, config = setup
        fed = fresh_federation(setup)
        deployment = SimulatedDeployment(
            fed, MEDIA["wifi-802.11n"], corrupt_bits=0.3, seed=4
        )
        report = deployment.train(data.train_x, data.train_y)
        assert 0 < report.frames_corrupted < report.frames_sent
        acc = fed.accuracy_at(fed.root_id, data.test_x, data.test_y)
        assert acc > 1.0 / data.n_classes  # still better than chance

    def test_drops_charge_retransmissions(self, setup):
        data, partition, config = setup
        fed = fresh_federation(setup)
        deployment = SimulatedDeployment(
            fed, MEDIA["wifi-802.11n"],
            failure_model=FailureModel(0.4, seed=5), max_retries=10,
        )
        report = deployment.train(data.train_x, data.train_y)
        assert report.simulation.retransmissions > 0

    def test_invalid_corrupt_bits(self, setup):
        fed = fresh_federation(setup)
        with pytest.raises(ValueError):
            SimulatedDeployment(fed, MEDIA["wired-1gbps"], corrupt_bits=1.5)
