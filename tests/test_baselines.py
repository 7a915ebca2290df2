"""Unit + integration tests for the comparison baselines."""

import numpy as np
import pytest

from repro.baselines.adaboost import AdaBoostClassifier, DecisionStump
from repro.baselines.centralized import centralized_upload_messages
from repro.baselines.linear_hd import LinearHDClassifier
from repro.baselines.mlp import MLPClassifier
from repro.baselines.svm import KernelSVM
from repro.config import EdgeHDConfig
from repro.data import make_classification, partition_features
from repro.hierarchy.topology import build_star, build_tree
from repro.network.message import MessageKind


@pytest.fixture(scope="module")
def easy_problem():
    """Well-separated 3-class Gaussian blobs — every baseline should ace it."""
    rng = np.random.default_rng(1)
    centers = rng.standard_normal((3, 10)) * 5.0
    x = np.vstack([centers[c] + rng.standard_normal((80, 10)) for c in range(3)])
    y = np.repeat([0, 1, 2], 80)
    order = rng.permutation(240)
    x, y = x[order], y[order]
    return x[:180], y[:180], x[180:], y[180:]


@pytest.fixture(scope="module")
def hard_problem():
    """Non-linearly separable data (multi-cluster, centered classes)."""
    x, y = make_classification(
        700, 12, 2, clusters_per_class=4, seed=2, noise=0.3,
        class_separation=3.0,
    )
    return x[:550], y[:550], x[550:], y[550:]


class TestMLP:
    def test_fits_easy(self, easy_problem):
        tr_x, tr_y, te_x, te_y = easy_problem
        mlp = MLPClassifier(10, 3, hidden_sizes=(32,), epochs=20, seed=3)
        mlp.fit(tr_x, tr_y)
        assert mlp.accuracy(te_x, te_y) > 0.9

    def test_handles_nonlinear(self, hard_problem):
        tr_x, tr_y, te_x, te_y = hard_problem
        mlp = MLPClassifier(12, 2, hidden_sizes=(64, 32), epochs=40, seed=4)
        mlp.fit(tr_x, tr_y)
        assert mlp.accuracy(te_x, te_y) > 0.75

    def test_loss_decreases(self, easy_problem):
        tr_x, tr_y, *_ = easy_problem
        mlp = MLPClassifier(10, 3, hidden_sizes=(16,), epochs=15, seed=5)
        mlp.fit(tr_x, tr_y)
        assert mlp.loss_history[-1] < mlp.loss_history[0]

    def test_proba_normalized(self, easy_problem):
        tr_x, tr_y, te_x, _ = easy_problem
        mlp = MLPClassifier(10, 3, hidden_sizes=(16,), epochs=5, seed=6)
        mlp.fit(tr_x, tr_y)
        probs = mlp.predict_proba(te_x[:7])
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            MLPClassifier(4, 2).predict_labels(np.ones((1, 4)))

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            MLPClassifier(4, 2).fit(np.empty((0, 4)), np.empty(0, dtype=int))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            MLPClassifier(4, 2, hidden_sizes=(0,))
        with pytest.raises(ValueError):
            MLPClassifier(4, 2, learning_rate=0.0)
        with pytest.raises(ValueError):
            MLPClassifier(4, 1)


class TestKernelSVM:
    def test_fits_easy(self, easy_problem):
        tr_x, tr_y, te_x, te_y = easy_problem
        svm = KernelSVM(10, 3, n_components=256, epochs=8, seed=7)
        svm.fit(tr_x, tr_y)
        assert svm.accuracy(te_x, te_y) > 0.9

    def test_handles_nonlinear(self, hard_problem):
        """RFF lift lets the linear solver fit non-linear data."""
        tr_x, tr_y, te_x, te_y = hard_problem
        svm = KernelSVM(12, 2, n_components=512, gamma=0.4, epochs=15, seed=8)
        svm.fit(tr_x, tr_y)
        assert svm.accuracy(te_x, te_y) > 0.75

    def test_decision_function_shape(self, easy_problem):
        tr_x, tr_y, te_x, _ = easy_problem
        svm = KernelSVM(10, 3, n_components=128, epochs=3, seed=9)
        svm.fit(tr_x, tr_y)
        assert svm.decision_function(te_x[:5]).shape == (5, 3)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            KernelSVM(4, 2).predict_labels(np.ones((1, 4)))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            KernelSVM(4, 2, n_components=0)
        with pytest.raises(ValueError):
            KernelSVM(4, 2, reg_lambda=0.0)
        with pytest.raises(ValueError):
            KernelSVM(4, 2, gamma=-1.0)


class TestAdaBoost:
    def test_fits_easy(self, easy_problem):
        tr_x, tr_y, te_x, te_y = easy_problem
        ada = AdaBoostClassifier(10, 3, n_estimators=40, seed=10)
        ada.fit(tr_x, tr_y)
        assert ada.accuracy(te_x, te_y) > 0.8

    def test_stump_predict(self):
        stump = DecisionStump(feature=0, threshold=0.5, left_class=1, right_class=0)
        x = np.array([[0.2], [0.9]])
        assert np.array_equal(stump.predict(x), [1, 0])

    def test_boosting_beats_single_stump(self, easy_problem):
        tr_x, tr_y, te_x, te_y = easy_problem
        one = AdaBoostClassifier(10, 3, n_estimators=1, seed=11)
        many = AdaBoostClassifier(10, 3, n_estimators=50, seed=11)
        one.fit(tr_x, tr_y)
        many.fit(tr_x, tr_y)
        assert many.accuracy(te_x, te_y) >= one.accuracy(te_x, te_y)

    def test_alphas_positive(self, easy_problem):
        tr_x, tr_y, *_ = easy_problem
        ada = AdaBoostClassifier(10, 3, n_estimators=10, seed=12)
        ada.fit(tr_x, tr_y)
        assert all(a > 0 for a in ada.alphas)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            AdaBoostClassifier(4, 2).predict_labels(np.ones((1, 4)))

    def test_invalid(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(4, 2, n_estimators=0)


class TestLinearHD:
    def test_fits_easy(self, easy_problem):
        tr_x, tr_y, te_x, te_y = easy_problem
        hd = LinearHDClassifier(10, 3, dimension=1000, seed=13)
        hd.fit(tr_x, tr_y, retrain_epochs=8)
        assert hd.accuracy(te_x, te_y) > 0.85

    def test_nonlinear_encoding_beats_linear_on_average(self):
        """The Fig. 7 headline: RBF encoding > linear encoding (avg)."""
        from repro.core.model import EdgeHDModel

        gaps = []
        for seed in (3, 4):
            x, y = make_classification(
                700, 12, 2, clusters_per_class=4, seed=seed, noise=0.3,
                class_separation=3.0,
            )
            tr_x, tr_y, te_x, te_y = x[:550], y[:550], x[550:], y[550:]
            linear = LinearHDClassifier(12, 2, dimension=2000, seed=14)
            linear.fit(tr_x, tr_y, retrain_epochs=10)
            rbf = EdgeHDModel(12, 2, dimension=2000, encoder="rbf", seed=14)
            rbf.fit(tr_x, tr_y, retrain_epochs=10)
            gaps.append(
                rbf.accuracy(te_x, te_y) - linear.accuracy(te_x, te_y)
            )
        assert np.mean(gaps) > 0.0


class TestCentralized:
    @pytest.fixture(scope="class")
    def setup(self):
        x, y = make_classification(400, 12, 2, seed=15)
        part = partition_features(12, 3)
        hierarchy = build_tree(3)
        config = EdgeHDConfig(dimension=512, retrain_epochs=5, seed=16)
        return x, y, part, hierarchy, config

    def test_upload_messages_cover_all_hops(self, setup):
        x, y, part, hierarchy, config = setup
        raw = centralized_upload_messages(hierarchy, part, 100)
        # Every non-root node forwards once.
        assert len(raw) == len(hierarchy.nodes) - 1
        assert all(m.kind == MessageKind.RAW_DATA for m in raw)
        # Centralized inference ships its queries along the same hops.
        queries = centralized_upload_messages(
            hierarchy, part, 100, kind=MessageKind.QUERY
        )
        assert all(m.kind == MessageKind.QUERY for m in queries)
        assert [(m.source, m.destination, m.payload_bytes) for m in queries] == [
            (m.source, m.destination, m.payload_bytes) for m in raw
        ]

    def test_gateway_forwards_subtree_volume(self, setup):
        x, y, part, hierarchy, config = setup
        messages = centralized_upload_messages(hierarchy, part, 100)
        by_source = {m.source: m for m in messages}
        for nid in hierarchy.internal_nodes():
            if nid == hierarchy.root_id:
                continue
            children_bytes = sum(
                by_source[c].payload_bytes for c in hierarchy.nodes[nid].children
            )
            assert by_source[nid].payload_bytes == children_bytes

    def test_star_less_hops_than_tree(self, setup):
        x, y, part, hierarchy, config = setup
        star_msgs = centralized_upload_messages(build_star(3), part, 100)
        tree_msgs = centralized_upload_messages(hierarchy, part, 100)
        assert sum(m.payload_bytes for m in star_msgs) < sum(
            m.payload_bytes for m in tree_msgs
        )

    def test_invalid_samples(self, setup):
        x, y, part, hierarchy, config = setup
        with pytest.raises(ValueError):
            centralized_upload_messages(hierarchy, part, -1)
