"""Unit + integration tests for hierarchical online learning (Sec. IV-D)."""

import numpy as np
import pytest

from repro.config import EdgeHDConfig
from repro.data import load_dataset, partition_features
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.online import OnlineLearner, OnlineSession
from repro.hierarchy.topology import build_tree
from repro.network.message import MessageKind


@pytest.fixture(scope="module")
def online_setup():
    """Federation trained on HALF the data; the rest streams online."""
    data = load_dataset("PDP", scale=0.1, max_train=1200, max_test=400, seed=9)
    part = partition_features(data.n_features, 5)
    fed = EdgeHDFederation(
        build_tree(5), part, data.n_classes,
        EdgeHDConfig(dimension=1024, batch_size=10, retrain_epochs=5, seed=21),
    )
    half = data.n_train // 2
    fed.fit_offline(data.train_x[:half], data.train_y[:half])
    stream_x, stream_y = data.train_x[half:], data.train_y[half:]
    return fed, stream_x, stream_y, data


class TestOnlineLearner:
    def test_record_and_pending(self, online_setup):
        fed, sx, sy, data = online_setup
        learner = OnlineLearner(fed)
        leaf = fed.hierarchy.leaves()[0]
        dim = fed.hierarchy.nodes[leaf].dimension
        learner.record_feedback(leaf, np.ones(dim), predicted_class=0)
        assert learner.pending_feedback() == 1

    def test_propagate_clears_residuals(self, online_setup):
        fed, sx, sy, data = online_setup
        learner = OnlineLearner(fed)
        leaf = fed.hierarchy.leaves()[0]
        dim = fed.hierarchy.nodes[leaf].dimension
        learner.record_feedback(leaf, np.ones(dim), predicted_class=0)
        learner.propagate()
        assert learner.pending_feedback() == 0

    def test_propagate_messages_follow_path(self, online_setup):
        fed, sx, sy, data = online_setup
        learner = OnlineLearner(fed)
        leaf = fed.hierarchy.leaves()[0]
        dim = fed.hierarchy.nodes[leaf].dimension
        learner.record_feedback(leaf, np.ones(dim), predicted_class=0)
        messages = learner.propagate()
        # Residuals travel from the leaf along its path to the root.
        path = fed.hierarchy.path_to_root(leaf)
        expected_edges = set(zip(path[:-1], path[1:]))
        actual_edges = {(m.source, m.destination) for m in messages}
        assert actual_edges == expected_edges
        assert all(m.kind == MessageKind.RESIDUALS for m in messages)

    def test_propagate_empty_no_messages(self, online_setup):
        fed, sx, sy, data = online_setup
        learner = OnlineLearner(fed)
        assert learner.propagate() == []

    def test_feedback_modifies_models_after_propagate(self, online_setup):
        fed, sx, sy, data = online_setup
        learner = OnlineLearner(fed)
        leaf = fed.hierarchy.leaves()[0]
        dim = fed.hierarchy.nodes[leaf].dimension
        before = fed.classifiers[leaf].class_hypervectors.copy()
        learner.record_feedback(leaf, np.ones(dim), predicted_class=0)
        learner.propagate()
        after = fed.classifiers[leaf].class_hypervectors
        assert not np.array_equal(before, after)

    def test_root_receives_leaf_residual(self, online_setup):
        fed, sx, sy, data = online_setup
        learner = OnlineLearner(fed)
        leaf = fed.hierarchy.leaves()[0]
        dim = fed.hierarchy.nodes[leaf].dimension
        root_before = fed.classifiers[fed.root_id].class_hypervectors.copy()
        learner.record_feedback(leaf, np.ones(dim), predicted_class=0)
        learner.propagate()
        root_after = fed.classifiers[fed.root_id].class_hypervectors
        assert not np.array_equal(root_before, root_after)

    def test_invalid_learning_rate(self, online_setup):
        fed, *_ = online_setup
        for rate in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                OnlineLearner(fed, learning_rate=rate)


class TestOnlineSession:
    def test_metrics_structure(self, online_setup):
        fed, sx, sy, data = online_setup
        session = OnlineSession(fed)
        metrics = session.run(
            sx[:200], sy[:200], data.test_x, data.test_y, n_steps=2
        )
        assert len(metrics) == 3  # initial + 2 steps
        assert metrics[0].step == 0 and metrics[0].samples_seen == 0
        assert metrics[-1].samples_seen == 200
        for m in metrics:
            assert set(m.accuracy_by_level) == {1, 2, 3}
            assert set(m.inference_frequency_by_level) == {1, 2, 3}
            assert 0.0 <= m.central_accuracy <= 1.0

    def test_online_learning_improves_accuracy(self, online_setup):
        """The Fig. 9 claim: accuracy rises with online steps."""
        fed, sx, sy, data = online_setup
        # Fresh federation so earlier tests don't interfere.
        part = partition_features(data.n_features, 5)
        fresh = EdgeHDFederation(
            build_tree(5), part, data.n_classes,
            EdgeHDConfig(dimension=1024, batch_size=10, retrain_epochs=5, seed=21),
        )
        half = data.n_train // 2
        fresh.fit_offline(data.train_x[:half], data.train_y[:half])
        session = OnlineSession(OnlineLearner(fresh).federation,
                                learner=OnlineLearner(fresh, feedback_includes_label=True))
        metrics = session.run(sx, sy, data.test_x, data.test_y, n_steps=4)
        first = np.mean(list(metrics[0].accuracy_by_level.values()))
        last = np.mean(list(metrics[-1].accuracy_by_level.values()))
        assert last >= first - 0.02  # must not degrade; usually improves

    def test_feedback_events_counted(self, online_setup):
        fed, sx, sy, data = online_setup
        session = OnlineSession(fed)
        metrics = session.run(
            sx[:100], sy[:100], data.test_x, data.test_y, n_steps=1
        )
        assert metrics[1].feedback_events >= 0
        assert metrics[1].feedback_events <= 100

    def test_invalid_args(self, online_setup):
        fed, sx, sy, data = online_setup
        session = OnlineSession(fed)
        with pytest.raises(ValueError):
            session.run(sx[:10], sy[:10], data.test_x, data.test_y, n_steps=0)
        with pytest.raises(ValueError):
            session.run(sx[:10], sy[:9], data.test_x, data.test_y, n_steps=1)
        with pytest.raises(ValueError):
            session.run(sx[:10], sy[:10], data.test_x, data.test_y,
                        n_steps=1, chunk_size=0)
