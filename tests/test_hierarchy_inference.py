"""Unit + integration tests for escalation-based hierarchical inference."""

import numpy as np
import pytest

from repro.hierarchy.inference import HierarchicalInference
from repro.network.message import MessageKind


@pytest.fixture()
def inference(trained_federation):
    fed, _, data = trained_federation
    return HierarchicalInference(fed), fed, data


class TestRun:
    def test_outcome_shapes(self, inference):
        inf, fed, data = inference
        outcome = inf.run(data.test_x)
        n = data.n_test
        assert outcome.labels.shape == (n,)
        assert outcome.deciding_node.shape == (n,)
        assert outcome.deciding_level.shape == (n,)
        assert outcome.confidence.shape == (n,)

    def test_deciding_nodes_exist(self, inference):
        inf, fed, data = inference
        outcome = inf.run(data.test_x)
        assert set(outcome.deciding_node.tolist()) <= set(fed.hierarchy.nodes)

    def test_confident_answers_stay_local(self, inference):
        """Queries answered below the root must clear the threshold."""
        inf, fed, data = inference
        outcome = inf.run(data.test_x)
        below_root = outcome.deciding_level < fed.hierarchy.depth
        assert np.all(
            outcome.confidence[below_root] >= inf.confidence_threshold
        )

    def test_threshold_zero_all_local(self, inference):
        inf, fed, data = inference
        local = HierarchicalInference(fed, confidence_threshold=0.0)
        outcome = local.run(data.test_x)
        assert np.all(outcome.deciding_level == 1)
        assert outcome.total_bytes == 0
        assert outcome.messages == []

    def test_threshold_one_all_central(self, inference):
        inf, fed, data = inference
        central = HierarchicalInference(fed, confidence_threshold=1.0)
        outcome = central.run(data.test_x)
        assert np.all(outcome.deciding_level == fed.hierarchy.depth)

    def test_max_level_caps_escalation(self, inference):
        inf, fed, data = inference
        capped = HierarchicalInference(fed, confidence_threshold=1.0)
        outcome = capped.run(data.test_x, max_level=2)
        assert outcome.deciding_level.max() <= 2

    def test_higher_threshold_more_escalation(self, inference):
        inf, fed, data = inference
        low = HierarchicalInference(fed, confidence_threshold=0.4).run(data.test_x)
        high = HierarchicalInference(fed, confidence_threshold=0.95).run(data.test_x)
        assert high.deciding_level.mean() >= low.deciding_level.mean()
        assert high.total_bytes >= low.total_bytes

    def test_start_leaves_respected(self, inference):
        inf, fed, data = inference
        leaf = fed.hierarchy.leaves()[1]
        starts = np.full(data.n_test, leaf)
        outcome = inf.run(data.test_x, start_leaves=starts)
        # Every decision lies on that leaf's path to the root.
        path = set(fed.hierarchy.path_to_root(leaf))
        assert set(outcome.deciding_node.tolist()) <= path

    def test_start_leaves_validation(self, inference):
        inf, fed, data = inference
        with pytest.raises(ValueError):
            inf.run(data.test_x, start_leaves=np.array([1]))
        bad = np.full(data.n_test, fed.root_id)
        with pytest.raises(ValueError):
            inf.run(data.test_x, start_leaves=bad)

    def test_deterministic_given_seed(self, inference):
        inf, fed, data = inference
        a = inf.run(data.test_x, seed=5)
        b = inf.run(data.test_x, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.deciding_node, b.deciding_node)


class TestCommunication:
    def test_escalation_messages_compressed(self, inference):
        inf, fed, data = inference
        outcome = HierarchicalInference(fed, confidence_threshold=1.0).run(
            data.test_x
        )
        kinds = {m.kind for m in outcome.messages}
        assert MessageKind.COMPRESSED_QUERY in kinds
        assert MessageKind.PREDICTION in kinds

    def test_compression_reduces_bytes(self, inference):
        inf, fed, data = inference
        uncompressed = HierarchicalInference(
            fed, confidence_threshold=1.0, compression_count=1
        ).run(data.test_x)
        compressed = HierarchicalInference(
            fed, confidence_threshold=1.0, compression_count=25
        ).run(data.test_x)
        assert compressed.total_bytes < uncompressed.total_bytes

    def test_level_frequency_sums_to_one(self, inference):
        inf, fed, data = inference
        outcome = inf.run(data.test_x)
        freq = outcome.level_frequency(fed.hierarchy.depth)
        assert sum(freq.values()) == pytest.approx(1.0)


class TestEvaluate:
    def test_accuracy_above_local(self, inference):
        """Escalation should not hurt accuracy vs pure-local inference."""
        inf, fed, data = inference
        local_acc, _ = HierarchicalInference(
            fed, confidence_threshold=0.0
        ).evaluate(data.test_x, data.test_y)
        esc_acc, _ = HierarchicalInference(
            fed, confidence_threshold=0.9
        ).evaluate(data.test_x, data.test_y)
        assert esc_acc >= local_acc - 0.05

    def test_accuracy_bounds(self, inference):
        inf, fed, data = inference
        acc, outcome = inf.evaluate(data.test_x, data.test_y)
        assert 0.0 <= acc <= 1.0
        assert acc == outcome.accuracy(data.test_y)

    def test_label_shape_mismatch(self, inference):
        inf, fed, data = inference
        outcome = inf.run(data.test_x)
        with pytest.raises(ValueError):
            outcome.accuracy(data.test_y[:-1])


class TestValidation:
    def test_invalid_threshold(self, trained_federation):
        fed, _, _ = trained_federation
        with pytest.raises(ValueError):
            HierarchicalInference(fed, confidence_threshold=1.5)

    def test_invalid_compression(self, trained_federation):
        fed, _, _ = trained_federation
        with pytest.raises(ValueError):
            HierarchicalInference(fed, compression_count=0)

    def test_invalid_max_level(self, inference):
        inf, fed, data = inference
        with pytest.raises(ValueError):
            inf.run(data.test_x, max_level=0)

    def test_empty_outcome_frequency_raises(self, inference):
        inf, fed, data = inference
        outcome = inf.run(data.test_x[:1])
        outcome.labels = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            outcome.level_frequency(3)


class TestMaxBatch:
    @pytest.mark.parametrize("k", [1, 3, 32])
    def test_capped_visits_match_the_uncapped_walk(
        self, ragged_cells, monkeypatch, k
    ):
        """``run(max_batch=k)`` gives ``run()``'s labels, deciding nodes,
        levels and escalation counts, and no node visit predicts more
        than ``k`` rows."""
        from repro.core.classifier import HDClassifier

        widths = []
        predict = HDClassifier.predict

        def counting(self, encoded, search=None):
            widths.append(len(encoded))
            return predict(self, encoded, search=search)

        monkeypatch.setattr(HDClassifier, "predict", counting)
        for name, inference, max_level, workload, offline in ragged_cells:
            widths.clear()
            capped = inference.run(
                workload.features, start_leaves=workload.start_leaves,
                max_level=max_level, max_batch=k,
            )
            assert widths and max(widths) <= k, name
            assert np.array_equal(capped.labels, offline.labels), name
            assert np.array_equal(
                capped.deciding_node, offline.deciding_node
            ), name
            assert np.array_equal(
                capped.deciding_level, offline.deciding_level
            ), name
            # The float64 search product rounds by batch width, so a
            # confidence agrees to a few ulps, as in every served pin.
            assert np.allclose(
                capped.confidence, offline.confidence, rtol=0, atol=1e-12
            ), name
            assert capped.escalations == offline.escalations, name

    def test_default_visits_are_bounded_and_match_one_row_visits(
        self, ragged_cells, monkeypatch
    ):
        """The default ``run()`` visits a node with at most
        ``_PRODUCT_BLOCK_BYTES // (8 * dimension)`` rows and answers as
        ``run(max_batch=1)`` does. The block is shrunk so the bound
        binds on the 48-query cells (root 3 rows, leaves 12)."""
        import repro.core.classifier as classifier_module
        from repro.core.classifier import HDClassifier

        block = 8 * 1024 * 3
        monkeypatch.setattr(classifier_module, "_PRODUCT_BLOCK_BYTES", block)
        visits = []
        predict = HDClassifier.predict

        def counting(self, encoded, search=None):
            visits.append((self, len(encoded)))
            return predict(self, encoded, search=search)

        monkeypatch.setattr(HDClassifier, "predict", counting)
        reached = set()
        for name, inference, max_level, workload, offline in ragged_cells:
            federation = inference.federation
            node_of = {id(c): n for n, c in federation.classifiers.items()}
            visits.clear()
            default = inference.run(
                workload.features, start_leaves=workload.start_leaves,
                max_level=max_level,
            )
            for classifier, width in visits:
                node = federation.hierarchy.nodes[node_of[id(classifier)]]
                bound = max(1, block // (8 * node.dimension))
                assert width <= bound, name
                if width == bound:
                    reached.add(node.level)
            single = inference.run(
                workload.features, start_leaves=workload.start_leaves,
                max_level=max_level, max_batch=1,
            )
            for outcome in (default, single):
                assert np.array_equal(outcome.labels, offline.labels), name
                assert np.array_equal(
                    outcome.deciding_node, offline.deciding_node
                ), name
                assert np.array_equal(
                    outcome.deciding_level, offline.deciding_level
                ), name
                assert outcome.escalations == offline.escalations, name
        # the bound is met, not merely respected, from leaves to the root
        assert {1, 4} <= reached, reached

    def test_walk_memory_grows_by_the_forwards_it_keeps(
        self, apri_small, traced_peak
    ):
        """Past one node visit, a walk's traced peak grows with its rows
        only by the int8 forwards kept below the root: 4x the rows raise
        the peak by at most (3n rows) x (sum of non-root dimensions)
        bytes plus two product blocks, although every query reaches a
        root whose float64 encodings alone are 8 x 4,096 bytes a row."""
        from repro.config import EdgeHDConfig
        from repro.core.classifier import _PRODUCT_BLOCK_BYTES
        from repro.data.partition import partition_features
        from repro.hierarchy import EdgeHDFederation, build_tree

        federation = EdgeHDFederation(
            build_tree(3), partition_features(apri_small.n_features, 3),
            apri_small.n_classes,
            EdgeHDConfig(dimension=4096, batch_size=10, retrain_epochs=1,
                         seed=17),
        )
        federation.fit_offline(apri_small.train_x, apri_small.train_y)
        central = HierarchicalInference(federation, confidence_threshold=1.0)
        n = 75
        x = apri_small.train_x[:4 * n]
        central.run(x[:8])  # warm up lazily built state
        _, small_peak = traced_peak(lambda: central.run(x[:n]))
        large, large_peak = traced_peak(lambda: central.run(x))
        root = federation.hierarchy.root_id
        assert np.all(large.deciding_node == root)
        kept_per_row = sum(
            node.dimension
            for nid, node in federation.hierarchy.nodes.items()
            if nid != root
        )
        assert large_peak - small_peak <= (
            3 * n * kept_per_row + 2 * _PRODUCT_BLOCK_BYTES
        ), (small_peak, large_peak, kept_per_row)

    def test_invalid_max_batch(self, inference):
        inf, _, data = inference
        with pytest.raises(ValueError, match="max_batch"):
            inf.run(data.test_x[:4], max_batch=0)
