"""Unit tests for residual accumulators (online learning, Sec. IV-D)."""

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.hypervector import random_bipolar
from repro.core.online import ResidualAccumulator


@pytest.fixture()
def acc():
    return ResidualAccumulator(n_classes=3, dimension=16)


class TestRecording:
    def test_initially_empty(self, acc):
        assert acc.is_empty
        assert acc.feedback_count == 0
        assert np.all(acc.negative == 0) and np.all(acc.positive == 0)

    def test_negative_only_feedback(self, acc):
        q = np.ones(16)
        acc.record_negative(q, predicted_class=1)
        assert acc.feedback_count == 1
        assert np.array_equal(acc.negative[1], q)
        assert np.all(acc.positive == 0)

    def test_feedback_with_true_label(self, acc):
        q = np.ones(16)
        acc.record_negative(q, predicted_class=1, true_class=2)
        assert np.array_equal(acc.negative[1], q)
        assert np.array_equal(acc.positive[2], q)

    def test_accumulates(self, acc):
        q = np.ones(16)
        acc.record_negative(q, 0)
        acc.record_negative(q, 0)
        assert np.array_equal(acc.negative[0], 2 * q)
        assert acc.feedback_count == 2

    def test_same_class_feedback_rejected(self, acc):
        with pytest.raises(ValueError):
            acc.record_negative(np.ones(16), predicted_class=1, true_class=1)

    def test_bad_query_shape(self, acc):
        with pytest.raises(ValueError):
            acc.record_negative(np.ones(8), 0)

    def test_bad_class_index(self, acc):
        with pytest.raises(IndexError):
            acc.record_negative(np.ones(16), 7)
        with pytest.raises(IndexError):
            acc.record_negative(np.ones(16), 0, true_class=9)

    @pytest.mark.parametrize(
        "query, true_class",
        [(np.ones(16), 1), (np.ones(16), 9), (np.ones(8), 2)],
        ids=["true-is-predicted", "true-out-of-range", "bad-shape"],
    )
    def test_rejected_feedback_leaves_no_trace(self, acc, query, true_class):
        # a half-recorded event would be applied by the next propagation
        acc.record_negative(np.full(16, 2.0), 0, true_class=2)
        before = acc.copy()
        with pytest.raises((ValueError, IndexError)):
            acc.record_negative(query, predicted_class=1, true_class=true_class)
        assert np.array_equal(acc.negative, before.negative)
        assert np.array_equal(acc.positive, before.positive)
        assert np.array_equal(acc.negative_counts, before.negative_counts)
        assert np.array_equal(acc.positive_counts, before.positive_counts)
        assert acc.feedback_count == before.feedback_count


class TestApply:
    def test_apply_subtracts_negative_adds_positive(self):
        acc = ResidualAccumulator(2, 4)
        clf = HDClassifier(2, 4).set_model(np.zeros((2, 4)))
        q = np.array([1.0, -1.0, 1.0, -1.0])
        acc.record_negative(q, predicted_class=0, true_class=1)
        acc.apply_to(clf)
        assert np.array_equal(clf.class_hypervectors[0], -q)
        assert np.array_equal(clf.class_hypervectors[1], q)

    def test_apply_learning_rate(self):
        acc = ResidualAccumulator(2, 4)
        clf = HDClassifier(2, 4).set_model(np.zeros((2, 4)))
        acc.record_negative(np.ones(4), 0)
        acc.apply_to(clf, learning_rate=0.5)
        assert np.allclose(clf.class_hypervectors[0], -0.5)

    def test_apply_does_not_clear(self):
        acc = ResidualAccumulator(2, 4)
        clf = HDClassifier(2, 4).set_model(np.zeros((2, 4)))
        acc.record_negative(np.ones(4), 0)
        acc.apply_to(clf)
        assert not acc.is_empty

    def test_apply_shape_mismatch(self):
        acc = ResidualAccumulator(2, 4)
        clf = HDClassifier(2, 8).set_model(np.zeros((2, 8)))
        with pytest.raises(ValueError):
            acc.apply_to(clf)

    def test_apply_unfitted_classifier(self):
        acc = ResidualAccumulator(2, 4)
        with pytest.raises(RuntimeError):
            acc.apply_to(HDClassifier(2, 4))

    def test_apply_invalid_lr(self):
        acc = ResidualAccumulator(2, 4)
        acc.record_negative(np.ones(4), 0)
        clf = HDClassifier(2, 4).set_model(np.zeros((2, 4)))
        for rate in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                acc.apply_to(clf, learning_rate=rate)
        assert np.array_equal(clf.class_hypervectors, np.zeros((2, 4)))

    def test_online_update_improves_on_mistake(self):
        """Subtracting a misclassified query weakens the wrong class."""
        dim = 2000
        correct = random_bipolar(dim, seed=1).astype(float)
        wrong = random_bipolar(dim, seed=2).astype(float)
        clf = HDClassifier(2, dim).set_model(np.vstack([correct, wrong]))
        # A query near class 0 but currently closer to class 1's model.
        query = 0.4 * correct + 0.8 * wrong
        assert clf.predict(query.reshape(1, -1)).labels[0] == 1
        acc = ResidualAccumulator(2, dim)
        for _ in range(3):
            acc.record_negative(query, predicted_class=1)
        acc.apply_to(clf)
        assert clf.predict(query.reshape(1, -1)).labels[0] == 0


class TestMergeTransferClear:
    def test_copy_is_exact_and_independent(self):
        acc = ResidualAccumulator(3, 4)
        acc.record_negative(np.ones(4), 0, true_class=2)
        acc.record_negative(2 * np.ones(4), 0)
        clone = acc.copy()
        for name in ("negative", "positive", "negative_counts",
                     "positive_counts"):
            assert np.array_equal(getattr(clone, name), getattr(acc, name))
        # per-class counts survive — load() would spread them evenly
        assert clone.negative_counts.tolist() == [2, 0, 0]
        assert clone.feedback_count == 2
        clone.record_negative(np.ones(4), 1)
        assert acc.feedback_count == 2 and acc.negative[1].sum() == 0

    def test_snapshot_copies(self):
        acc = ResidualAccumulator(2, 4)
        acc.record_negative(np.ones(4), 0)
        neg, pos = acc.snapshot()
        neg[0, 0] = 99.0
        assert acc.negative[0, 0] == 1.0

    def test_load(self):
        acc = ResidualAccumulator(2, 4)
        neg = np.ones((2, 4))
        pos = np.zeros((2, 4))
        acc.load(neg, pos, count=5)
        assert acc.feedback_count == 5
        assert np.array_equal(acc.negative, neg)

    def test_load_bad_shapes(self):
        acc = ResidualAccumulator(2, 4)
        with pytest.raises(ValueError):
            acc.load(np.ones((3, 4)), np.ones((2, 4)), 1)
        with pytest.raises(ValueError):
            acc.load(np.ones((2, 4)), np.ones((2, 4)), -1)

    def test_clear(self):
        acc = ResidualAccumulator(2, 4)
        acc.record_negative(np.ones(4), 0)
        acc.clear()
        assert acc.is_empty
        assert np.all(acc.negative == 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ResidualAccumulator(1, 4)
        with pytest.raises(ValueError):
            ResidualAccumulator(2, 0)
