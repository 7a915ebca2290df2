"""Unit tests for the synthetic data generator."""

import numpy as np
import pytest

from repro.data.synthetic import (
    SyntheticDataset,
    make_classification,
    train_test_split,
)


class TestMakeClassification:
    def test_shapes_and_labels(self):
        x, y = make_classification(200, 10, 4, seed=1)
        assert x.shape == (200, 10)
        assert y.shape == (200,)
        assert set(np.unique(y)) <= set(range(4))

    def test_deterministic(self):
        a = make_classification(100, 8, 3, seed=7)
        b = make_classification(100, 8, 3, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_data(self):
        a = make_classification(100, 8, 3, seed=7)
        b = make_classification(100, 8, 3, seed=8)
        assert not np.array_equal(a[0], b[0])

    def test_all_classes_present(self):
        _, y = make_classification(500, 6, 5, seed=2)
        assert len(np.unique(y)) == 5

    def test_not_linearly_separable_but_learnable(self):
        """Multi-cluster classes defeat a linear model but not a
        nearest-centroid-per-cluster view (the generator's contract)."""
        x, y = make_classification(
            600, 12, 2, clusters_per_class=3, seed=3, noise=0.3
        )
        # Linear probe: least-squares on {-1,+1} targets.
        targets = np.where(y == 0, -1.0, 1.0)
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        w, *_ = np.linalg.lstsq(xb, targets, rcond=None)
        linear_acc = np.mean(np.sign(xb @ w) == targets)
        assert linear_acc < 0.9

    def test_feature_blocks_complementary(self):
        """With blocks, a single block is less informative than all."""
        x, y = make_classification(
            1500, 30, 3, feature_blocks=3, seed=4, noise=0.3
        )
        from repro.core.model import EdgeHDModel

        full = EdgeHDModel(30, 3, dimension=1000, seed=1)
        full.fit(x[:1000], y[:1000], retrain_epochs=5)
        part = EdgeHDModel(10, 3, dimension=1000, seed=1)
        part.fit(x[:1000, :10], y[:1000], retrain_epochs=5)
        assert full.accuracy(x[1000:], y[1000:]) > part.accuracy(
            x[1000:, :10], y[1000:]
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_classification(0, 5, 2)
        with pytest.raises(ValueError):
            make_classification(10, 0, 2)
        with pytest.raises(ValueError):
            make_classification(10, 5, 1)
        with pytest.raises(ValueError):
            make_classification(10, 5, 2, nonlinear_mix=1.5)
        with pytest.raises(ValueError):
            make_classification(10, 5, 2, feature_blocks=6)
        with pytest.raises(ValueError):
            make_classification(10, 5, 2, feature_blocks=2, block_leak=-0.1)


class TestTrainTestSplit:
    def test_sizes(self):
        x, y = make_classification(100, 4, 2, seed=5)
        tr_x, tr_y, te_x, te_y = train_test_split(x, y, test_fraction=0.25, seed=1)
        assert tr_x.shape[0] == 75 and te_x.shape[0] == 25
        assert tr_y.shape[0] == 75 and te_y.shape[0] == 25

    def test_disjoint_and_complete(self):
        x, y = make_classification(60, 4, 2, seed=6)
        # Tag rows uniquely via first column.
        x[:, 0] = np.arange(60)
        tr_x, _, te_x, _ = train_test_split(x, y, 0.5, seed=2)
        combined = np.sort(np.concatenate([tr_x[:, 0], te_x[:, 0]]))
        assert np.array_equal(combined, np.arange(60))

    def test_invalid_fraction(self):
        x, y = make_classification(10, 4, 2, seed=7)
        with pytest.raises(ValueError):
            train_test_split(x, y, 0.0)
        with pytest.raises(ValueError):
            train_test_split(x, y, 1.0)

    def test_length_mismatch(self):
        x, y = make_classification(10, 4, 2, seed=8)
        with pytest.raises(ValueError):
            train_test_split(x, y[:5], 0.2)


class TestSyntheticDataset:
    @pytest.fixture()
    def dataset(self):
        x, y = make_classification(100, 12, 3, seed=9)
        return SyntheticDataset("demo", x[:80], y[:80], x[80:], y[80:])

    def test_properties(self, dataset):
        assert dataset.n_features == 12
        assert dataset.n_classes == 3
        assert dataset.n_train == 80
        assert dataset.n_test == 20
