"""Unit tests for feature partitioning across end nodes."""

import numpy as np
import pytest

from repro.data.partition import FeaturePartition, partition_features


class TestPartitionFeatures:
    def test_balanced_sizes(self):
        part = partition_features(10, 3)
        assert part.feature_counts() == [4, 3, 3]
        part.validate()

    def test_exact_division(self):
        part = partition_features(12, 4)
        assert part.feature_counts() == [3, 3, 3, 3]

    def test_single_node_gets_all(self):
        part = partition_features(7, 1)
        assert part.feature_counts() == [7]
        assert np.array_equal(part.columns(0), np.arange(7))

    def test_contiguous_when_not_shuffled(self):
        part = partition_features(9, 3)
        assert part.slices == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_too_many_nodes(self):
        with pytest.raises(ValueError):
            partition_features(3, 5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            partition_features(0, 1)
        with pytest.raises(ValueError):
            partition_features(5, 0)


class TestFeaturePartition:
    @pytest.fixture()
    def part(self):
        return partition_features(8, 2)

    def test_restrict_matrix(self, part):
        mat = np.arange(16).reshape(2, 8)
        assert np.array_equal(part.restrict(mat, 0), mat[:, :4])
        assert np.array_equal(part.restrict(mat, 1), mat[:, 4:])

    def test_restrict_vector(self, part):
        vec = np.arange(8)
        assert np.array_equal(part.restrict(vec, 1), vec[4:])

    def test_columns_out_of_range(self, part):
        with pytest.raises(IndexError):
            part.columns(2)

    def test_n_properties(self, part):
        assert part.n_nodes == 2
        assert part.n_features == 8

    def test_validate_catches_overlap(self):
        bad = FeaturePartition(slices=((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_catches_gap(self):
        bad = FeaturePartition(slices=((0, 1), (3,)))
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_catches_empty_slice(self):
        bad = FeaturePartition(slices=((0, 1), ()))
        with pytest.raises(ValueError):
            bad.validate()
