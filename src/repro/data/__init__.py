"""Synthetic datasets and feature partitioning (Table I stand-ins)."""

from repro.data.datasets import (
    DATASETS,
    HIERARCHY_DATASETS,
    DatasetSpec,
    dataset_names,
    load_dataset,
)
from repro.data.partition import FeaturePartition, partition_features
from repro.data.synthetic import SyntheticDataset, make_classification, train_test_split

__all__ = [
    "DATASETS",
    "HIERARCHY_DATASETS",
    "DatasetSpec",
    "dataset_names",
    "load_dataset",
    "FeaturePartition",
    "partition_features",
    "SyntheticDataset",
    "make_classification",
    "train_test_split",
]
