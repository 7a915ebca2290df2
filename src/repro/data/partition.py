"""Feature partitioning across end nodes.

In the paper's smart-home setting every end device owns a different set
of sensors, i.e. a different *feature subset* of the global feature
vector (heterogeneous features, challenge (i) in the introduction).
This module splits the ``n`` global features into per-node slices and
records which node owns which columns — the contract between the data
layer and :mod:`repro.hierarchy`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["FeaturePartition", "partition_features"]


@dataclass(frozen=True)
class FeaturePartition:
    """Assignment of global feature columns to end nodes."""

    slices: tuple[tuple[int, ...], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.slices)

    @functools.cached_property
    def n_features(self) -> int:
        return sum(len(s) for s in self.slices)

    @functools.cached_property
    def _takes(self) -> tuple:
        # what indexes each node's columns: a slice (a view) for a run
        # of consecutive columns in order, else the column array
        return tuple(
            slice(s[0], s[0] + len(s))
            if s and s == tuple(range(s[0], s[0] + len(s)))
            else np.asarray(s, dtype=np.int64)
            for s in self.slices
        )

    def columns(self, node_index: int) -> np.ndarray:
        """Feature columns owned by end node ``node_index``."""
        if not 0 <= node_index < self.n_nodes:
            raise IndexError(f"node_index {node_index} out of range")
        return np.asarray(self.slices[node_index], dtype=np.int64)

    def feature_counts(self) -> list[int]:
        """Per-node feature counts ``n_i`` (drives dimension allocation)."""
        return [len(s) for s in self.slices]

    def restrict(self, features: np.ndarray, node_index: int) -> np.ndarray:
        """``features`` keeping only this node's columns, in slice order.

        Dtype-preserving, and a view when the node's columns are one
        run in order (the hot path slices the same training matrix once
        per node), so validation is structural only.
        """
        mat = np.asarray(features)
        if mat.ndim not in (1, 2):
            raise ValueError(
                f"features must be 1-D or 2-D, got shape {mat.shape}"
            )
        if mat.shape[-1] != self.n_features:
            raise ValueError(
                f"features must have {self.n_features} columns, got "
                f"{mat.shape[-1]}"
            )
        if not 0 <= node_index < self.n_nodes:
            raise IndexError(f"node_index {node_index} out of range")
        return mat[..., self._takes[node_index]]

    def validate(self) -> None:
        """Check the slices form a disjoint cover of [0, n_features)."""
        seen: set[int] = set()
        for s in self.slices:
            if not s:
                raise ValueError("empty feature slice")
            overlap = seen.intersection(s)
            if overlap:
                raise ValueError(f"feature columns assigned twice: {sorted(overlap)}")
            seen.update(s)
        if seen != set(range(self.n_features)):
            raise ValueError("slices do not cover the feature range contiguously")


def partition_features(n_features: int, n_nodes: int) -> FeaturePartition:
    """Split ``n_features`` columns across ``n_nodes`` end nodes.

    Each node owns a contiguous run of columns, in node order, and the
    runs' sizes differ by at most one: the remainder goes one column
    each to the first nodes.
    """
    if n_features <= 0:
        raise ValueError(f"n_features must be positive, got {n_features}")
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    if n_nodes > n_features:
        raise ValueError(
            f"cannot split {n_features} features over {n_nodes} nodes"
        )
    sizes = np.full(n_nodes, n_features // n_nodes, dtype=np.int64)
    sizes[: n_features % n_nodes] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    return FeaturePartition(slices=tuple(
        tuple(range(start, stop)) for start, stop in zip(bounds, bounds[1:])
    ))
