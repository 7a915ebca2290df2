"""Synthetic classification data with controllable non-linear structure.

The paper evaluates on public datasets (MNIST, ISOLET, ...) that are
not available offline, so each is replaced by a deterministic synthetic
generator matched on feature count, class count, end-node layout and
(scaled) sample counts — see DESIGN.md, "Substitutions".

The generator produces *non-linearly separable* classes on purpose:
each class is a mixture of several latent Gaussian clusters whose
centroid average is pulled to the origin, so no single hyperplane (or
linear HD encoding) separates the classes well, while kernel methods —
including EdgeHD's RBF encoding — can. This reproduces the Fig. 7
ordering (non-linear encoding > linear encoding) without the original
data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_positive

__all__ = ["SyntheticDataset", "make_classification", "train_test_split"]


@dataclass
class SyntheticDataset:
    """A generated dataset split into train and test partitions."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def n_features(self) -> int:
        return int(self.train_x.shape[1])

    @property
    def n_classes(self) -> int:
        return int(max(self.train_y.max(), self.test_y.max())) + 1

    @property
    def n_train(self) -> int:
        return int(self.train_x.shape[0])

    @property
    def n_test(self) -> int:
        return int(self.test_x.shape[0])



def _latent_clusters(
    n_classes: int,
    clusters_per_class: int,
    latent_dim: int,
    class_separation: float,
    rng: np.random.Generator,
    parts: int = 1,
) -> np.ndarray:
    """Cluster centers of shape (n_classes, clusters_per_class, latent_dim).

    Centers within a class are spread apart; the *mean* center of every
    class is near the origin so classes are not linearly separable in
    the latent space.

    With ``parts > 1`` (heterogeneous-sensor datasets) each class's
    identifying offset is concentrated in one latent part, so a device
    group that misses that part cannot reliably recognize the class —
    the reason deeper hierarchy levels classify better (Table II).
    """
    if parts > 1:
        # Heterogeneous-sensor regime: all classes share one multi-modal
        # cluster constellation (non-linear structure, but carrying no
        # class identity); class identity lives in offsets whose
        # strength varies randomly across latent parts. Every sensor
        # group then contributes *partial* evidence for every class, and
        # observing more groups monotonically improves separability —
        # the Table II behaviour.
        constellation = rng.standard_normal((1, clusters_per_class, latent_dim))
        constellation -= constellation.mean(axis=1, keepdims=True)
        constellation *= class_separation * 0.5
        offsets = rng.standard_normal((n_classes, 1, latent_dim))
        offsets *= class_separation * 0.8
        part_of_dim = np.arange(latent_dim) % parts
        part_weights = rng.uniform(0.15, 1.0, size=(n_classes, parts))
        for cls in range(n_classes):
            offsets[cls, 0] *= part_weights[cls, part_of_dim]
        return constellation + offsets
    centers = rng.standard_normal((n_classes, clusters_per_class, latent_dim))
    centers *= class_separation
    if clusters_per_class > 1:
        # Remove each class's centroid: classes overlap linearly but
        # occupy distinct cluster constellations.
        centers -= centers.mean(axis=1, keepdims=True)
        # Re-inject a class-specific offset so the task is solvable
        # but not by a hyperplane alone.
        offsets = rng.standard_normal((n_classes, 1, latent_dim)) * (
            class_separation * 0.45
        )
        centers += offsets
    return centers


def make_classification(
    n_samples: int,
    n_features: int,
    n_classes: int,
    clusters_per_class: int = 3,
    latent_dim: int | None = None,
    class_separation: float = 2.5,
    noise: float = 0.6,
    nonlinear_mix: float = 0.5,
    feature_blocks: int = 1,
    block_leak: float = 0.12,
    seed: SeedLike = None,
    name: str = "synthetic",
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(features, labels)`` with multi-cluster classes.

    Samples are drawn in a latent space (cluster mixture), then lifted
    to ``n_features`` through a fixed random linear map blended with a
    ``tanh`` non-linearity (``nonlinear_mix`` fraction), plus i.i.d.
    observation noise. Deterministic for a given ``seed``.

    ``feature_blocks > 1`` models heterogeneous sensors: the features
    are split into contiguous blocks and each block observes mainly
    *its own slice* of the latent space (other latent dimensions are
    attenuated to ``block_leak``). A single block — one end node's
    sensors — then carries only partial class information, and the
    hierarchy's benefit of combining devices (Table II) emerges.
    """
    check_positive("n_samples", n_samples)
    check_positive("n_features", n_features)
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    check_positive("clusters_per_class", clusters_per_class)
    check_positive("feature_blocks", feature_blocks)
    if not 0.0 <= nonlinear_mix <= 1.0:
        raise ValueError("nonlinear_mix must be in [0, 1]")
    if not 0.0 <= block_leak <= 1.0:
        raise ValueError("block_leak must be in [0, 1]")
    if feature_blocks > n_features:
        raise ValueError("feature_blocks cannot exceed n_features")
    if latent_dim is None:
        latent_dim = int(min(n_features, max(8, n_classes * 2)))
    rng = derive_rng(seed, f"dataset-{name}")
    parts = int(min(feature_blocks, latent_dim)) if feature_blocks > 1 else 1
    centers = _latent_clusters(
        n_classes, clusters_per_class, latent_dim, class_separation, rng,
        parts=parts,
    )
    labels = rng.integers(0, n_classes, size=n_samples)
    cluster_ids = rng.integers(0, clusters_per_class, size=n_samples)
    latent = centers[labels, cluster_ids] + rng.standard_normal(
        (n_samples, latent_dim)
    )
    # Fixed random lift to the observed feature space.
    lift = rng.standard_normal((latent_dim, n_features)) / np.sqrt(latent_dim)
    mix = rng.standard_normal((latent_dim, n_features)) / np.sqrt(latent_dim)
    if feature_blocks > 1:
        mask = _block_mask(
            n_features, latent_dim, feature_blocks, block_leak, rng
        )
        lift = lift * mask
        mix = mix * mask
    # (1 - m)·(latent @ lift) + m·tanh(latent @ mix)·2 + noise·N(0, 1),
    # in place: one scratch array takes the tanh term, then the noise.
    observed = latent @ lift
    observed *= 1.0 - nonlinear_mix
    scratch = latent @ mix
    np.tanh(scratch, out=scratch)
    scratch *= nonlinear_mix
    scratch *= 2.0
    observed += scratch
    rng.standard_normal(out=scratch)
    scratch *= noise
    observed += scratch
    return observed, labels.astype(np.int64)


def _block_mask(
    n_features: int,
    latent_dim: int,
    feature_blocks: int,
    block_leak: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """(latent_dim, n_features) attenuation mask for heterogeneous blocks.

    Features are split into ``feature_blocks`` contiguous groups; the
    latent dimensions are split into ``min(feature_blocks, latent_dim)``
    parts assigned round-robin, so each feature group sees its latent
    part at full strength and the rest at ``block_leak``.
    """
    parts = int(min(feature_blocks, latent_dim))
    latent_part = np.arange(latent_dim) % parts
    # Contiguous feature blocks, remainder spread over the first blocks.
    sizes = np.full(feature_blocks, n_features // feature_blocks, dtype=np.int64)
    sizes[: n_features % feature_blocks] += 1
    mask = np.full((latent_dim, n_features), block_leak)
    start = 0
    for block, size in enumerate(sizes):
        part = block % parts
        mask[latent_part == part, start : start + size] = 1.0
        start += size
    # Rescale columns so every feature keeps unit signal variance.
    norms = np.linalg.norm(mask, axis=0, keepdims=True) / np.sqrt(latent_dim)
    return mask / norms


def train_test_split(
    features: np.ndarray,
    labels: np.ndarray,
    test_fraction: float = 0.2,
    seed: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split into train/test partitions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = features.shape[0]
    if labels.shape[0] != n:
        raise ValueError("features and labels disagree on sample count")
    rng = derive_rng(seed, "split")
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    if train_idx.size == 0:
        raise ValueError("split leaves no training samples")
    return (
        features[train_idx],
        labels[train_idx],
        features[test_idx],
        labels[test_idx],
    )
