"""Unit tests for the Table I dataset registry."""

import numpy as np
import pytest

import repro.data.datasets as datasets_module
from repro.data.datasets import (
    DATASETS,
    HIERARCHY_DATASETS,
    dataset_names,
    load_dataset,
)
from repro.data.synthetic import (
    _block_mask,
    _latent_clusters,
    make_classification,
    train_test_split,
)
from repro.utils.rng import derive_rng


class TestRegistry:
    def test_all_nine_present(self):
        assert len(DATASETS) == 9
        assert dataset_names() == [
            "MNIST", "ISOLET", "UCIHAR", "EXTRA", "FACE",
            "PECAN", "PAMAP2", "APRI", "PDP",
        ]

    def test_table1_shapes(self):
        """Spec fields mirror Table I of the paper."""
        expectations = {
            "MNIST": (784, 10, None, 60_000, 10_000),
            "ISOLET": (617, 26, None, 6_238, 1_559),
            "UCIHAR": (561, 12, None, 6_213, 1_554),
            "EXTRA": (225, 4, None, 146_869, 16_343),
            "FACE": (608, 2, None, 522_441, 2_494),
            "PECAN": (312, 3, 312, 22_290, 5_574),
            "PAMAP2": (75, 5, 3, 611_142, 101_582),
            "APRI": (36, 2, 3, 67_017, 1_241),
            "PDP": (60, 2, 5, 17_385, 7_334),
        }
        for name, (n, k, nodes, train, test) in expectations.items():
            spec = DATASETS[name]
            assert spec.n_features == n
            assert spec.n_classes == k
            assert spec.n_end_nodes == nodes
            assert spec.paper_train_size == train
            assert spec.paper_test_size == test

    def test_hierarchy_subset(self):
        assert set(HIERARCHY_DATASETS) == {"PECAN", "PAMAP2", "APRI", "PDP"}
        for name in HIERARCHY_DATASETS:
            assert DATASETS[name].is_hierarchical


class TestLoadDataset:
    def test_shapes_match_spec(self):
        data = load_dataset("PDP", scale=0.05)
        spec = DATASETS["PDP"]
        assert data.n_features == spec.n_features
        assert data.n_classes == spec.n_classes

    def test_scale_controls_size(self):
        small = load_dataset("PDP", scale=0.02)
        large = load_dataset("PDP", scale=0.1)
        assert small.n_train < large.n_train

    def test_max_caps(self):
        data = load_dataset("FACE", scale=1.0, max_train=500, max_test=100)
        assert data.n_train <= 500
        assert data.n_test <= 100

    def test_deterministic(self):
        a = load_dataset("APRI", scale=0.02, seed=4)
        b = load_dataset("APRI", scale=0.02, seed=4)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("CIFAR")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("PDP", scale=0.0)

    def test_minimum_samples_per_class(self):
        """Even tiny scales keep enough samples to train."""
        data = load_dataset("ISOLET", scale=0.001)
        counts = np.bincount(data.train_y, minlength=data.n_classes)
        assert counts.min() >= 1

    def test_learnable(self):
        """Each generated dataset is actually learnable by EdgeHD."""
        from repro.core.model import EdgeHDModel

        data = load_dataset("UCIHAR", scale=0.05, max_train=800, max_test=300)
        model = EdgeHDModel(
            data.n_features, data.n_classes, dimension=1000, seed=1
        )
        model.fit(data.train_x, data.train_y, retrain_epochs=5)
        chance = 1.0 / data.n_classes
        assert model.accuracy(data.test_x, data.test_y) > chance + 0.3


def _pre_change_make_classification(
    n_samples, n_features, n_classes, clusters_per_class, latent_dim,
    class_separation, noise, nonlinear_mix, feature_blocks, block_leak,
    seed, name,
):
    """``make_classification`` as it was written before the generator
    built its output in place: its draws replayed, and the final
    expression kept verbatim."""
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
    lift = rng.standard_normal((latent_dim, n_features)) / np.sqrt(latent_dim)
    mix = rng.standard_normal((latent_dim, n_features)) / np.sqrt(latent_dim)
    if feature_blocks > 1:
        mask = _block_mask(
            n_features, latent_dim, feature_blocks, block_leak, rng
        )
        lift = lift * mask
        mix = mix * mask
    observed = (1.0 - nonlinear_mix) * (latent @ lift) + nonlinear_mix * np.tanh(
        latent @ mix
    ) * 2.0
    observed += noise * rng.standard_normal((n_samples, n_features))
    return observed.astype(np.float64), labels.astype(np.int64)


class TestGeneratorBits:
    """The in-place generator reproduces the old expression bit for bit."""

    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("scale", [0.01, 0.05])
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_load_dataset_equals_pre_change(self, monkeypatch, name, scale, seed):
        got = load_dataset(name, scale=scale, max_train=600, seed=seed)
        monkeypatch.setattr(
            datasets_module, "make_classification",
            _pre_change_make_classification,
        )
        want = load_dataset(name, scale=scale, max_train=600, seed=seed)
        for field in ("train_x", "train_y", "test_x", "test_y"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert np.array_equal(a, b), field


def _whole_matrix_load_dataset(name, scale, max_train, max_test, seed):
    """``load_dataset``'s body as it stands: one whole-matrix draw,
    then the split. A generator that writes rows straight into their
    split order must reproduce it bit for bit."""
    spec = DATASETS[name]
    n_train = int(min(max(spec.paper_train_size * scale, 40 * spec.n_classes), max_train))
    n_test = int(min(max(spec.paper_test_size * scale, 10 * spec.n_classes), max_test))
    total = n_train + n_test
    features, labels = make_classification(
        n_samples=total,
        n_features=spec.n_features,
        n_classes=spec.n_classes,
        clusters_per_class=spec.clusters_per_class,
        class_separation=spec.class_separation,
        noise=spec.noise,
        nonlinear_mix=spec.nonlinear_mix,
        feature_blocks=spec.n_end_nodes or 1,
        block_leak=spec.block_leak,
        latent_dim=spec.latent_dim,
        seed=seed,
        name=spec.name,
    )
    return train_test_split(
        features, labels, test_fraction=n_test / total, seed=seed
    )


@pytest.mark.parametrize("args", [
    dict(scale=0.05, max_train=4000, max_test=1500, seed=7),
    # the e2e benchmark's draw, with fewer test rows
    dict(scale=5.0, max_train=1250, max_test=3000, seed=7),
], ids=["default", "e2e"])
@pytest.mark.parametrize("name", HIERARCHY_DATASETS)
def test_load_dataset_equals_the_whole_matrix_draw(name, args):
    """Pins the bits of the hierarchy datasets, whose e2e draw sets the
    benchmark's peak memory: a rewrite that lowers it must keep them."""
    got = load_dataset(name, **args)
    want = _whole_matrix_load_dataset(name, **args)
    for field, expected in zip(("train_x", "train_y", "test_x", "test_y"), want):
        actual = getattr(got, field)
        assert actual.dtype == expected.dtype, field
        assert np.array_equal(actual, expected), field


def test_load_dataset_memory_is_bounded_by_its_output(traced_peak):
    """The generator holds its output and one scratch array of the same
    size, and the split copies the output once: a peak of about twice
    the features. The latent draws and labels are far below half of
    them, so 2.5x bounds it. The old expression's temporaries took it
    past 3x."""
    data, peak = traced_peak(lambda: load_dataset(
        "PDP", scale=5.0, max_train=1250, max_test=30000
    ))
    output = data.train_x.nbytes + data.test_x.nbytes
    assert peak <= 2.5 * output
