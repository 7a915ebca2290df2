"""Property-based tests for the v2 topology checkpoint format.

Hypothesis generates random topologies (STAR / TREE / deep trees),
off-word dimensions, and model value families (dense floats, binarized
signs and their packed words, quantize-roundtripped values), and checks
the format's two contracts:

* **bit-exact round trip** — every model array, residual stack, count
  vector, lifecycle state and learner parameter survives
  ``save_topology_state`` → ``load_topology_state`` unchanged;
* **no silent corruption** — truncated archives, flipped format
  versions, missing arrays and garbage files all raise
  :class:`CheckpointError`, never a half-loaded federation.

Models are installed directly (``set_model``) rather than trained —
the format must round-trip any valid model stack, and this keeps each
Hypothesis example cheap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EdgeHDConfig
from repro.core.hypervector import sign_binarize
from repro.core.quantize import dequantize_model, quantize_model
from repro.data.partition import partition_features
from repro.hierarchy.checkpoint import (
    CheckpointError,
    load_topology_state,
    save_topology_state,
)
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.online import OnlineLearner
from repro.hierarchy.topology import build_deep_tree, build_star, build_tree
from repro.utils.rng import derive_rng

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _build(layout: str, n_leaves: int):
    if layout == "star":
        return build_star(n_leaves)
    if layout == "tree":
        return build_tree(n_leaves)
    return build_deep_tree(n_leaves, depth=3)


@st.composite
def federation_with_models(draw):
    """A federation with directly-installed models of a drawn family."""
    layout = draw(st.sampled_from(["star", "tree", "deep"]))
    n_leaves = draw(st.integers(min_value=2, max_value=5))
    n_classes = draw(st.integers(min_value=2, max_value=4))
    n_features = draw(st.integers(min_value=n_leaves, max_value=20))
    # deliberately includes dimensions that are not multiples of 64
    # (off-word): the packed/binarized paths must not round them.
    dimension = draw(st.integers(min_value=65, max_value=300))
    kind = draw(st.sampled_from(["dense", "binarized", "quantized"]))
    seed = draw(seeds)
    hierarchy = _build(layout, n_leaves)
    partition = partition_features(n_features, n_leaves)
    config = EdgeHDConfig(
        dimension=dimension, batch_size=10, retrain_epochs=1, seed=seed
    )
    hierarchy.allocate_dimensions(dimension, partition.feature_counts())
    federation = EdgeHDFederation(hierarchy, partition, n_classes, config)
    for offset, nid in enumerate(sorted(hierarchy.nodes)):
        node = hierarchy.nodes[nid]
        rng = derive_rng(seed + offset, "ckpt-prop-model")
        model = rng.normal(size=(n_classes, node.dimension))
        if kind == "binarized":
            model = sign_binarize(model)
        elif kind == "quantized":
            model = dequantize_model(quantize_model(model))
        federation.classifiers[nid].set_model(model.astype(np.float64))
    return federation, kind, seed


def _fill_learner(federation: EdgeHDFederation, seed: int) -> OnlineLearner:
    learner = OnlineLearner(federation)
    learner._propagations = seed % 7
    for offset, (nid, acc) in enumerate(sorted(learner.residuals.items())):
        rng = derive_rng(seed + offset, "ckpt-prop-residual")
        acc.negative = rng.normal(size=acc.negative.shape)
        acc.positive = rng.normal(size=acc.positive.shape)
        acc.negative_counts = rng.integers(
            0, 5, size=acc.negative_counts.shape
        ).astype(np.int64)
        acc.positive_counts = rng.integers(
            0, 5, size=acc.positive_counts.shape
        ).astype(np.int64)
        acc.feedback_count = int(acc.negative_counts.sum())
    return learner


class TestRoundTripProperties:
    @given(setup=federation_with_models())
    @settings(max_examples=15, deadline=None)
    def test_models_round_trip_bit_exact(self, setup, tmp_path_factory):
        federation, kind, _ = setup
        path = tmp_path_factory.mktemp("ckpt") / "topo.npz"
        save_topology_state(federation, path)
        ckpt = load_topology_state(path)
        restored = ckpt.federation
        assert restored is not None
        assert set(restored.classifiers) == set(federation.classifiers)
        for nid, clf in federation.classifiers.items():
            original = clf.class_hypervectors
            loaded = restored.classifiers[nid].class_hypervectors
            assert loaded.dtype == original.dtype
            assert np.array_equal(loaded, original), f"node {nid} ({kind})"

    @given(setup=federation_with_models())
    @settings(max_examples=10, deadline=None)
    def test_packed_words_round_trip_bit_exact(self, setup, tmp_path_factory):
        from repro.core.kernels import pack_bits

        federation, _, _ = setup
        # force a sign model so packing is exact (off-word dims stay)
        for clf in federation.classifiers.values():
            clf.set_model(sign_binarize(clf.class_hypervectors))
        path = tmp_path_factory.mktemp("ckpt") / "topo.npz"
        save_topology_state(federation, path)
        restored = load_topology_state(path).federation
        for nid, clf in federation.classifiers.items():
            before = pack_bits(clf.class_hypervectors)
            after = pack_bits(restored.classifiers[nid].class_hypervectors)
            assert before.dimension == after.dimension
            assert np.array_equal(before.words, after.words)

    @given(setup=federation_with_models())
    @settings(max_examples=10, deadline=None)
    def test_online_state_round_trips_bit_exact(
        self, setup, tmp_path_factory
    ):
        federation, _, seed = setup
        learner = _fill_learner(federation, seed)
        path = tmp_path_factory.mktemp("ckpt") / "topo.npz"
        states = {nid: "active" for nid in federation.hierarchy.nodes}
        victim = federation.hierarchy.leaves()[0]
        states[victim] = "crashed"
        save_topology_state(
            federation, path, learner=learner,
            node_states=states, journal_seq=seed % 13,
        )
        ckpt = load_topology_state(path)
        assert ckpt.journal_seq == seed % 13
        assert ckpt.node_states == states
        restored = ckpt.build_learner()
        assert restored is not None
        assert restored._propagations == learner._propagations
        assert set(restored.residuals) == set(learner.residuals)
        assert set(ckpt.residuals) == set(learner.residuals)
        for nid, acc in learner.residuals.items():
            # the accumulator the loader decoded, and the copy of it the
            # rebuilt learner owns: both exact, per-class counts included
            assert restored.residuals[nid] is not ckpt.residuals[nid]
            for loaded in (ckpt.residuals[nid], restored.residuals[nid]):
                assert (loaded.n_classes, loaded.dimension) == (
                    acc.n_classes, acc.dimension
                )
                assert np.array_equal(loaded.negative, acc.negative)
                assert np.array_equal(loaded.positive, acc.positive)
                assert np.array_equal(
                    loaded.negative_counts, acc.negative_counts
                )
                assert np.array_equal(
                    loaded.positive_counts, acc.positive_counts
                )
                assert loaded.feedback_count == acc.feedback_count

    @given(setup=federation_with_models())
    @settings(max_examples=10, deadline=None)
    def test_hierarchy_spec_round_trips(self, setup, tmp_path_factory):
        federation, _, _ = setup
        path = tmp_path_factory.mktemp("ckpt") / "topo.npz"
        save_topology_state(federation, path)
        restored = load_topology_state(path).federation
        assert restored.hierarchy.spec() == federation.hierarchy.spec()
        assert restored.partition.slices == federation.partition.slices
        assert restored.config == federation.config


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    hierarchy = build_tree(3)
    partition = partition_features(12, 3)
    config = EdgeHDConfig(dimension=130, batch_size=10, seed=3)
    hierarchy.allocate_dimensions(config.dimension, partition.feature_counts())
    federation = EdgeHDFederation(hierarchy, partition, 3, config)
    rng = np.random.default_rng(0)
    for nid, node in hierarchy.nodes.items():
        federation.classifiers[nid].set_model(
            rng.normal(size=(3, node.dimension))
        )
    path = tmp_path_factory.mktemp("corrupt") / "topo.npz"
    save_topology_state(federation, path)
    return path


class TestCorruptionDetection:
    @given(percent=st.integers(min_value=1, max_value=95))
    @settings(max_examples=15, deadline=None)
    def test_truncated_archive_raises(
        self, percent, saved_checkpoint, tmp_path_factory
    ):
        raw = saved_checkpoint.read_bytes()
        cut = max(1, len(raw) * percent // 100)
        target = tmp_path_factory.mktemp("trunc") / "topo.npz"
        target.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match=str(target)):
            load_topology_state(target)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a numpy archive at all")
        with pytest.raises(CheckpointError, match="not a readable"):
            load_topology_state(path)

    def test_version_mismatch_raises(self, saved_checkpoint, tmp_path):
        import json

        data = dict(np.load(saved_checkpoint, allow_pickle=False))
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        meta["format_version"] = 99
        data["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        target = tmp_path / "vers.npz"
        np.savez_compressed(str(target), **data)
        with pytest.raises(CheckpointError, match="version"):
            load_topology_state(target)

    def test_missing_model_array_raises(self, saved_checkpoint, tmp_path):
        data = dict(np.load(saved_checkpoint, allow_pickle=False))
        del data["model_0"]
        target = tmp_path / "missing.npz"
        np.savez_compressed(str(target), **data)
        with pytest.raises(
            CheckpointError, match="missing model for node 0"
        ):
            load_topology_state(target)

    def test_missing_meta_raises(self, saved_checkpoint, tmp_path):
        data = dict(np.load(saved_checkpoint, allow_pickle=False))
        del data["meta"]
        target = tmp_path / "nometa.npz"
        np.savez_compressed(str(target), **data)
        with pytest.raises(CheckpointError, match="metadata"):
            load_topology_state(target)
