"""Unit tests for federation checkpointing."""

import numpy as np
import pytest

from repro.config import EdgeHDConfig
from repro.data import load_dataset, partition_features
from repro.hierarchy.checkpoint import (
    CheckpointError,
    load_topology_state,
    save_topology_state,
    validate_topology_meta,
)
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.topology import build_star, build_tree


@pytest.fixture(scope="module")
def trained():
    data = load_dataset("PDP", scale=0.04, max_train=500, max_test=200, seed=19)
    partition = partition_features(data.n_features, 5)
    config = EdgeHDConfig(dimension=768, batch_size=10, retrain_epochs=4, seed=37)
    federation = EdgeHDFederation(build_tree(5), partition, data.n_classes, config)
    federation.fit_offline(data.train_x, data.train_y)
    return data, partition, config, federation


def fresh(data, partition, config, topology=None):
    return EdgeHDFederation(
        topology or build_tree(5), partition, data.n_classes, config
    )


def load_checked(federation, path):
    """Load-and-check: decode ``path`` and verify it describes the
    deployment ``federation`` belongs to; returns the restored one."""
    checkpoint = load_topology_state(path)
    validate_topology_meta(checkpoint.meta, federation, path)
    return checkpoint.federation


def assert_same_models(restored, federation):
    for nid in federation.hierarchy.nodes:
        assert np.array_equal(
            restored.classifiers[nid].class_hypervectors,
            federation.classifiers[nid].class_hypervectors,
        )


class TestRoundtrip:
    def test_restores_exact_models(self, trained, tmp_path):
        data, partition, config, federation = trained
        path = tmp_path / "fed.npz"
        save_topology_state(federation, path)
        restored = load_checked(fresh(data, partition, config), path)
        assert_same_models(restored, federation)

    def test_restored_accuracy_identical(self, trained, tmp_path):
        data, partition, config, federation = trained
        path = tmp_path / "fed.npz"
        save_topology_state(federation, path)
        restored = load_checked(fresh(data, partition, config), path)
        original = federation.accuracy_by_level(data.test_x, data.test_y)
        reloaded = restored.accuracy_by_level(data.test_x, data.test_y)
        assert original == reloaded

    def test_untrained_save_rejected(self, trained, tmp_path):
        data, partition, config, _ = trained
        with pytest.raises(RuntimeError):
            save_topology_state(fresh(data, partition, config), tmp_path / "x.npz")

    def test_suffixless_path_round_trips(self, trained, tmp_path):
        """The file lands at the path given, not at ``path + ".npz"``."""
        data, partition, config, federation = trained
        path = tmp_path / "ckpt"
        save_topology_state(federation, path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        restored = load_checked(fresh(data, partition, config), path)
        assert_same_models(restored, federation)

    def test_interrupted_save_keeps_previous_checkpoint(
        self, trained, tmp_path, monkeypatch
    ):
        data, partition, config, federation = trained
        path = tmp_path / "fed.npz"
        save_topology_state(federation, path)
        before = path.read_bytes()

        write = np.savez

        def torn_write(file, **arrays):
            first = next(iter(arrays))
            write(file, **{first: arrays[first]})
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(OSError, match="disk full"):
            save_topology_state(federation, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["fed.npz"]
        load_checked(fresh(data, partition, config), path)


class TestValidation:
    def test_missing_file(self, trained, tmp_path):
        data, partition, config, _ = trained
        with pytest.raises(FileNotFoundError):
            load_checked(fresh(data, partition, config), tmp_path / "nope.npz")

    def test_topology_mismatch_rejected(self, trained, tmp_path):
        data, partition, config, federation = trained
        path = tmp_path / "fed.npz"
        save_topology_state(federation, path)
        other = fresh(data, partition, config, topology=build_star(5))
        with pytest.raises(CheckpointError, match="'hierarchy'"):
            load_checked(other, path)

    def test_config_mismatch_rejected(self, trained, tmp_path):
        data, partition, config, federation = trained
        path = tmp_path / "fed.npz"
        save_topology_state(federation, path)
        other_config = config.with_overrides(seed=99)
        with pytest.raises(CheckpointError, match="'config'.*'seed': 99"):
            load_checked(fresh(data, partition, other_config), path)

    def test_dimension_mismatch_rejected(self, trained, tmp_path):
        data, partition, config, federation = trained
        path = tmp_path / "fed.npz"
        save_topology_state(federation, path)
        small = config.with_overrides(dimension=512)
        with pytest.raises(CheckpointError):
            load_checked(fresh(data, partition, small), path)

    def test_corrupt_metadata_rejected(self, trained, tmp_path):
        data, partition, config, federation = trained
        path = tmp_path / "fed.npz"
        # Write an npz without the meta block.
        np.savez_compressed(str(path), model_0=np.ones((2, 4)))
        with pytest.raises(CheckpointError, match="metadata"):
            load_checked(fresh(data, partition, config), path)


class TestPackedRoundtrip:
    """Binarized / packed models survive save -> load bit-exactly.

    The serving cluster publishes the packed sign model into shared
    memory straight from the checkpointed class hypervectors, so a
    single flipped bit here would silently change every worker's
    associative search.
    """

    def _binarized(self, trained, tmp_path, tag):
        data, partition, config, federation = trained
        path = tmp_path / f"{tag}.npz"
        save_topology_state(federation, path)
        restored = load_checked(fresh(data, partition, config), path)
        for clf in restored.classifiers.values():
            clf.binarize_model()
        return data, partition, config, restored

    def test_binarized_round_trip_bit_exact(self, trained, tmp_path):
        data, partition, config, binarized = self._binarized(
            trained, tmp_path, "base"
        )
        path = tmp_path / "binarized.npz"
        save_topology_state(binarized, path)
        reloaded = load_checked(fresh(data, partition, config), path)
        for nid in binarized.hierarchy.nodes:
            original = binarized.classifiers[nid].class_hypervectors
            loaded = reloaded.classifiers[nid].class_hypervectors
            assert loaded.dtype == original.dtype
            assert np.array_equal(loaded, original)
            assert set(np.unique(loaded)) <= {-1.0, 1.0}

    def test_packed_words_round_trip_bit_exact(self, trained, tmp_path):
        from repro.core.kernels import pack_bits

        data, partition, config, binarized = self._binarized(
            trained, tmp_path, "base"
        )
        path = tmp_path / "binarized.npz"
        save_topology_state(binarized, path)
        reloaded = load_checked(fresh(data, partition, config), path)
        for nid in binarized.hierarchy.nodes:
            before = pack_bits(binarized.classifiers[nid].class_hypervectors)
            after = pack_bits(reloaded.classifiers[nid].class_hypervectors)
            assert np.array_equal(before.words, after.words)
            assert before.dimension == after.dimension

    def test_packed_predictions_identical_after_reload(self, trained, tmp_path):
        from repro.core.search import SearchSpec

        data, partition, config, binarized = self._binarized(
            trained, tmp_path, "base"
        )
        path = tmp_path / "binarized.npz"
        save_topology_state(binarized, path)
        reloaded = load_checked(fresh(data, partition, config), path)
        spec = SearchSpec(backend="packed")
        encodings = binarized.encode_all(data.test_x[:64])
        for nid, enc in encodings.items():
            before = binarized.classifiers[nid].predict(enc, search=spec)
            after = reloaded.classifiers[nid].predict(enc, search=spec)
            assert np.array_equal(before.labels, after.labels)
            # packed similarities are integer Hamming scores: bit-equal
            assert np.array_equal(before.top_confidence, after.top_confidence)


class TestErrorContext:
    """Every ``CheckpointError`` names the file and what diverged.

    Operators diagnose restore failures from the message alone (the
    CLI prints it and exits), so each error must carry the checkpoint
    path plus the expected-vs-found detail — regression tests for the
    error-context contract of ``load_topology_state`` and
    ``validate_topology_meta``.
    """

    def _saved(self, trained, tmp_path):
        data, partition, config, federation = trained
        path = tmp_path / "ctx.npz"
        save_topology_state(federation, path)
        return data, partition, config, path

    def test_mismatch_names_path_and_both_values(self, trained, tmp_path):
        data, partition, config, path = self._saved(trained, tmp_path)
        other = config.with_overrides(seed=99)
        with pytest.raises(CheckpointError) as err:
            load_checked(fresh(data, partition, other), path)
        msg = str(err.value)
        assert str(path) in msg
        assert "'config'" in msg
        saved, _, found = msg.partition(" vs federation ")
        assert f"'seed': {config.seed!r}" in saved
        assert "'seed': 99" in found

    def test_garbage_file_names_path(self, trained, tmp_path):
        data, partition, config, _ = trained
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(CheckpointError) as err:
            load_checked(fresh(data, partition, config), path)
        msg = str(err.value)
        assert str(path) in msg
        assert "not a readable checkpoint archive" in msg

    def test_truncated_archive_names_path(self, trained, tmp_path):
        data, partition, config, path = self._saved(trained, tmp_path)
        raw = path.read_bytes()
        target = tmp_path / "trunc.npz"
        target.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError) as err:
            load_checked(fresh(data, partition, config), target)
        assert str(target) in str(err.value)

    def test_version_mismatch_names_expected_and_found(
        self, trained, tmp_path
    ):
        import json

        data, partition, config, path = self._saved(trained, tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format_version"] = 99
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        target = tmp_path / "vers.npz"
        np.savez_compressed(str(target), **arrays)
        with pytest.raises(CheckpointError) as err:
            load_checked(fresh(data, partition, config), target)
        msg = str(err.value)
        assert str(target) in msg
        assert "expected 4" in msg
        assert "found 99" in msg

    def test_version_2_with_binarize_is_refused(self, trained, tmp_path):
        """A checkpoint from before ``binarize`` left the config names
        its version in the error instead of failing to rebuild."""
        import json

        from repro.hierarchy.checkpoint import TOPOLOGY_FORMAT_VERSION

        assert TOPOLOGY_FORMAT_VERSION == 4
        data, partition, config, path = self._saved(trained, tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        assert "binarize" not in meta["config"]
        meta["format_version"] = 2
        meta["config"]["binarize"] = True
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        target = tmp_path / "v2.npz"
        np.savez_compressed(str(target), **arrays)
        for load in (
            lambda: load_topology_state(target),
            lambda: load_topology_state(target, reconstruct=False),
            lambda: load_checked(fresh(data, partition, config), target),
        ):
            with pytest.raises(CheckpointError) as err:
                load()
            msg = str(err.value)
            assert str(target) in msg
            assert "version" in msg
            assert "expected 4" in msg and "found 2" in msg

    def test_version_3_without_forwards_is_refused(self, trained, tmp_path):
        """A file from before the forwards rode along names its version
        instead of loading as a checkpoint restore cannot use."""
        import json

        data, partition, config, path = self._saved(trained, tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format_version"] = 3
        del meta["training_digest"]
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        target = tmp_path / "v3.npz"
        np.savez_compressed(str(target), **arrays)
        for reconstruct in (True, False):
            with pytest.raises(CheckpointError) as err:
                load_topology_state(target, reconstruct=reconstruct)
            msg = str(err.value)
            assert str(target) in msg
            assert "expected 4" in msg and "found 3" in msg

    def test_missing_model_lists_expected_and_found(self, trained, tmp_path):
        data, partition, config, path = self._saved(trained, tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        del arrays["model_0"]
        target = tmp_path / "missing.npz"
        np.savez_compressed(str(target), **arrays)
        with pytest.raises(CheckpointError) as err:
            load_checked(fresh(data, partition, config), target)
        msg = str(err.value)
        assert str(target) in msg
        assert "missing model for node 0" in msg
        # both sides of the diff: what was wanted, what the file holds
        assert "expected arrays for nodes" in msg
        assert "found entries" in msg
        assert "model_1" in msg

    def test_wrong_shape_names_both_shapes(self, trained, tmp_path):
        data, partition, config, path = self._saved(trained, tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        arrays["model_0"] = np.ones((2, 3))
        target = tmp_path / "shape.npz"
        np.savez_compressed(str(target), **arrays)
        with pytest.raises(CheckpointError) as err:
            load_checked(fresh(data, partition, config), target)
        msg = str(err.value)
        assert str(target) in msg
        assert "(2, 3)" in msg
        assert "expected" in msg

    def test_residual_shape_mismatch_names_node_and_shapes(
        self, trained, tmp_path
    ):
        from repro.hierarchy.online import OnlineLearner

        data, partition, config, federation = trained
        path = tmp_path / "ctx.npz"
        save_topology_state(
            federation, path, learner=OnlineLearner(federation)
        )
        arrays = dict(np.load(path, allow_pickle=False))
        arrays["resposc_0"] = np.zeros(7, dtype=np.int64)
        target = tmp_path / "resshape.npz"
        np.savez_compressed(str(target), **arrays)
        with pytest.raises(CheckpointError) as err:
            load_topology_state(target, reconstruct=False)
        msg = str(err.value)
        assert str(target) in msg
        assert "residual arrays for node 0" in msg
        assert "(7,)" in msg

    def test_missing_meta_lists_found_entries(self, trained, tmp_path):
        data, partition, config, path = self._saved(trained, tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        del arrays["meta"]
        target = tmp_path / "nometa.npz"
        np.savez_compressed(str(target), **arrays)
        with pytest.raises(CheckpointError) as err:
            load_checked(fresh(data, partition, config), target)
        msg = str(err.value)
        assert str(target) in msg
        assert "missing metadata block" in msg
        assert "model_0" in msg
