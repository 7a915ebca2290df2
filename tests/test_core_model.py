"""Unit tests for the EdgeHDModel container and wire-size helpers."""

import numpy as np
import pytest

from repro.core.encoding import RBFEncoder
from repro.core.model import (
    EdgeHDModel,
    class_model_bytes,
    hypervector_bytes,
    raw_data_bytes,
)


class TestWireSizes:
    def test_bipolar_bits(self):
        assert hypervector_bytes(4000, bipolar=True) == 500
        assert hypervector_bytes(7, bipolar=True) == 1

    def test_integer_elements(self):
        assert hypervector_bytes(4000, bipolar=False) == 16_000

    def test_class_model(self):
        assert class_model_bytes(3, 100) == 3 * 400

    def test_raw_data(self):
        assert raw_data_bytes(10, 5) == 200

    def test_invalid(self):
        with pytest.raises(ValueError):
            hypervector_bytes(0)
        with pytest.raises(ValueError):
            class_model_bytes(0, 10)
        with pytest.raises(ValueError):
            raw_data_bytes(-1, 5)

    def test_model_much_smaller_than_raw_data(self):
        """The paper's headline: models beat raw uploads at scale."""
        model = class_model_bytes(5, 4000)
        raw = raw_data_bytes(600_000, 75)  # PAMAP2 paper scale
        assert model < raw / 100


class TestEdgeHDModel:
    @pytest.fixture(scope="class")
    def fitted(self, small_split=None):
        rng = np.random.default_rng(1)
        centers = rng.standard_normal((2, 8)) * 3.0
        x = np.vstack(
            [centers[c] + rng.standard_normal((50, 8)) for c in range(2)]
        )
        y = np.repeat([0, 1], 50)
        model = EdgeHDModel(8, 2, dimension=400, seed=2)
        report = model.fit(x, y, retrain_epochs=5)
        return model, report, x, y

    def test_fit_report(self, fitted):
        model, report, x, y = fitted
        assert report.n_samples == 100
        assert 0.0 <= report.initial_accuracy <= 1.0
        assert report.final_accuracy >= report.initial_accuracy - 0.05

    def test_predict_from_raw_features(self, fitted):
        model, report, x, y = fitted
        assert model.accuracy(x, y) > 0.9
        labels = model.predict_labels(x[:5])
        assert labels.shape == (5,)

    def test_encode_shape(self, fitted):
        model, _, x, _ = fitted
        assert model.encode(x[:3]).shape == (3, 400)

    def test_class_hypervectors_unfitted_raises(self):
        model = EdgeHDModel(4, 2, dimension=64)
        with pytest.raises(RuntimeError):
            _ = model.class_hypervectors

    def test_model_wire_bytes(self, fitted):
        model, _, _, _ = fitted
        assert model.model_wire_bytes() == class_model_bytes(2, 400)

    def test_save_load_roundtrip(self, fitted, tmp_path):
        model, _, x, y = fitted
        path = str(tmp_path / "model.npz")
        model.save_model(path)
        fresh = EdgeHDModel(8, 2, dimension=400, seed=2)
        fresh.load_model(path)
        assert np.array_equal(
            fresh.class_hypervectors, model.class_hypervectors
        )
        assert fresh.accuracy(x, y) == model.accuracy(x, y)

    def test_save_lands_at_the_suffixless_path_given(self, fitted, tmp_path):
        model, _, _, _ = fitted
        path = tmp_path / "ckpt"
        model.save_model(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        fresh = EdgeHDModel(8, 2, dimension=400, seed=2).load_model(str(path))
        assert np.array_equal(
            fresh.class_hypervectors, model.class_hypervectors
        )

    def test_failed_save_keeps_the_previous_file(
        self, fitted, tmp_path, monkeypatch
    ):
        model, _, _, _ = fitted
        path = tmp_path / "model.npz"
        model.save_model(str(path))
        before = path.read_bytes()

        write = np.savez

        def torn_write(file, **arrays):
            write(file, class_hypervectors=arrays["class_hypervectors"])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(OSError, match="disk full"):
            model.save_model(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        EdgeHDModel(8, 2, dimension=400, seed=2).load_model(str(path))

    def test_load_shape_mismatch(self, fitted, tmp_path):
        model, _, _, _ = fitted
        path = str(tmp_path / "model.npz")
        model.save_model(path)
        other = EdgeHDModel(8, 2, dimension=512, seed=2)
        with pytest.raises(ValueError):
            other.load_model(path)

    def test_custom_encoder_instance(self):
        enc = RBFEncoder(6, 128, seed=3)
        model = EdgeHDModel(6, 2, dimension=128, encoder=enc)
        assert model.encoder is enc

    def test_custom_encoder_shape_mismatch(self):
        enc = RBFEncoder(6, 128, seed=3)
        with pytest.raises(ValueError):
            EdgeHDModel(7, 2, dimension=128, encoder=enc)

    def test_wrong_feature_width(self, fitted):
        model, _, _, _ = fitted
        with pytest.raises(ValueError):
            model.predict(np.ones((2, 9)))
