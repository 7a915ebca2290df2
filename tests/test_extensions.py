"""Tests for the extension modules: model quantization and the scaling
study (which prices the vertical-federated DNN)."""

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.encoding import RBFEncoder
from repro.core.quantize import (
    dequantize_model,
    quantize_classifier,
    quantize_model,
)
from repro.experiments.scaling import SYSTEMS, format_scaling, run_scaling


class TestQuantization:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(7)
        centers = rng.standard_normal((3, 10)) * 3.0
        x = np.vstack([centers[c] + rng.standard_normal((60, 10)) for c in range(3)])
        y = np.repeat([0, 1, 2], 60)
        enc = RBFEncoder(10, 1024, gamma=0.3, seed=8).encode(x).astype(float)
        clf = HDClassifier(3, 1024).fit_initial(enc, y)
        clf.retrain(enc, y, epochs=5)
        return clf, enc, y

    def test_roundtrip_error_bounded(self, fitted):
        clf, enc, y = fitted
        quantized = quantize_model(clf.class_hypervectors, n_bits=8)
        restored = dequantize_model(quantized)
        scale = np.abs(clf.class_hypervectors).max()
        assert np.max(np.abs(restored - clf.class_hypervectors)) < scale / 100

    def test_8bit_preserves_accuracy(self, fitted):
        clf, enc, y = fitted
        q_clf, quantized = quantize_classifier(clf, n_bits=8)
        assert q_clf.accuracy(enc, y) >= clf.accuracy(enc, y) - 0.01
        assert quantized.n_bits == 8

    def test_2bit_degrades_gracefully(self, fitted):
        clf, enc, y = fitted
        q_clf, _ = quantize_classifier(clf, n_bits=2)
        assert q_clf.accuracy(enc, y) > 1.0 / 3.0

    def test_compression_ratio(self, fitted):
        clf, _, _ = fitted
        quantized = quantize_model(clf.class_hypervectors, n_bits=8)
        assert quantized.compression_ratio() == pytest.approx(4.0)

    def test_storage_bits(self):
        model = np.ones((2, 100))
        quantized = quantize_model(model, n_bits=4)
        assert quantized.storage_bits() == 2 * 100 * 4 + 2 * 32

    def test_zero_class_handled(self):
        model = np.vstack([np.zeros(16), np.ones(16)])
        quantized = quantize_model(model, n_bits=8)
        restored = dequantize_model(quantized)
        assert np.all(restored[0] == 0.0)

    def test_invalid_bits(self, fitted):
        clf, _, _ = fitted
        with pytest.raises(ValueError):
            quantize_model(clf.class_hypervectors, n_bits=1)
        with pytest.raises(ValueError):
            quantize_model(clf.class_hypervectors, n_bits=32)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            quantize_classifier(HDClassifier(2, 8))


class TestScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scaling(node_counts=(4, 16, 64), n_samples=10_000)

    def test_grid_complete(self, result):
        for system in SYSTEMS:
            for n in result.node_counts:
                assert (system, n) in result.time_s
                assert (system, n) in result.traffic_bytes

    def test_edgehd_scales_best(self, result):
        assert result.growth("edgehd") < result.growth("vertical-dnn")

    def test_edgehd_traffic_nearly_flat(self, result):
        lo = result.traffic_bytes[("edgehd", 4)]
        hi = result.traffic_bytes[("edgehd", 64)]
        assert hi < 3 * lo

    def test_vertical_dnn_traffic_linear(self, result):
        lo = result.traffic_bytes[("vertical-dnn", 4)]
        hi = result.traffic_bytes[("vertical-dnn", 64)]
        assert hi == pytest.approx(16 * lo, rel=0.1)

    def test_traffic_dwarfs_edgehd(self):
        """Challenge (iii): DNN federation is communication-heavy."""
        result = run_scaling(node_counts=(4,), n_samples=10_000, n_classes=3)
        dnn_bytes = result.traffic_bytes[("vertical-dnn", 4)]
        assert dnn_bytes > 50 * result.traffic_bytes[("edgehd", 4)]

    def test_edgehd_fastest_at_scale(self, result):
        n = max(result.node_counts)
        assert result.time_s[("edgehd", n)] < result.time_s[("centralized-hd", n)]
        assert result.time_s[("edgehd", n)] < result.time_s[("vertical-dnn", n)]

    def test_format(self, result):
        assert "Scaling" in format_scaling(result)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            run_scaling(node_counts=(1, 2))
