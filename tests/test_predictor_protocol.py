"""The HD models' predict surface: ``predict`` returns a
:class:`PredictionResult` (labels, similarities, confidences), and
``predict_labels`` -- what every model's ``accuracy()`` scores through --
agrees with it."""

import numpy as np
import pytest

from repro.baselines import LinearHDClassifier
from repro.core.classifier import HDClassifier, PredictionResult
from repro.core.model import EdgeHDModel
from repro.data import make_classification


@pytest.fixture(scope="module")
def data():
    x, y = make_classification(
        n_samples=240, n_features=10, n_classes=3, seed=41, name="proto"
    )
    return x[:200], y[:200], x[200:], y[200:]


def _fitted_models(data):
    """One fitted instance of every HD model type."""
    train_x, train_y, _, _ = data
    hd = EdgeHDModel(10, 3, dimension=256, seed=1)
    hd.fit(train_x, train_y, retrain_epochs=2)
    linear = LinearHDClassifier(10, 3, dimension=256, seed=2)
    linear.fit(train_x, train_y, retrain_epochs=2)
    clf = HDClassifier(3, 256)
    clf.fit_initial(hd.encoder.encode(train_x), train_y)
    return {
        "EdgeHDModel": (hd, train_x),
        "LinearHDClassifier": (linear, train_x),
        "HDClassifier": (clf, hd.encoder.encode(train_x)),
    }


@pytest.fixture(scope="module")
def models(data):
    return _fitted_models(data)


class TestProtocolConformance:
    def test_predict_returns_prediction_result(self, models):
        for name, (model, x) in models.items():
            result = model.predict(x[:16])
            assert isinstance(result, PredictionResult), name
            assert result.labels.shape == (16,), name
            assert result.similarities.shape == (16, 3), name
            assert result.confidences.shape == (16, 3), name

    def test_predict_labels_matches_predict(self, models):
        for name, (model, x) in models.items():
            clf = model if isinstance(model, HDClassifier) else model.classifier
            encoded = x if model is clf else model.encode(x)
            assert np.array_equal(
                clf.predict_labels(encoded[:16]), model.predict(x[:16]).labels
            ), name

    def test_predict_proba_rows_sum_to_one(self, models):
        for name, (model, x) in models.items():
            proba = model.predict(x[:16]).confidences
            assert proba.shape == (16, 3), name
            assert np.allclose(proba.sum(axis=1), 1.0), name
            assert (proba >= 0).all(), name

    def test_labels_are_argmax_of_confidences(self, models):
        for name, (model, x) in models.items():
            result = model.predict(x[:16])
            assert np.array_equal(
                result.labels, np.argmax(result.confidences, axis=1)
            ), name


class TestResultHelpers:
    def test_top_confidence(self):
        proba = np.array([[0.2, 0.8], [0.7, 0.3]])
        result = PredictionResult(
            labels=np.array([1, 0]), similarities=proba, confidences=proba
        )
        assert np.allclose(result.top_confidence, [0.8, 0.7])
