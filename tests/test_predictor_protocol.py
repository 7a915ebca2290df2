"""One unified predict API: every model satisfies the Predictor protocol."""

import numpy as np
import pytest

from repro.baselines import (
    AdaBoostClassifier,
    KernelSVM,
    LinearHDClassifier,
    MLPClassifier,
)
from repro.core.classifier import HDClassifier, PredictionResult
from repro.core.model import EdgeHDModel
from repro.core.predictor import (
    Predictor,
    result_from_proba,
    result_from_scores,
)
from repro.data import make_classification


@pytest.fixture(scope="module")
def data():
    x, y = make_classification(
        n_samples=240, n_features=10, n_classes=3, seed=41, name="proto"
    )
    return x[:200], y[:200], x[200:], y[200:]


def _fitted_models(data):
    """One fitted instance of every user-facing model type."""
    train_x, train_y, _, _ = data
    hd = EdgeHDModel(10, 3, dimension=256, seed=1)
    hd.fit(train_x, train_y, retrain_epochs=2)
    linear = LinearHDClassifier(10, 3, dimension=256, seed=2)
    linear.fit(train_x, train_y, retrain_epochs=2)
    svm = KernelSVM(10, 3, n_components=64, epochs=2, seed=3)
    svm.fit(train_x, train_y)
    ada = AdaBoostClassifier(10, 3, n_estimators=5, seed=4)
    ada.fit(train_x, train_y)
    mlp = MLPClassifier(10, 3, hidden_sizes=(16,), epochs=2, seed=5)
    mlp.fit(train_x, train_y)
    clf = HDClassifier(3, 256)
    clf.fit_initial(hd.encoder.encode(train_x), train_y)
    return {
        "EdgeHDModel": (hd, train_x),
        "LinearHDClassifier": (linear, train_x),
        "KernelSVM": (svm, train_x),
        "AdaBoostClassifier": (ada, train_x),
        "MLPClassifier": (mlp, train_x),
        "HDClassifier": (clf, hd.encoder.encode(train_x)),
    }


@pytest.fixture(scope="module")
def models(data):
    return _fitted_models(data)


class TestProtocolConformance:
    def test_every_model_is_a_predictor(self, models):
        for name, (model, _) in models.items():
            assert isinstance(model, Predictor), name

    def test_predict_returns_prediction_result(self, models):
        for name, (model, x) in models.items():
            result = model.predict(x[:16])
            assert isinstance(result, PredictionResult), name
            assert result.labels.shape == (16,), name
            assert result.similarities.shape == (16, 3), name
            assert result.confidences.shape == (16, 3), name

    def test_predict_labels_matches_predict(self, models):
        for name, (model, x) in models.items():
            assert np.array_equal(
                model.predict_labels(x[:16]), model.predict(x[:16]).labels
            ), name

    def test_predict_proba_rows_sum_to_one(self, models):
        for name, (model, x) in models.items():
            proba = model.predict_proba(x[:16])
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
    def test_result_from_scores(self):
        scores = np.array([[0.1, 0.9, 0.0], [2.0, -1.0, 0.5]])
        result = result_from_scores(scores)
        assert np.array_equal(result.labels, [1, 0])
        assert result.similarities is scores or np.array_equal(
            result.similarities, scores
        )
        assert np.allclose(result.confidences.sum(axis=1), 1.0)

    def test_result_from_proba(self):
        proba = np.array([[0.2, 0.8], [0.7, 0.3]])
        result = result_from_proba(proba)
        assert np.array_equal(result.labels, [1, 0])
        assert np.array_equal(result.confidences, proba)

    def test_top_confidence(self):
        result = result_from_proba(np.array([[0.2, 0.8], [0.7, 0.3]]))
        assert np.allclose(result.top_confidence, [0.8, 0.7])

    def test_eq_between_results_is_exact(self):
        probs = np.array([[0.2, 0.8], [0.7, 0.3]])
        result = result_from_proba(probs)
        assert result == result_from_proba(probs)
        assert result != result_from_proba(probs[::-1])
        assert len(result) == 2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(result_from_proba(np.array([[0.2, 0.8], [0.7, 0.3]])))
