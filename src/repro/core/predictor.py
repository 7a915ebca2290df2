"""The unified prediction API shared by HD models and every baseline.

Historically the HD core returned a rich
:class:`~repro.core.classifier.PredictionResult` from ``predict`` while
the baselines returned bare label arrays, forcing experiment harness
code to special-case each model family. The :class:`Predictor`
protocol fixes the contract once:

* ``predict(features) -> PredictionResult`` — labels plus per-class
  scores and confidences;
* ``predict_labels(features) -> np.ndarray`` — just the argmax labels;
* ``predict_proba(features) -> np.ndarray`` — per-class probabilities
  (softmax confidences for margin-based models).

``HDClassifier``, ``EdgeHDModel`` and every class in
:mod:`repro.baselines` conform.

The helpers below build a ``PredictionResult`` from the two raw
quantities baselines naturally produce — decision scores (SVM margins,
boosting votes) or class probabilities (softmax heads).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.classifier import PredictionResult, softmax_confidence
from repro.utils.validation import check_matrix

__all__ = [
    "Predictor",
    "result_from_scores",
    "result_from_proba",
]


@runtime_checkable
class Predictor(Protocol):
    """Anything that classifies feature rows into ``n_classes`` labels."""

    def predict(self, features: np.ndarray) -> PredictionResult:
        """Full inference output for a batch of feature rows."""
        ...

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        """Predicted class index per row, shape ``(n_samples,)``."""
        ...

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-class probabilities, shape ``(n_samples, n_classes)``."""
        ...


def result_from_scores(
    scores: np.ndarray, temperature: float = 1.0
) -> PredictionResult:
    """Build a result from raw decision scores (margins, votes).

    Confidences are the mean-centered softmax of the scores — the same
    construction :func:`~repro.core.classifier.softmax_confidence`
    applies to HD similarities, so confidence thresholds carry a
    comparable meaning across model families.
    """
    sims = check_matrix("scores", scores)
    labels = np.argmax(sims, axis=1)
    conf = softmax_confidence(sims, temperature=temperature)
    return PredictionResult(labels=labels, similarities=sims, confidences=conf)


def result_from_proba(probabilities: np.ndarray) -> PredictionResult:
    """Build a result from an already-normalized probability matrix.

    The probabilities serve as both the per-class score and the
    confidence (they already sum to one per row).
    """
    probs = check_matrix("probabilities", probabilities)
    labels = np.argmax(probs, axis=1)
    return PredictionResult(labels=labels, similarities=probs, confidences=probs)
