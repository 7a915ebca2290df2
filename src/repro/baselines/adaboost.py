"""AdaBoost over decision stumps (SAMME), from scratch.

Stands in for the paper's scikit-learn AdaBoost baseline (Fig. 7).
The weak learner is a one-node decision tree (stump) chosen by
weighted-error minimization over a quantile grid of thresholds; the
ensemble is combined with the multi-class SAMME rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_fitted, check_labels, check_matrix

__all__ = ["DecisionStump", "AdaBoostClassifier"]


@dataclass
class DecisionStump:
    """feature <= threshold ? left_class : right_class"""

    feature: int
    threshold: float
    left_class: int
    right_class: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        col = features[:, self.feature]
        return np.where(col <= self.threshold, self.left_class, self.right_class)


def _fit_stump(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
    feature_subset: np.ndarray,
    n_thresholds: int = 16,
) -> tuple[DecisionStump, float]:
    """Best weighted stump over the candidate features/thresholds."""
    best: Optional[DecisionStump] = None
    best_err = np.inf
    for feature in feature_subset:
        col = features[:, feature]
        quantiles = np.quantile(col, np.linspace(0.05, 0.95, n_thresholds))
        for threshold in np.unique(quantiles):
            left = col <= threshold
            # Weighted majority class on each side.
            left_w = np.bincount(labels[left], weights=weights[left], minlength=n_classes)
            right_w = np.bincount(
                labels[~left], weights=weights[~left], minlength=n_classes
            )
            lc = int(np.argmax(left_w))
            rc = int(np.argmax(right_w))
            err = weights.sum() - left_w[lc] - right_w[rc]
            if err < best_err:
                best_err = err
                best = DecisionStump(int(feature), float(threshold), lc, rc)
    assert best is not None
    return best, float(best_err / weights.sum())


class AdaBoostClassifier:
    """SAMME AdaBoost with decision-stump weak learners."""

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        n_estimators: int = 50,
        max_features: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if n_estimators <= 0:
            raise ValueError("n_estimators must be positive")
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.n_estimators = int(n_estimators)
        # Random feature subsetting keeps stump search tractable on wide data.
        self.max_features = (
            min(n_features, max_features)
            if max_features is not None
            else min(n_features, 32)
        )
        self._rng = derive_rng(seed, "adaboost")
        self.stumps: Optional[List[DecisionStump]] = None
        self.alphas: List[float] = []

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "AdaBoostClassifier":
        x = check_matrix("features", features, cols=self.n_features)
        y = check_labels("labels", labels, n_classes=self.n_classes)
        if x.shape[0] != y.shape[0]:
            raise ValueError("sample/label count mismatch")
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        n = x.shape[0]
        weights = np.full(n, 1.0 / n)
        self.stumps = []
        self.alphas = []
        k = self.n_classes
        for _ in range(self.n_estimators):
            subset = self._rng.choice(
                self.n_features, size=self.max_features, replace=False
            )
            stump, err = _fit_stump(x, y, weights, k, subset)
            err = min(max(err, 1e-10), 1.0 - 1e-10)
            if err >= 1.0 - 1.0 / k:
                # Weak learner no better than chance; stop boosting.
                break
            alpha = np.log((1.0 - err) / err) + np.log(k - 1.0)
            pred = stump.predict(x)
            weights *= np.exp(alpha * (pred != y))
            weights /= weights.sum()
            self.stumps.append(stump)
            self.alphas.append(float(alpha))
            if err < 1e-8:
                break
        if not self.stumps:
            # Degenerate fallback: constant majority-class stump.
            majority = int(np.bincount(y, minlength=k).argmax())
            self.stumps.append(DecisionStump(0, np.inf, majority, majority))
            self.alphas.append(1.0)
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "stumps")
        x = check_matrix("features", features, cols=self.n_features)
        votes = np.zeros((x.shape[0], self.n_classes))
        for stump, alpha in zip(self.stumps, self.alphas):
            pred = stump.predict(x)
            votes[np.arange(x.shape[0]), pred] += alpha
        return votes

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(features), axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        y = check_labels("labels", labels, n_classes=self.n_classes)
        pred = self.predict_labels(features)
        if pred.shape[0] != y.shape[0]:
            raise ValueError("sample/label count mismatch")
        return float(np.mean(pred == y))
