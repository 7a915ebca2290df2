"""RBF-kernel SVM via random Fourier features + Pegasos.

Stands in for the paper's scikit-learn SVM baseline. Training an exact
kernel SVM is quadratic in the sample count; the standard large-scale
approach — and the one most closely related to EdgeHD's own encoder —
is to lift the data with random Fourier features (Rahimi & Recht) and
train a linear max-margin classifier in the lifted space with the
Pegasos stochastic sub-gradient solver (hinge loss, one-vs-rest).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.classifier import PredictionResult
from repro.core.predictor import result_from_scores
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_fitted, check_labels, check_matrix

__all__ = ["KernelSVM"]


class KernelSVM:
    """One-vs-rest hinge-loss classifier over an RFF lift."""

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        n_components: int = 1024,
        gamma: Optional[float] = None,
        reg_lambda: float = 1e-4,
        epochs: int = 10,
        batch_size: int = 32,
        seed: SeedLike = None,
    ) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if n_components <= 0 or reg_lambda <= 0 or epochs < 0 or batch_size <= 0:
            raise ValueError("invalid hyper-parameters")
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.n_components = int(n_components)
        self.gamma = float(gamma) if gamma is not None else 1.0 / np.sqrt(n_features)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        self.reg_lambda = float(reg_lambda)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        rng = derive_rng(seed, "svm-rff")
        self._omega = rng.standard_normal((n_features, self.n_components)) * self.gamma
        self._phase = rng.uniform(0, 2 * np.pi, size=self.n_components)
        self._rng = rng
        self.weights: Optional[np.ndarray] = None  # (n_classes, n_components)

    # ------------------------------------------------------------------
    def _lift(self, features: np.ndarray) -> np.ndarray:
        """Random Fourier feature map (same family as Eq. 2)."""
        x = check_matrix("features", features, cols=self.n_features)
        return np.sqrt(2.0 / self.n_components) * np.cos(x @ self._omega + self._phase)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "KernelSVM":
        """Pegasos: eta_t = 1/(lambda*t), hinge sub-gradient steps."""
        y = check_labels("labels", labels, n_classes=self.n_classes)
        lifted = self._lift(features)
        if lifted.shape[0] != y.shape[0]:
            raise ValueError("sample/label count mismatch")
        if lifted.shape[0] == 0:
            raise ValueError("empty training set")
        # One-vs-rest targets in {-1, +1}.
        targets = -np.ones((lifted.shape[0], self.n_classes))
        targets[np.arange(y.shape[0]), y] = 1.0
        w = np.zeros((self.n_classes, self.n_components))
        t = 0
        n = lifted.shape[0]
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                t += 1
                eta = 1.0 / (self.reg_lambda * t)
                xb = lifted[idx]  # (b, d)
                yb = targets[idx]  # (b, k)
                margins = yb * (xb @ w.T)  # (b, k)
                active = margins < 1.0
                w *= 1.0 - eta * self.reg_lambda
                if np.any(active):
                    # Sub-gradient: average over violating samples.
                    contrib = (yb * active).T @ xb / xb.shape[0]
                    w += eta * contrib
                # Pegasos projection onto the 1/sqrt(lambda) ball.
                norms = np.linalg.norm(w, axis=1, keepdims=True)
                cap = 1.0 / np.sqrt(self.reg_lambda)
                scale = np.minimum(1.0, cap / np.maximum(norms, 1e-12))
                w *= scale
        self.weights = w
        return self

    # ------------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "weights")
        return self._lift(features) @ self.weights.T

    def predict(self, features: np.ndarray) -> PredictionResult:
        """Full inference output (:class:`~repro.core.predictor.Predictor`)."""
        return result_from_scores(self.decision_function(features))

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(features), axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self.predict(features).confidences

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        y = check_labels("labels", labels, n_classes=self.n_classes)
        pred = self.predict_labels(features)
        if pred.shape[0] != y.shape[0]:
            raise ValueError("sample/label count mismatch")
        return float(np.mean(pred == y))
