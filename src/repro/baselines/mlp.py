"""Multi-layer perceptron implemented from scratch on numpy.

Stands in for the paper's TensorFlow DNN baseline (Fig. 7, Fig. 10).
A standard fully-connected network: ReLU hidden layers, softmax output,
cross-entropy loss, mini-batch Adam. The default architecture matches
what a small grid search selects for the paper's tabular datasets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_fitted, check_labels, check_matrix

__all__ = ["MLPClassifier"]


class MLPClassifier:
    """ReLU MLP with softmax head trained by mini-batch Adam."""

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        hidden_sizes: Sequence[int] = (128, 64),
        learning_rate: float = 1e-3,
        batch_size: int = 64,
        epochs: int = 30,
        l2: float = 1e-4,
        seed: SeedLike = None,
    ) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if any(h <= 0 for h in hidden_sizes):
            raise ValueError("hidden sizes must be positive")
        if learning_rate <= 0 or batch_size <= 0 or epochs < 0 or l2 < 0:
            raise ValueError("invalid optimizer hyper-parameters")
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.l2 = float(l2)
        self._rng = derive_rng(seed, "mlp")
        self.weights: Optional[List[np.ndarray]] = None
        self.biases: Optional[List[np.ndarray]] = None
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------
    def _init_params(self) -> None:
        sizes = [self.n_features, *self.hidden_sizes, self.n_classes]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # He initialization for ReLU layers.
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(self._rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return (logits, per-layer activations incl. input)."""
        activations = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if i < len(self.weights) - 1:
                h = np.maximum(z, 0.0)
                activations.append(h)
            else:
                return z, activations
        raise AssertionError("unreachable")

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "MLPClassifier":
        """Train with mini-batch Adam; stores per-epoch mean loss."""
        x = check_matrix("features", features, cols=self.n_features)
        y = check_labels("labels", labels, n_classes=self.n_classes)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} samples but {y.shape[0]} labels")
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        self._init_params()
        m = [np.zeros_like(w) for w in self.weights] + [
            np.zeros_like(b) for b in self.biases
        ]
        v = [np.zeros_like(g) for g in m]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.loss_history = []
        n = x.shape[0]
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, yb = x[idx], y[idx]
                logits, activations = self._forward(xb)
                probs = self._softmax(logits)
                batch = xb.shape[0]
                loss = -np.mean(
                    np.log(probs[np.arange(batch), yb] + 1e-12)
                )
                epoch_loss += loss * batch
                # Backward pass.
                grad_logits = probs
                grad_logits[np.arange(batch), yb] -= 1.0
                grad_logits /= batch
                grads_w: list[np.ndarray] = []
                grads_b: list[np.ndarray] = []
                delta = grad_logits
                for layer in range(len(self.weights) - 1, -1, -1):
                    a_prev = activations[layer]
                    grads_w.append(a_prev.T @ delta + self.l2 * self.weights[layer])
                    grads_b.append(delta.sum(axis=0))
                    if layer > 0:
                        delta = (delta @ self.weights[layer].T) * (
                            activations[layer] > 0
                        )
                grads_w.reverse()
                grads_b.reverse()
                # Adam update over [weights..., biases...].
                step += 1
                params = self.weights + self.biases
                grads = grads_w + grads_b
                lr_t = self.learning_rate * (
                    np.sqrt(1 - beta2**step) / (1 - beta1**step)
                )
                for i, (p, g) in enumerate(zip(params, grads)):
                    m[i] = beta1 * m[i] + (1 - beta1) * g
                    v[i] = beta2 * v[i] + (1 - beta2) * g * g
                    p -= lr_t * m[i] / (np.sqrt(v[i]) + eps)
            self.loss_history.append(epoch_loss / n)
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "weights")
        x = check_matrix("features", features, cols=self.n_features)
        logits, _ = self._forward(x)
        return self._softmax(logits)

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        y = check_labels("labels", labels, n_classes=self.n_classes)
        pred = self.predict_labels(features)
        if pred.shape[0] != y.shape[0]:
            raise ValueError("sample/label count mismatch")
        return float(np.mean(pred == y))
