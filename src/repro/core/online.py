"""Residual hypervectors for online (feedback-driven) learning.

Section IV-D: during runtime, users give *negative feedback* when a
prediction is wrong. Instead of touching the model on every feedback,
each node keeps ``K`` zero-initialized *residual hypervectors* — one
per class — and accumulates the offending query hypervector into the
residual of the wrongly-predicted class (and, when the true label is
known, into the correct class with positive sign). At a propagation
point the node:

1. applies the residuals to its own model (subtract wrong-class
   residuals, add correct-class residuals), then
2. ships the residuals — not the raw queries — to its parent, and
3. clears them.

This both amortizes the update cost and bounds communication to
``K`` hypervectors per propagation.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Optional

import numpy as np

from repro.core.classifier import HDClassifier
from repro.utils.validation import check_vector

__all__ = ["ResidualAccumulator"]


class ResidualAccumulator:
    """Per-class residual hypervectors with record/apply/clear lifecycle."""

    def __init__(self, n_classes: int, dimension: int) -> None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.n_classes = int(n_classes)
        self.dimension = int(dimension)
        # negative[c]: queries mispredicted AS class c (to subtract).
        # positive[c]: queries whose TRUE class c was revealed (to add).
        self.negative = np.zeros((n_classes, dimension), dtype=np.float64)
        self.positive = np.zeros((n_classes, dimension), dtype=np.float64)
        self.negative_counts = np.zeros(n_classes, dtype=np.int64)
        self.positive_counts = np.zeros(n_classes, dtype=np.int64)
        self.feedback_count = 0

    # ------------------------------------------------------------------
    def record_negative(
        self,
        query: np.ndarray,
        predicted_class: int,
        true_class: Optional[int] = None,
    ) -> None:
        """Record user dissatisfaction with ``predicted_class``.

        ``true_class`` is optional — the paper assumes users typically
        provide only negative feedback; when the correct label is also
        available the update matches the retraining rule.
        """
        q = self.check(query, predicted_class, true_class)
        self.negative[predicted_class] += q
        self.negative_counts[predicted_class] += 1
        if true_class is not None:
            self.positive[true_class] += q
            self.positive_counts[true_class] += 1
        self.feedback_count += 1

    def check(
        self, query: np.ndarray, predicted_class: int,
        true_class: Optional[int] = None,
    ) -> np.ndarray:
        """Validate a :meth:`record_negative` event, recording nothing."""
        q = check_vector("query", query, length=self.dimension)
        if not 0 <= predicted_class < self.n_classes:
            raise IndexError(f"predicted_class {predicted_class} out of range")
        if true_class is not None:
            if not 0 <= true_class < self.n_classes:
                raise IndexError(f"true_class {true_class} out of range")
            if true_class == predicted_class:
                raise ValueError(
                    "negative feedback with true_class == predicted_class"
                )
        return q

    @property
    def is_empty(self) -> bool:
        return self.feedback_count == 0

    # ------------------------------------------------------------------
    def apply_to(
        self,
        classifier: HDClassifier,
        learning_rate: float = 1.0,
        normalized: bool = False,
    ) -> None:
        """Fold the residuals into ``classifier`` (step 2 of Fig. 5b).

        ``normalized=True`` is the normalized online-learning mode: it
        divides each class's residual by its feedback count, so every
        propagation moves each class hypervector by at most
        ``learning_rate`` in the *mean correction direction* — stable
        regardless of feedback volume — and then rescales class rows
        back to unit norm (pure rotation; requires a normalized model).

        Does not clear the residuals — callers propagate them upward
        first and then call :meth:`clear`.
        """
        if classifier.n_classes != self.n_classes or classifier.dimension != self.dimension:
            raise ValueError("classifier shape does not match residuals")
        if classifier.class_hypervectors is None:
            raise RuntimeError("classifier is not fitted")
        if not (np.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        negative, positive = self.negative, self.positive
        if normalized:
            neg_div = np.maximum(self.negative_counts, 1).astype(np.float64)
            pos_div = np.maximum(self.positive_counts, 1).astype(np.float64)
            negative = negative / neg_div[:, None]
            positive = positive / pos_div[:, None]
        classifier.class_hypervectors -= learning_rate * negative
        classifier.class_hypervectors += learning_rate * positive
        if normalized:
            from repro.core.hypervector import normalize_rows

            classifier.class_hypervectors = normalize_rows(
                classifier.class_hypervectors
            )
        classifier._refresh_normalized()

    def copy(self) -> "ResidualAccumulator":
        """Exact duplicate, per-class counts included.

        What a checkpoint restores from — :meth:`load` spreads a total
        count evenly over the classes (fine for stacks received from
        the network, wrong here): the averaged online mode divides by
        the true per-class counts, so only an exact copy replays
        bit-exactly.
        """
        return deepcopy(self)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (negative, positive) residual stacks for transfer."""
        return self.negative.copy(), self.positive.copy()

    def load(self, negative: np.ndarray, positive: np.ndarray, count: int) -> None:
        """Install residual stacks received from the network."""
        neg = np.asarray(negative, dtype=np.float64)
        pos = np.asarray(positive, dtype=np.float64)
        expected = (self.n_classes, self.dimension)
        if neg.shape != expected or pos.shape != expected:
            raise ValueError(
                f"residual stacks must have shape {expected}, "
                f"got {neg.shape} and {pos.shape}"
            )
        if count < 0:
            raise ValueError("count must be non-negative")
        self.negative = neg.copy()
        self.positive = pos.copy()
        # Per-class counts are unknown for transferred stacks; spread
        # the total evenly as a conservative estimate.
        per_class = max(1, int(count)) // self.n_classes
        self.negative_counts = np.full(self.n_classes, max(per_class, 1), dtype=np.int64)
        self.positive_counts = np.full(self.n_classes, max(per_class, 1), dtype=np.int64)
        self.feedback_count = int(count)

    def clear(self) -> None:
        """Reset residuals after propagation (step 3 of Fig. 5b)."""
        self.negative.fill(0.0)
        self.positive.fill(0.0)
        self.negative_counts.fill(0)
        self.positive_counts.fill(0)
        self.feedback_count = 0
