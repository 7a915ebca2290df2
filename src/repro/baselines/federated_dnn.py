"""Vertical-federated DNN: the non-trivial way to federate a neural net.

The paper argues (challenge iii / Sec. VI-D) that DNNs have "no trivial
efficient way" to run in the hierarchy because neurons communicate
across devices during both backpropagation and feed-forward. This
module implements that non-trivial way — split (vertical federated)
learning over heterogeneous features — so the claim can be *measured*
instead of asserted:

* each end node owns a local encoder MLP over its feature slice;
* the aggregator concatenates the devices' embeddings and runs the
  classifier head;
* every training step ships all devices' embeddings up and embedding
  gradients back down; every inference ships embeddings up.

The learning quality is comparable to a centralized MLP; the traffic is
the point: per *epoch* it moves ``2 * samples * embedding_dim`` floats
per device, while EdgeHD moves a handful of class/batch hypervectors
*once*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.classifier import PredictionResult
from repro.core.predictor import result_from_proba
from repro.data.partition import FeaturePartition
from repro.hierarchy.topology import Hierarchy
from repro.network.message import Message, MessageKind
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_fitted, check_labels, check_matrix

__all__ = ["VerticalFedMLP", "VerticalFedTrainingReport"]


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


@dataclass
class VerticalFedTrainingReport:
    """Accuracy trajectory plus the transfer list training generated."""

    loss_history: List[float] = field(default_factory=list)
    messages: List[Message] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(m.payload_bytes for m in self.messages)


class VerticalFedMLP:
    """Split learning across end nodes with heterogeneous features.

    Parameters
    ----------
    partition:
        Feature ownership per end node.
    n_classes:
        Output classes.
    embedding_dim:
        Width of each device's embedding (what crosses the network).
    hidden_dim:
        Width of the aggregator's hidden layer.
    """

    def __init__(
        self,
        partition: FeaturePartition,
        n_classes: int,
        embedding_dim: int = 32,
        hidden_dim: int = 64,
        learning_rate: float = 1e-3,
        batch_size: int = 64,
        epochs: int = 20,
        seed: SeedLike = None,
    ) -> None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if embedding_dim <= 0 or hidden_dim <= 0:
            raise ValueError("layer widths must be positive")
        if learning_rate <= 0 or batch_size <= 0 or epochs < 0:
            raise ValueError("invalid optimizer hyper-parameters")
        self.partition = partition
        self.n_classes = int(n_classes)
        self.embedding_dim = int(embedding_dim)
        self.hidden_dim = int(hidden_dim)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        rng = derive_rng(seed, "vertical-fed")
        self._rng = rng
        # Per-device encoders: one hidden layer each.
        self.encoders: List[dict] = []
        for counts in partition.feature_counts():
            scale = np.sqrt(2.0 / counts)
            self.encoders.append(
                {
                    "w": rng.standard_normal((counts, embedding_dim)) * scale,
                    "b": np.zeros(embedding_dim),
                }
            )
        concat = embedding_dim * partition.n_nodes
        self.head = {
            "w1": rng.standard_normal((concat, hidden_dim)) * np.sqrt(2.0 / concat),
            "b1": np.zeros(hidden_dim),
            "w2": rng.standard_normal((hidden_dim, n_classes)) * np.sqrt(2.0 / hidden_dim),
            "b2": np.zeros(n_classes),
        }
        self._fitted = False

    # ------------------------------------------------------------------
    def _device_embeddings(self, features: np.ndarray) -> List[np.ndarray]:
        out = []
        for i, enc in enumerate(self.encoders):
            local = self.partition.restrict(features, i)
            out.append(_relu(local @ enc["w"] + enc["b"]))
        return out

    def _head_forward(self, concat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        h = _relu(concat @ self.head["w1"] + self.head["b1"])
        logits = h @ self.head["w2"] + self.head["b2"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        return h, probs

    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        hierarchy: Optional[Hierarchy] = None,
    ) -> VerticalFedTrainingReport:
        """Train with split backprop; record per-step transfers.

        When ``hierarchy`` is given, the per-epoch embedding/gradient
        traffic is recorded as messages between each end node and its
        parent (upward) and back (downward), so the network simulator
        can replay the cost.
        """
        x = check_matrix("features", features, cols=self.partition.n_features)
        y = check_labels("labels", labels, n_classes=self.n_classes)
        if x.shape[0] != y.shape[0]:
            raise ValueError("sample/label count mismatch")
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        report = VerticalFedTrainingReport()
        n = x.shape[0]
        lr = self.learning_rate
        for _epoch in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, yb = x[idx], y[idx]
                batch = xb.shape[0]
                embeddings = self._device_embeddings(xb)
                concat = np.concatenate(embeddings, axis=1)
                h, probs = self._head_forward(concat)
                loss = -np.mean(np.log(probs[np.arange(batch), yb] + 1e-12))
                epoch_loss += loss * batch
                # --- backward ------------------------------------------
                grad_logits = probs
                grad_logits[np.arange(batch), yb] -= 1.0
                grad_logits /= batch
                grad_w2 = h.T @ grad_logits
                grad_b2 = grad_logits.sum(axis=0)
                grad_h = (grad_logits @ self.head["w2"].T) * (h > 0)
                grad_w1 = concat.T @ grad_h
                grad_b1 = grad_h.sum(axis=0)
                grad_concat = grad_h @ self.head["w1"].T
                self.head["w2"] -= lr * grad_w2
                self.head["b2"] -= lr * grad_b2
                self.head["w1"] -= lr * grad_w1
                self.head["b1"] -= lr * grad_b1
                # Split the embedding gradient back to devices.
                offset = 0
                for i, enc in enumerate(self.encoders):
                    local = self.partition.restrict(xb, i)
                    g = grad_concat[:, offset : offset + self.embedding_dim]
                    g = g * (embeddings[i] > 0)
                    enc["w"] -= lr * local.T @ g
                    enc["b"] -= lr * g.sum(axis=0)
                    offset += self.embedding_dim
            report.loss_history.append(epoch_loss / n)
        if hierarchy is not None:
            report.messages = self.training_messages(hierarchy, n)
        self._fitted = True
        return report

    # ------------------------------------------------------------------
    def training_messages(self, hierarchy: Hierarchy, n_samples: int) -> List[Message]:
        """Per-run transfer list: embeddings up + gradients down, per epoch.

        Each device ships ``n_samples x embedding_dim`` float32 up (and
        the same volume of gradients comes back) every epoch; gateways
        relay their subtree's embeddings.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        per_device = n_samples * self.embedding_dim * 4
        messages: List[Message] = []
        subtree_leaves = {
            nid: len(hierarchy.subtree_leaves(nid)) for nid in hierarchy.nodes
        }
        for epoch in range(self.epochs):
            for node_id in hierarchy.postorder():
                node = hierarchy.nodes[node_id]
                if node.parent is None:
                    continue
                volume = per_device * subtree_leaves[node_id]
                messages.append(
                    Message(
                        node_id, node.parent, MessageKind.RAW_DATA,
                        volume, sequence=epoch,
                    )
                )
                messages.append(
                    Message(
                        node.parent, node_id, MessageKind.CONTROL,
                        volume, sequence=epoch,
                    )
                )
        return messages

    def inference_messages(self, hierarchy: Hierarchy, n_queries: int) -> List[Message]:
        """Embeddings shipped upward for ``n_queries`` inferences."""
        if n_queries < 0:
            raise ValueError("n_queries must be >= 0")
        per_device = n_queries * self.embedding_dim * 4
        messages: List[Message] = []
        for node_id in hierarchy.postorder():
            node = hierarchy.nodes[node_id]
            if node.parent is None:
                continue
            volume = per_device * len(hierarchy.subtree_leaves(node_id))
            messages.append(
                Message(node_id, node.parent, MessageKind.QUERY, volume)
            )
        return messages

    # ------------------------------------------------------------------
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "_fitted_or_none")
        x = check_matrix("features", features, cols=self.partition.n_features)
        concat = np.concatenate(self._device_embeddings(x), axis=1)
        _, probs = self._head_forward(concat)
        return probs

    @property
    def _fitted_or_none(self) -> Optional[bool]:
        return True if self._fitted else None

    def predict(self, features: np.ndarray) -> PredictionResult:
        """Full inference output (:class:`~repro.core.predictor.Predictor`)."""
        return result_from_proba(self.predict_proba(features))

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        y = check_labels("labels", labels, n_classes=self.n_classes)
        pred = self.predict_labels(features)
        if pred.shape[0] != y.shape[0]:
            raise ValueError("sample/label count mismatch")
        return float(np.mean(pred == y))
