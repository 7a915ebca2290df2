"""EdgeHD model container: encoder + classifier + wire accounting.

An :class:`EdgeHDModel` couples a feature encoder with an
:class:`~repro.core.classifier.HDClassifier` — the object an *end node*
trains on raw sensor features. Gateways and the central node work on
hypervectors directly and use :class:`HDClassifier` through
:mod:`repro.hierarchy`.

The module also provides wire-size helpers used by the network
simulator to charge communication costs: the paper's headline savings
come from shipping ``k`` class hypervectors (or ``ceil(N/B)`` batch
hypervectors) instead of raw datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.classifier import HDClassifier, PredictionResult
from repro.core.encoding import Encoder, make_encoder
from repro.core.search import SearchSpec
from repro.utils.files import savez_atomic
from repro.utils.rng import SeedLike
from repro.utils.validation import check_labels, check_matrix

__all__ = [
    "EdgeHDModel",
    "hypervector_bytes",
    "class_model_bytes",
    "raw_data_bytes",
]

#: Bytes per element on the wire. Encoded hypervectors are bipolar and
#: could be packed to 1 bit, but class/batch hypervectors carry integer
#: counts; the paper's FPGA uses narrow fixed-point. We charge 4 bytes
#: for integer hypervectors and 1 bit for bipolar ones.
_INT_BYTES = 4
_RAW_FEATURE_BYTES = 4


def hypervector_bytes(dimension: int, bipolar: bool = True) -> int:
    """Wire size of one hypervector."""
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if bipolar:
        return (dimension + 7) // 8
    return dimension * _INT_BYTES


def class_model_bytes(n_classes: int, dimension: int) -> int:
    """Wire size of a class-hypervector model (integer elements)."""
    if n_classes <= 0:
        raise ValueError(f"n_classes must be positive, got {n_classes}")
    return n_classes * hypervector_bytes(dimension, bipolar=False)


def raw_data_bytes(n_samples: int, n_features: int) -> int:
    """Wire size of a raw float feature matrix (centralized baseline)."""
    if n_samples < 0 or n_features <= 0:
        raise ValueError("invalid raw data shape")
    return n_samples * n_features * _RAW_FEATURE_BYTES


@dataclass
class TrainingReport:
    """Summary of a local training run on an end node."""

    initial_accuracy: float
    retrain_history: list[float]
    n_samples: int

    @property
    def final_accuracy(self) -> float:
        if self.retrain_history:
            return self.retrain_history[-1]
        return self.initial_accuracy


class EdgeHDModel:
    """Encoder + HD classifier bundle for an end node.

    Parameters mirror :class:`repro.config.EdgeHDConfig`; any encoder
    from :func:`repro.core.encoding.make_encoder` may be used.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        dimension: int = 4000,
        encoder: str | Encoder = "rbf",
        sparsity: float = 0.0,
        seed: SeedLike = None,
        search: Optional[SearchSpec] = None,
    ) -> None:
        if isinstance(encoder, Encoder):
            if encoder.n_features != n_features or encoder.dimension != dimension:
                raise ValueError(
                    "supplied encoder shape does not match model shape"
                )
            self.encoder = encoder
        else:
            self.encoder = make_encoder(
                encoder, n_features, dimension, sparsity=sparsity, seed=seed,
            )
        self.classifier = HDClassifier(n_classes, dimension, search=search)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.dimension = int(dimension)

    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        retrain_epochs: int = 20,
        learning_rate: float = 1.0,
    ) -> TrainingReport:
        """Encode, build initial class hypervectors, then retrain."""
        mat = check_matrix("features", features, cols=self.n_features)
        y = check_labels("labels", labels, n_classes=self.n_classes)
        encoded = self.encoder.encode(mat)
        self.classifier.fit_initial(encoded, y)
        initial = self.classifier.accuracy(encoded, y)
        history = self.classifier.retrain(
            encoded, y, epochs=retrain_epochs, learning_rate=learning_rate,
        )
        return TrainingReport(
            initial_accuracy=initial, retrain_history=history, n_samples=mat.shape[0]
        )

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Expose the encoder (end nodes encode queries locally)."""
        return self.encoder.encode(features)

    def predict(
        self,
        features: np.ndarray,
        search: Optional[SearchSpec] = None,
    ) -> PredictionResult:
        """End-to-end inference from raw features.

        ``search`` selects the associative-search configuration per
        call (:class:`repro.core.search.SearchSpec`: dense cosine or
        packed XOR+popcount); by default the classifier's configured
        spec applies. See
        :class:`repro.core.classifier.HDClassifier` for the
        dense/packed equivalence guarantee.
        """
        return self.classifier.predict(self.encode(features), search=search)

    def accuracy(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        search: Optional[SearchSpec] = None,
    ) -> float:
        return self.classifier.accuracy(
            self.encode(features), labels, search=search
        )

    # ------------------------------------------------------------------
    @property
    def search(self) -> SearchSpec:
        """The classifier's default :class:`SearchSpec`."""
        return self.classifier.search

    @search.setter
    def search(self, spec: SearchSpec) -> None:
        if not isinstance(spec, SearchSpec):
            raise TypeError(
                f"search must be a SearchSpec, got {type(spec).__name__}"
            )
        self.classifier.search = spec

    @property
    def class_hypervectors(self) -> np.ndarray:
        if self.classifier.class_hypervectors is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.classifier.class_hypervectors

    def model_wire_bytes(self) -> int:
        """Bytes to transmit this node's class-hypervector model."""
        return class_model_bytes(self.n_classes, self.dimension)

    # ------------------------------------------------------------------
    # serialization (class hypervectors only; the encoder basis is
    # regenerated from its seed on the receiving side, as in the paper)
    # ------------------------------------------------------------------
    def save_model(self, path: str) -> None:
        """Persist the trained class hypervectors as an ``.npz`` archive.

        The archive lands at exactly ``path`` (no suffix is appended)
        and replaces a previous file there only once fully written.
        """
        savez_atomic(
            path,
            class_hypervectors=self.class_hypervectors,
            meta=json.dumps(
                {
                    "n_features": self.n_features,
                    "n_classes": self.n_classes,
                    "dimension": self.dimension,
                }
            ),
        )

    def load_model(self, path: str) -> "EdgeHDModel":
        """Load class hypervectors saved by :meth:`save_model`."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if (
                meta["n_classes"] != self.n_classes
                or meta["dimension"] != self.dimension
            ):
                raise ValueError(
                    f"checkpoint shape {meta} does not match model "
                    f"(n_classes={self.n_classes}, dimension={self.dimension})"
                )
            self.classifier.set_model(data["class_hypervectors"])
        return self
