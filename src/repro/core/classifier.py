"""HD classification: initial training, retraining, inference, confidence.

Implements Section III-B of the paper:

* **Initial training** bundles every encoded sample of a class into one
  *class hypervector*: ``C^i = sum_j H^i_j``.
* **Retraining** runs perceptron-style passes: a misclassified sample
  is added to its correct class hypervector and subtracted from the
  wrongly-predicted one. The paper uses ~20 epochs.
* **Inference** is an associative search: a query is assigned to the
  class hypervector with the highest cosine similarity. Class
  hypervectors are pre-normalized once per training step (the FPGA
  optimization of Sec. V-B) so queries need only a dot product.
* **Confidence** (Sec. IV-C) is the softmax over normalized cosine
  similarities; EdgeHD escalates queries whose top confidence falls
  below a threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

import repro.obs as obs
from repro.core.hypervector import normalize_rows
from repro.core.kernels import PackedBits, pack_bits, packed_similarities
from repro.core.search import BACKENDS, SearchSpec, resolve_search
from repro.utils.validation import check_fitted, check_labels, check_matrix

__all__ = [
    "HDClassifier",
    "softmax_confidence",
    "PredictionResult",
    "BACKENDS",
    "SearchSpec",
]

logger = logging.getLogger(__name__)

#: bytes of float64 rows per block: the update's gathers and product,
#: norms, the blocked argmax and the offline walk's node visits.
_PRODUCT_BLOCK_BYTES = 1 << 20


def _block_rows(dimension: int) -> int:
    """Rows of ``dimension`` float64 values in one block."""
    return max(1, _PRODUCT_BLOCK_BYTES // (8 * dimension))


def _exact_in_any_order(
    model: np.ndarray, samples: np.ndarray, n_terms: int, scale: float
) -> bool:
    """Whether every partial sum of the update is an exact integer.

    True for integer rows, an integral ``scale`` and an integer-valued
    model (no ``-0.0``, whose sign only the ordered sum keeps) when
    ``max|model| + n_terms * max|row| * |scale|`` stays below 2**53.
    """
    if not (np.issubdtype(samples.dtype, np.integer)
            and float(scale).is_integer()):
        return False
    info = np.iinfo(samples.dtype)
    largest = max(-int(info.min), int(info.max))
    peak = float(np.abs(model).max(initial=0.0))
    return bool(
        peak + n_terms * largest * abs(scale) < 2.0**53
        and np.array_equal(model, np.rint(model))
        and not np.signbit(model[model == 0]).any()
    )


def _add_ordered(
    model: np.ndarray, samples: np.ndarray, rows: np.ndarray,
    add_to: np.ndarray, subtract_from: np.ndarray, scale: float = 1.0,
) -> None:
    """``model[add_to] += scale * samples[rows]``, then ``-=`` likewise.

    The bits of ``np.add.at`` then ``np.subtract.at``: each class row
    takes its additions, then its negated subtractions, each in index
    order, summed left to right (DESIGN.md §4e, "Reach of exact").
    When :func:`_exact_in_any_order` holds, that sum is one one-hot
    product in row blocks instead, which gives the same bits.
    """
    n_terms = add_to.shape[0] + subtract_from.shape[0]
    if _exact_in_any_order(model, samples, n_terms, scale):
        _add_product(model, samples, rows, add_to, subtract_from, scale)
        return
    targets = np.concatenate([add_to, subtract_from])
    order = np.argsort(targets, kind="stable")
    sources = rows[order % rows.shape[0]]
    coefficients = np.where(order < rows.shape[0], scale, -scale)[:, None]
    bounds = np.searchsorted(targets[order], np.arange(model.shape[0] + 1))
    step = _block_rows(samples.shape[1])
    for cls in np.flatnonzero(np.diff(bounds)):
        running = model[cls]
        for start in range(bounds[cls], bounds[cls + 1], step):
            stop = min(start + step, bounds[cls + 1])
            block = samples[sources[start:stop]].astype(np.float64, copy=False)
            block *= coefficients[start:stop]
            block[0] += running
            # accumulate is sequential by definition; reduce is pairwise
            # along a contiguous axis (D=1) and would round differently.
            running = np.add.accumulate(block, axis=0, out=block)[-1]
        model[cls] = running


def _add_product(
    model: np.ndarray, samples: np.ndarray, rows: np.ndarray,
    add_to: np.ndarray, subtract_from: np.ndarray, scale: float,
) -> None:
    """:func:`_add_ordered`'s update as ``one_hot @ rows``, for exact sums."""
    touched, slot = np.unique(
        np.concatenate([add_to, subtract_from]), return_inverse=True
    )
    n = rows.shape[0]
    subtracts = subtract_from.shape[0] > 0
    totals = model[touched]
    step = _block_rows(samples.shape[1])
    for start in range(0, n, step):
        stop = min(start + step, n)
        columns = np.arange(stop - start)
        one_hot = np.zeros((touched.size, stop - start))
        one_hot[slot[start:stop], columns] = scale
        if subtracts:
            one_hot[slot[n + start:n + stop], columns] -= scale
        totals += one_hot @ samples[rows[start:stop]].astype(np.float64)
    model[touched] = totals


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1, keepdims=True)``'s reduction, unwrapped."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows / np.linalg.norm(rows, axis=1, keepdims=True)`` in float64,
    zero rows left zero, with no full-size temporary but the result.

    Past one ``_PRODUCT_BLOCK_BYTES`` block, C-contiguous rows take
    their norms per block, which sums each row as the whole array does
    (integer rows' squares exactly, in any order). One block, the
    served batch, and strided arrays keep one call.
    """
    n, dimension = rows.shape
    step = _block_rows(dimension)
    # A float64 copy of other dtypes is the result, divided in place.
    unit = None if rows.dtype == np.float64 else rows.astype(np.float64)
    floats = rows if unit is None else unit
    if n <= step or not floats.flags.c_contiguous:
        norms = _row_norms(floats)
    else:
        norms = np.empty((n, 1))
        for start in range(0, n, step):
            norms[start:start + step] = _row_norms(floats[start:start + step])
    norms += norms == 0  # zero rows divide by 1.0
    return np.divide(floats, norms, out=unit)


def _argmax_rows(rows: np.ndarray, normalized: np.ndarray) -> np.ndarray:
    """``np.argmax(_unit_rows(rows) @ normalized.T, axis=1)``, one
    :func:`_block_rows` block of float64 rows at a time. A row's norm is
    one positive factor on all its similarities, so the argmax skips the
    division. Both forms round by row count and scale, so only the
    argmax is shared (DESIGN.md §4e, "Reach of exact")."""
    labels = np.empty(rows.shape[0], dtype=np.intp)
    step = _block_rows(rows.shape[1])
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        # One expression: a bound name would keep the last block alive.
        labels[block] = np.argmax(
            rows[block].astype(np.float64, copy=False) @ normalized.T, axis=1
        )
    return labels


def softmax_confidence(similarities: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax over (rows of) similarity scores.

    The similarities are normalized to zero mean per row before the
    softmax so that the confidence reflects the *relative* margin
    between classes, as described in Sec. IV-C.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    sims = np.atleast_2d(np.asarray(similarities, dtype=np.float64))
    # np.mean's, .max's and .sum's ufunc reductions, unwrapped, in place
    scaled = sims - np.add.reduce(sims, axis=1, keepdims=True) / sims.shape[1]
    scaled /= temperature
    scaled -= np.maximum.reduce(scaled, axis=1, keepdims=True)
    exp = np.exp(scaled, out=scaled)
    exp /= np.add.reduce(exp, axis=1, keepdims=True)
    return exp


@dataclass(eq=False)
class PredictionResult:
    """Inference output: labels, per-class similarity and confidence.

    Every :class:`~repro.core.predictor.Predictor` in the library —
    core HD models and every baseline — returns this from ``predict``.
    """

    labels: np.ndarray
    similarities: np.ndarray
    confidences: np.ndarray

    @property
    def top_confidence(self) -> np.ndarray:
        """Confidence of the predicted class for each query."""
        return self.confidences[np.arange(len(self.labels)), self.labels]

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> Any:
        if not isinstance(other, PredictionResult):
            return NotImplemented
        return (
            np.array_equal(self.labels, other.labels)
            and np.array_equal(self.similarities, other.similarities)
            and np.array_equal(self.confidences, other.confidences)
        )

    __hash__ = None  # type: ignore[assignment]


class HDClassifier:
    """Class-hypervector model over an *already encoded* hyperspace.

    The classifier is deliberately encoder-agnostic: in the hierarchy,
    gateway and central nodes train on hierarchically-encoded
    hypervectors that never saw the raw feature space (Sec. IV-B). Use
    :class:`repro.core.model.EdgeHDModel` for the encoder+classifier
    bundle on end nodes.

    Parameters
    ----------
    n_classes:
        Number of classes ``k``.
    dimension:
        Hypervector dimensionality ``D`` of this node.
    confidence_temperature:
        Softmax temperature; smaller values sharpen confidence.
    search:
        Default :class:`~repro.core.search.SearchSpec` for every
        inference entry point (all of which also take a per-call
        ``search=`` override). ``backend="dense"`` is the float cosine
        path; ``backend="packed"`` XOR+popcounts bit-packed
        hypervectors (:mod:`repro.core.kernels`). On a binarized
        model with bipolar queries the two backends compute the same
        cosine similarities and agree on the argmax whenever the top
        class is unique (the packed path is exact integer arithmetic;
        the dense float path can break *exact* similarity ties
        differently); on real-valued models the packed path is the
        SHEARer-style sign-quantized approximation. Unset, the process
        default (:func:`repro.core.search.get_default_search`) applies.
    """

    def __init__(
        self,
        n_classes: int,
        dimension: int,
        confidence_temperature: Optional[float] = None,
        search: Optional[SearchSpec] = None,
    ) -> None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        if confidence_temperature is None:
            # Cosine-similarity gaps shrink as 1/sqrt(D); scaling the
            # temperature the same way keeps confidence calibrated
            # across nodes of very different dimensionality.
            confidence_temperature = 2.0 / np.sqrt(dimension)
        if confidence_temperature <= 0:
            raise ValueError("confidence_temperature must be positive")
        self.n_classes = int(n_classes)
        self.dimension = int(dimension)
        self.confidence_temperature = float(confidence_temperature)
        self.search = resolve_search(search, owner="HDClassifier")
        self.class_hypervectors: Optional[np.ndarray] = None
        self._normalized: Optional[np.ndarray] = None
        #: lazily-built bit-packed sign model, invalidated on every
        #: model update alongside the pre-normalized dense model.
        self._packed_model: Optional[PackedBits] = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit_initial(self, encoded: np.ndarray, labels: np.ndarray) -> "HDClassifier":
        """Single-pass initial training: bundle samples per class."""
        # The caller's own rows: int8 ones take the integer update.
        enc = check_matrix("encoded", encoded, cols=self.dimension, dtype=None)
        y = check_labels("labels", labels, n_classes=self.n_classes)
        if enc.shape[0] != y.shape[0]:
            raise ValueError(
                f"{enc.shape[0]} samples but {y.shape[0]} labels"
            )
        model = np.zeros((self.n_classes, self.dimension), dtype=np.float64)
        _add_ordered(model, enc, np.arange(enc.shape[0]), y, y[:0])
        self.class_hypervectors = model
        self._refresh_normalized()
        return self

    def set_model(self, class_hypervectors: np.ndarray) -> "HDClassifier":
        """Install externally-aggregated class hypervectors.

        Used by gateway/central nodes after hierarchical encoding.
        """
        model = check_matrix("class_hypervectors", class_hypervectors, cols=self.dimension)
        if model.shape[0] != self.n_classes:
            raise ValueError(
                f"expected {self.n_classes} class hypervectors, got {model.shape[0]}"
            )
        self.class_hypervectors = model.astype(np.float64).copy()
        self._refresh_normalized()
        return self

    def attach_model(
        self,
        class_hypervectors: np.ndarray,
        normalized: np.ndarray,
        packed: PackedBits,
    ) -> "HDClassifier":
        """Install pre-computed model views without copying.

        The zero-copy counterpart of :meth:`set_model`, used by the
        serving cluster: worker processes attach the class
        hypervectors, the pre-normalized model and the bit-packed sign
        model directly from a ``multiprocessing.shared_memory`` block
        (see :class:`repro.serve.shard.SharedModelStore`). The arrays
        are installed as-is — typically read-only views — so a worker
        holds **no private copy** of any model matrix. Training entry
        points (``fit_initial``/``retrain``) would attempt to write through
        the views and fail on read-only memory; attached classifiers
        are serve-only by construction.

        All three representations must describe the *same* model: the
        caller (the shard store) derives ``normalized`` and ``packed``
        from ``class_hypervectors`` at publish time, exactly as
        :meth:`_refresh_normalized` would.
        """
        model = np.asarray(class_hypervectors)
        if model.shape != (self.n_classes, self.dimension):
            raise ValueError(
                f"class_hypervectors must have shape "
                f"({self.n_classes}, {self.dimension}), got {model.shape}"
            )
        norm = np.asarray(normalized)
        if norm.shape != model.shape:
            raise ValueError(
                f"normalized must have shape {model.shape}, got {norm.shape}"
            )
        if packed.n_rows != self.n_classes or packed.dimension != self.dimension:
            raise ValueError(
                f"packed model must cover {self.n_classes} classes of "
                f"dimension {self.dimension}, got {packed.n_rows} rows of "
                f"dimension {packed.dimension}"
            )
        self.class_hypervectors = model
        self._normalized = norm
        self._packed_model = packed
        return self

    def retrain(
        self,
        encoded: np.ndarray,
        labels: np.ndarray,
        epochs: int = 20,
        learning_rate: float = 1.0,
    ) -> list[float]:
        """Perceptron-style retraining (Sec. III-B).

        For each misclassified sample ``H``: ``C_correct += lr*H`` and
        ``C_wrong -= lr*H``. Returns the per-epoch training accuracy so
        callers can observe convergence (the paper reports 20 epochs
        suffice on all tested datasets).

        Each epoch classifies every sample against the current model and
        then applies all of its updates at once, vectorized, which
        matters for hierarchies with hundreds of nodes (PECAN has 312).
        It classifies one 1 MiB block of float64 rows at a time (no
        float64 copy of the samples) and sums each class's updates in
        order.
        """
        check_fitted(self, "class_hypervectors")
        enc = check_matrix("encoded", encoded, cols=self.dimension, dtype=None)
        y = check_labels("labels", labels, n_classes=self.n_classes)
        if enc.shape[0] != y.shape[0]:
            raise ValueError(f"{enc.shape[0]} samples but {y.shape[0]} labels")
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        if not (np.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {learning_rate}"
            )
        if enc.shape[0] == 0:
            return []
        history: list[float] = []
        model = self.class_hypervectors
        with obs.span("retrain", epochs=epochs, n=enc.shape[0]) as retrain_span:
            for _ in range(epochs):
                preds = _argmax_rows(enc, normalize_rows(model))
                wrong = np.flatnonzero(preds != y)
                history.append(1.0 - wrong.size / enc.shape[0])
                if wrong.size:
                    _add_ordered(
                        model, enc, wrong, y[wrong], preds[wrong],
                        scale=learning_rate,
                    )
                if history[-1] == 1.0:
                    break
            retrain_span.set(epochs_run=len(history))
        obs.incr("core.retrain.calls")
        obs.incr("core.retrain.epochs_run", len(history))
        self._refresh_normalized()
        if history:
            logger.debug(
                "retrain: %d epochs, accuracy %.3f -> %.3f",
                len(history), history[0], history[-1],
            )
        return history

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def similarities(
        self,
        encoded: np.ndarray,
        search: Optional[SearchSpec] = None,
    ) -> np.ndarray:
        """Similarity of each query row to each class hypervector.

        The dense backend computes cosine similarity against the
        pre-normalized model. The packed backend sign-quantizes queries
        and model (bit = element > 0), XORs the uint64 bitplanes and
        popcounts, returning ``dot / D`` — equal to the cosine when
        both sides are bipolar, and ~64x less data movement.
        """
        check_fitted(self, "class_hypervectors")
        spec = resolve_search(
            search, default=self.search, owner="HDClassifier.similarities"
        )
        if spec.backend == "packed":
            enc = np.asarray(encoded)
            if enc.ndim == 1:
                enc = enc.reshape(1, -1)
            if enc.ndim != 2 or enc.shape[1] != self.dimension:
                raise ValueError(
                    f"encoded must have {self.dimension} columns, got "
                    f"shape {enc.shape}"
                )
            obs.incr("core.similarity.calls")
            obs.incr("core.similarity.queries", enc.shape[0])
            obs.incr("core.similarity.packed_queries", enc.shape[0])
            if self._packed_model is None:
                self._packed_model = pack_bits(self.class_hypervectors)
            queries = pack_bits(enc)
            return packed_similarities(queries, self._packed_model)
        enc = check_matrix("encoded", encoded, cols=self.dimension, dtype=None)
        obs.incr("core.similarity.calls")
        obs.incr("core.similarity.queries", enc.shape[0])
        # Pre-normalized model: cosine == dot with normalized queries.
        return _unit_rows(enc) @ self._normalized.T

    def predict(
        self,
        encoded: np.ndarray,
        search: Optional[SearchSpec] = None,
    ) -> PredictionResult:
        """Associative search + confidence for a batch of queries."""
        sims = self.similarities(encoded, search=search)
        labels = sims.argmax(axis=1)
        conf = softmax_confidence(sims, temperature=self.confidence_temperature)
        return PredictionResult(labels=labels, similarities=sims, confidences=conf)

    def predict_labels(
        self,
        encoded: np.ndarray,
        search: Optional[SearchSpec] = None,
    ) -> np.ndarray:
        """Just the argmax labels, with no confidences. The dense
        backend classifies one row block at a time."""
        check_fitted(self, "class_hypervectors")
        spec = resolve_search(
            search, default=self.search, owner="HDClassifier.predict_labels"
        )
        if spec.backend == "packed":
            return np.argmax(self.similarities(encoded, search=spec), axis=1)
        enc = check_matrix("encoded", encoded, cols=self.dimension, dtype=None)
        obs.incr("core.similarity.calls")
        obs.incr("core.similarity.queries", enc.shape[0])
        return _argmax_rows(enc, self._normalized)

    def predict_proba(
        self,
        encoded: np.ndarray,
        search: Optional[SearchSpec] = None,
    ) -> np.ndarray:
        """Per-class confidence matrix (softmax over similarities)."""
        return self.predict(encoded, search=search).confidences

    def accuracy(
        self,
        encoded: np.ndarray,
        labels: np.ndarray,
        search: Optional[SearchSpec] = None,
    ) -> float:
        """Fraction of queries classified correctly."""
        y = check_labels("labels", labels, n_classes=self.n_classes)
        pred = self.predict_labels(encoded, search=search)
        if pred.shape[0] != y.shape[0]:
            raise ValueError(f"{pred.shape[0]} samples but {y.shape[0]} labels")
        if y.size == 0:
            raise ValueError("empty evaluation set")
        return float(np.mean(pred == y))

    def binarize_model(self) -> "HDClassifier":
        """Snap class hypervectors to {-1, +1} in place.

        Uses the packed kernel's sign convention (``> 0`` maps to +1,
        zeros to -1) so that afterwards the dense and packed backends
        compute identical similarities on bipolar queries — the
        deployment step that makes the popcount path exact rather than
        approximate.
        """
        check_fitted(self, "class_hypervectors")
        self.class_hypervectors = np.where(
            self.class_hypervectors > 0, 1.0, -1.0
        )
        self._refresh_normalized()
        return self

    # ------------------------------------------------------------------
    def copy(self) -> "HDClassifier":
        """Deep copy (used when forking node models in the hierarchy)."""
        clone = HDClassifier(
            self.n_classes, self.dimension, self.confidence_temperature,
            search=self.search,
        )
        if self.class_hypervectors is not None:
            clone.class_hypervectors = self.class_hypervectors.copy()
            clone._refresh_normalized()
        return clone

    def _refresh_normalized(self) -> None:
        self._normalized = normalize_rows(self.class_hypervectors)
        self._packed_model = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fitted = self.class_hypervectors is not None
        return (
            f"HDClassifier(n_classes={self.n_classes}, dimension={self.dimension}, "
            f"fitted={fitted})"
        )
