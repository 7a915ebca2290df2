"""Hierarchical inference with confidence-based escalation (Sec. IV-C).

A query enters the system at an end node (the device the user touched).
The node classifies locally; if the softmax confidence of the winning
class clears the user-configurable threshold, it answers immediately —
zero communication. Otherwise the query *escalates*: the parent gathers
its children's encoded hypervectors, hierarchically encodes them, and
repeats the decision with its richer model, up to the central node.

Escalated query hypervectors are shipped in *compressed* bundles of
``m`` queries bound with position hypervectors (Sec. IV-C /
:mod:`repro.core.compression`), cutting the per-query wire cost by
roughly ``m`` (integer bundle elements vs ``m`` bipolar vectors).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.core.classifier import _block_rows
from repro.core.compression import compressed_bundle_bytes
from repro.core.search import SearchSpec, resolve_search
from repro.hierarchy.federation import EdgeHDFederation, LazyEncodings
from repro.network.message import Message, MessageKind
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_labels, check_matrix

__all__ = ["HierarchicalInference", "InferenceOutcome", "PREDICTION_BYTES", "Step"]

logger = logging.getLogger(__name__)

#: bytes of one downstream prediction (a class index).
PREDICTION_BYTES = 4


class Step(NamedTuple):
    """What one node does with one cohort (:meth:`HierarchicalInference.step`)."""

    #: mask over the cohort: rows whose decision this node recorded.
    decided: np.ndarray
    #: label / top-class confidence of each ``decided`` row, in order.
    labels: np.ndarray
    confidence: np.ndarray
    #: mask over the cohort: rows that answer here, with the last
    #: decision recorded for them (this node's, or an earlier one).
    answer: np.ndarray
    #: where the remaining rows go: the parent, or the root for an
    #: above-cap fall-through.
    destination: Optional[int]
    #: True when that hop ships a compressed bundle (an escalation
    #: edge, costed by :meth:`HierarchicalInference.uplink_bytes`).
    charged: bool


_NO_LABELS = np.empty(0, dtype=np.int64)
_NO_CONFIDENCE = np.empty(0, dtype=np.float64)


@dataclass
class InferenceOutcome:
    """Result of running a test batch through hierarchical inference."""

    labels: np.ndarray
    #: node that produced each answer.
    deciding_node: np.ndarray
    #: hierarchy level of the deciding node.
    deciding_level: np.ndarray
    #: top-class confidence at the deciding node.
    confidence: np.ndarray
    #: end node where each query entered the system.
    start_leaf: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    messages: List[Message] = field(default_factory=list)
    #: queries escalated over each (child -> parent) edge; additive
    #: across sub-batches, so the serving cluster can merge counts from
    #: worker processes and rebuild the exact offline message list via
    #: :meth:`HierarchicalInference.escalation_messages`.
    escalations: Dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(m.payload_bytes for m in self.messages)

    def level_frequency(self, depth: int) -> Dict[int, float]:
        """Fraction of queries answered at each level (Fig. 8c).

        ``depth`` must cover every recorded ``deciding_level``; passing
        the depth of a different hierarchy would silently report
        zero-frequency levels (and drop the real ones), so that case
        raises instead.
        """
        n = len(self.labels)
        if n == 0:
            raise ValueError("no inference outcomes recorded")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        recorded = np.unique(self.deciding_level)
        outside = recorded[(recorded < 1) | (recorded > depth)]
        if outside.size:
            raise ValueError(
                f"recorded deciding levels {outside.tolist()} fall outside "
                f"range [1, {depth}]; pass the depth of the hierarchy that "
                f"produced this outcome (levels seen: {recorded.tolist()})"
            )
        return {
            level: float(np.mean(self.deciding_level == level))
            for level in range(1, depth + 1)
        }

    def accuracy(self, labels: np.ndarray) -> float:
        y = np.asarray(labels)
        if y.shape != self.labels.shape:
            raise ValueError("label shape mismatch")
        return float(np.mean(self.labels == y))


class HierarchicalInference:
    """Escalation-based inference over a trained federation."""

    def __init__(
        self,
        federation: EdgeHDFederation,
        confidence_threshold: Optional[float] = None,
        compression_count: Optional[int] = None,
        min_level: int = 1,
        search: Optional[SearchSpec] = None,
    ) -> None:
        self.federation = federation
        cfg = federation.config
        self.confidence_threshold = (
            cfg.confidence_threshold if confidence_threshold is None else confidence_threshold
        )
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        self.compression_count = (
            cfg.compression_count if compression_count is None else compression_count
        )
        if self.compression_count < 1:
            raise ValueError("compression_count must be >= 1")
        if min_level < 1:
            raise ValueError("min_level must be >= 1")
        #: lowest level allowed to answer (PECAN runs classification on
        #: house level and above — appliances only sense, Sec. VI-C).
        self.min_level = int(min_level)
        #: associative-search configuration used at every node
        #: (see :class:`repro.core.classifier.HDClassifier`); the
        #: serving runtime reads the same spec, so served answers stay
        #: bit-identical to this offline walk.
        self.search = resolve_search(search, owner="HierarchicalInference")

    # ------------------------------------------------------------------
    # the escalation policy: every runner is a driver over these two
    # ------------------------------------------------------------------
    def step(
        self,
        node_id: int,
        cap: int,
        seen: np.ndarray,
        predict: Callable[[Optional[np.ndarray]], Tuple[np.ndarray, np.ndarray]],
    ) -> Step:
        """Route one cohort at one node — the whole policy of Sec. IV-C.

        ``seen`` masks the cohort rows that already carry a decision
        from a decision-capable node below; ``predict(where)`` returns
        this node's ``(labels, top-class confidence)`` for the rows
        under the mask ``where`` (``None`` = the whole cohort). Three
        tiers, by the node's level:

        * below ``min_level`` — sense only: nothing is decided, every
          row pays the hop to the parent;
        * within ``[min_level, cap]`` — every row's decision is
          recorded; a row answers when confident, at the cap, or at the
          root, and otherwise escalates to the parent;
        * above ``cap`` (ragged hierarchies, where a parent sits more
          than one level above its child) — ``seen`` rows answer with
          the decision they carry; the rest fall through to the root,
          uncharged, whose model answers them unconditionally.

        Pure: no clock, queue or socket — transport, batching, timing
        and fault handling belong to the driver.
        """
        hierarchy = self.federation.hierarchy
        node = hierarchy.nodes[node_id]
        nobody = np.zeros(seen.size, dtype=bool)
        if node.level < self.min_level:
            return Step(
                nobody, _NO_LABELS, _NO_CONFIDENCE, nobody, node.parent, True
            )
        everybody = np.ones(seen.size, dtype=bool)
        if node.level > cap:
            if node_id != hierarchy.root_id:
                return Step(
                    nobody, _NO_LABELS, _NO_CONFIDENCE, seen,
                    hierarchy.root_id, False,
                )
            unseen = ~seen
            labels, confidence = (
                predict(unseen) if unseen.any()
                else (_NO_LABELS, _NO_CONFIDENCE)
            )
            return Step(unseen, labels, confidence, everybody, None, False)
        labels, confidence = predict(None)
        if node.level == cap or node.parent is None:
            answer = everybody
        else:
            answer = confidence >= self.confidence_threshold
        return Step(everybody, labels, confidence, answer, node.parent, True)

    def uplink_bytes(self, parent: int, count: int) -> int:
        """Wire bytes of ``count`` queries escalated to ``parent``.

        The parent needs the hierarchically-encoded query of the whole
        subtree it covers, i.e. its children ship their encodings
        upward: the parent's input dimensionality per query, in
        compressed bundles of ``m`` queries with narrow packed elements
        (Eq. 3, :func:`~repro.core.compression.compressed_bundle_bytes`).
        The answer comes back down as :data:`PREDICTION_BYTES` per query.
        """
        nodes = self.federation.hierarchy.nodes
        m = self.compression_count
        parent_in_dim = sum(nodes[c].dimension for c in nodes[parent].children)
        return -(-count // m) * compressed_bundle_bytes(parent_in_dim, m)

    def entry_leaves(
        self, n: int, seed: SeedLike = 0,
        start_leaves: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The end node each of ``n`` queries enters at.

        ``start_leaves`` is checked and returned; without it, queries
        are spread uniformly over the leaves by ``derive_rng(seed,
        "start-leaves")``. :meth:`run` and
        :func:`~repro.serve.workload.make_workload` both draw here, so
        an offline run and a served workload with the same seed walk
        the same (query, entry leaf) pairs.
        """
        leaves = self.federation.hierarchy.leaves()
        if start_leaves is None:
            rng = derive_rng(seed, "start-leaves")
            return np.asarray(leaves)[rng.integers(0, len(leaves), size=n)]
        start_leaves = np.asarray(start_leaves)
        if start_leaves.shape != (n,):
            raise ValueError("start_leaves must have one entry per query")
        unknown = set(start_leaves.tolist()) - set(leaves)
        if unknown:
            raise ValueError(
                f"start_leaves contains non-leaf ids {sorted(unknown)}"
            )
        return start_leaves

    # ------------------------------------------------------------------
    def run(
        self,
        features: np.ndarray,
        start_leaves: Optional[np.ndarray] = None,
        max_level: Optional[int] = None,
        seed: int = 0,
        encodings: Union[Dict[int, np.ndarray], LazyEncodings, None] = None,
        max_batch: Optional[int] = None,
    ) -> InferenceOutcome:
        """Classify a test batch with escalation.

        ``start_leaves`` assigns each query an initiating end node
        (leaf ids); by default queries are spread uniformly over the
        leaves. ``max_level`` caps escalation (e.g. 2 = stop at the
        gateways), used by the Fig. 11 level sweep. ``encodings`` may
        pass precomputed ``encode_all(features)`` output (or any subset
        of it) to avoid re-encoding, or a
        :class:`~repro.hierarchy.federation.LazyEncodings` over
        ``features`` that already holds some rows' encodings (a cluster
        worker's start leaves); the rest are encoded on demand.

        The walk is batch-first: each node classifies its cohort in
        vectorized visits (with the kernel ``self.search`` selects), and
        confidence gating escalates whole sub-batches, with decisions
        identical to walking queries one at a time. A visit covers at
        most one product block of the node's float64 encodings (and at
        most ``max_batch`` rows, the serving runtimes' rule), so only the
        forwards kept below the root grow with the batch. Answers and
        escalation counts do not depend on the visit width.
        """
        hierarchy = self.federation.hierarchy
        mat = check_matrix(
            "features", features, cols=self.federation.partition.n_features
        )
        n = mat.shape[0]
        start_leaves = self.entry_leaves(n, seed, start_leaves)
        cap = self.effective_cap(max_level)
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")

        # Encodings are materialized lazily, per visit, the first time
        # the walk reaches a node (one vectorized associative search per
        # visit). A parent's visit reuses the forwards its children
        # computed and encodes only the sibling subtrees its rows lack;
        # untouched subtrees are never encoded. The values are
        # bit-identical to the eager encode-everything path.
        with obs.span("hierarchical_inference", n=n, cap=cap):
            lazy = (
                encodings if isinstance(encodings, LazyEncodings)
                else self.federation.encode_lazy(mat, prefill=encodings)
            )

            def cohort(
                node_id: int, rows: np.ndarray, where: Optional[np.ndarray]
            ):
                """(labels, confidence) for ``rows[where]`` at ``node_id``."""
                if where is not None:
                    rows = rows[where]
                decided = self.federation.classifiers[node_id].predict(
                    lazy.own_rows(node_id, rows), search=self.search
                )
                return decided.labels, decided.top_confidence

            #: queries escalated over each (child -> parent) edge.
            escalations: Dict[tuple[int, int], int] = {}
            #: per-query current position in the walk.
            current = np.asarray(start_leaves, dtype=np.int64).copy()
            #: last decision-capable node each query visited; -1 until
            #: the cohort reaches its first node at level >= min_level.
            chosen = np.full(n, -1, dtype=np.int64)
            best_label = np.empty(n, dtype=np.int64)
            best_conf = np.empty(n, dtype=np.float64)
            pending = np.arange(n, dtype=np.int64)
            while pending.size:
                advancing: list[np.ndarray] = []
                for node_id in np.flatnonzero(np.bincount(current[pending])).tolist():
                    visiting = pending[current[pending] == node_id]
                    width = _block_rows(hierarchy.nodes[node_id].dimension)
                    width = min(width, max_batch or width)
                    for lo in range(0, visiting.size, width):
                        rows = visiting[lo:lo + width]
                        step = self.step(
                            node_id, cap, chosen[rows] >= 0,
                            partial(cohort, node_id, rows),
                        )
                        here = rows[step.decided]
                        chosen[here] = node_id
                        best_label[here] = step.labels
                        best_conf[here] = step.confidence
                        moving = rows[~step.answer]
                        if moving.size:
                            if step.charged:
                                edge = (node_id, step.destination)
                                escalations[edge] = (
                                    escalations.get(edge, 0) + moving.size
                                )
                            current[moving] = step.destination
                            advancing.append(moving)
                pending = (
                    np.concatenate(advancing)
                    if advancing
                    else np.empty(0, dtype=np.int64)
                )

            # Per-query outputs were recorded at decision time (the walk
            # predicts each cohort exactly once); only the level lookup
            # remains.
            labels = best_label
            confidence = best_conf
            deciding_node = chosen
            deciding_level = np.empty(n, dtype=np.int64)
            for node_id in np.flatnonzero(np.bincount(chosen)):
                rows = np.flatnonzero(chosen == node_id)
                deciding_level[rows] = hierarchy.nodes[node_id].level

            messages = self.escalation_messages(escalations)
        if obs.enabled():
            self._record_metrics(escalations, deciding_level, confidence)
        return InferenceOutcome(
            labels=labels,
            deciding_node=deciding_node,
            deciding_level=deciding_level,
            confidence=confidence,
            start_leaf=np.asarray(start_leaves, dtype=np.int64),
            messages=messages,
            escalations=dict(escalations),
        )

    def _record_metrics(
        self,
        escalations: Dict[tuple[int, int], int],
        deciding_level: np.ndarray,
        confidence: np.ndarray,
    ) -> None:
        """Feed the metrics registry (only called when obs is enabled).

        Per-level counters use the level the query *left* (escalations)
        and the level that answered (decisions); the confidence
        histogram records the deciding node's top-class confidence,
        the quantity Fig. 8b tracks.
        """
        hierarchy = self.federation.hierarchy
        obs.incr("hierarchy.inference.queries", deciding_level.size)
        levels, counts = np.unique(deciding_level, return_counts=True)
        for level, count in zip(levels, counts):
            obs.incr(f"hierarchy.decided.l{int(level)}", int(count))
        for (child, _parent), count in escalations.items():
            level = hierarchy.nodes[child].level
            obs.incr(f"hierarchy.escalations.l{level}", count)
        for value in confidence:
            obs.observe(
                "hierarchy.confidence", float(value), bounds=obs.UNIT_BUCKETS
            )
        logger.debug(
            "inference: %d queries, %d escalation edges",
            deciding_level.size, len(escalations),
        )

    def effective_cap(self, max_level: Optional[int] = None) -> int:
        """Highest level allowed to answer (``max_level`` vs depth).

        Shared by :meth:`run` and the serving runtime
        (:mod:`repro.serve`) so both apply the same escalation ceiling.
        """
        depth = self.federation.hierarchy.depth
        cap = depth if max_level is None else min(max_level, depth)
        if cap < 1:
            raise ValueError("max_level must be >= 1")
        if self.min_level > cap:
            raise ValueError(
                f"min_level {self.min_level} exceeds the effective "
                f"escalation cap {cap}"
            )
        return cap

    def escalation_messages(
        self, escalations: Dict[tuple[int, int], int]
    ) -> List[Message]:
        """The message list of a walk, from its per-edge escalation counts.

        One compressed-bundle uplink (:meth:`uplink_bytes`) and one
        prediction downlink per escalation edge. Counts are additive
        across cohorts, so every runner — this offline walk, the
        serving runtime, the cluster router merging its workers'
        counts — reports the same list for the same queries.
        """
        messages: List[Message] = []
        for (child, parent), count in sorted(escalations.items()):
            payload = self.uplink_bytes(parent, count)
            obs.incr("hierarchy.escalation.compressed_bytes", payload)
            messages.append(
                Message(
                    source=child,
                    destination=parent,
                    kind=MessageKind.COMPRESSED_QUERY,
                    payload_bytes=payload,
                )
            )
            # The answer travels back down (a class index — negligible
            # but accounted for completeness).
            messages.append(
                Message(
                    source=parent,
                    destination=child,
                    kind=MessageKind.PREDICTION,
                    payload_bytes=PREDICTION_BYTES * count,
                )
            )
        return messages

    # ------------------------------------------------------------------
    def evaluate(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        **kwargs: Any,
    ) -> tuple[float, InferenceOutcome]:
        """Run and score in one call."""
        y = check_labels("labels", labels, n_classes=self.federation.n_classes)
        outcome = self.run(features, **kwargs)
        return outcome.accuracy(y), outcome
