"""Hierarchical online learning from user feedback (Sec. IV-D, Fig. 5).

During runtime each inference is answered by some node (local answer or
escalated). When the user flags a wrong answer, the deciding node adds
the query hypervector to its per-class *residual* accumulator instead
of updating the model immediately. At a propagation point (e.g. "every
midnight"), bottom-up over the hierarchy:

1. each node folds its residuals into its own model;
2. residual stacks travel to the parent, which hierarchically encodes
   the children's residuals into its own space, merges them with its
   local residuals, and repeats.

The :class:`OnlineSession` drives a feedback stream in steps and
records the per-level accuracy / confidence / inference-location
metrics that Figs. 8 and 9 report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.obs as obs
from repro.core.online import ResidualAccumulator
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.inference import HierarchicalInference
from repro.network.message import Message, MessageKind
from repro.utils.validation import check_labels, check_matrix, check_vector

__all__ = ["OnlineLearner", "OnlineSession", "OnlineStepMetrics"]

logger = logging.getLogger(__name__)


class OnlineLearner:
    """Residual-based online updates over a trained federation."""

    def __init__(
        self,
        federation: EdgeHDFederation,
        learning_rate: float = 1.0,
        feedback_includes_label: bool = False,
        aggregate_children: bool = True,
        normalize: bool = False,
    ) -> None:
        """``aggregate_children=True`` is the Fig. 5b flow: a parent
        merges the hierarchical encoding of its children's residuals
        into its own before applying. Disable it when feedback is
        recorded *path-wide* (every handler of a query records its own
        residual), where upward aggregation would double-count.

        ``normalize=True`` rescales every class hypervector to unit L2
        norm when the learner is attached, and records unit-norm query
        hypervectors. Class hypervectors grow with the offline sample
        count while a feedback query is O(1); without normalization a
        well-trained model is immovable by feedback (the OnlineHD
        recipe, the paper's ref [32]). Cosine classification is
        invariant to the rescaling.
        """
        if not (np.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        self.federation = federation
        self.learning_rate = float(learning_rate)
        self.feedback_includes_label = bool(feedback_includes_label)
        self.aggregate_children = bool(aggregate_children)
        self.normalize = bool(normalize)
        #: 1/(1 + decay * t) learning-rate schedule over propagations;
        #: keeps repeated mean-correction updates from oscillating.
        self.learning_rate_decay = 0.5
        self._propagations = 0
        if normalize:
            from repro.core.hypervector import normalize_rows

            for clf in federation.classifiers.values():
                if clf.class_hypervectors is not None:
                    clf.set_model(normalize_rows(clf.class_hypervectors))
        self.residuals: Dict[int, ResidualAccumulator] = {
            node_id: ResidualAccumulator(federation.n_classes, node.dimension)
            for node_id, node in federation.hierarchy.nodes.items()
        }

    # ------------------------------------------------------------------
    def record_feedback(
        self,
        node_id: int,
        query_hv: np.ndarray,
        predicted_class: int,
        true_class: Optional[int] = None,
    ) -> None:
        """Record one negative feedback at the deciding node."""
        label = true_class if self.feedback_includes_label else None
        query = check_vector(
            "query_hv", query_hv, length=self.residuals[node_id].dimension
        )
        if self.normalize:
            norm = np.linalg.norm(query)
            if norm > 0:
                query = query / norm
        self.residuals[node_id].record_negative(query, predicted_class, label)
        obs.incr("online.feedback.events")

    def pending_feedback(self) -> int:
        """Total feedback events not yet propagated."""
        return sum(r.feedback_count for r in self.residuals.values())

    # ------------------------------------------------------------------
    @obs.traced("propagate")
    def propagate(self) -> List[Message]:
        """Apply + propagate all residuals bottom-up; returns transfers.

        Implements Fig. 5b: the *effective* residual of a node is its
        own accumulator merged with the hierarchical encoding of its
        children's effective residuals; each node applies its effective
        residual to its model, then the stacks move one level up.
        """
        federation = self.federation
        hierarchy = federation.hierarchy
        messages: List[Message] = []
        effective_lr = self.learning_rate / (
            1.0 + self.learning_rate_decay * self._propagations
        )
        self._propagations += 1
        # effective (negative, positive, count) per node, in node space.
        effective: Dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        for node_id in hierarchy.postorder():
            node = hierarchy.nodes[node_id]
            own = self.residuals[node_id]
            neg, pos = own.snapshot()
            count = own.feedback_count
            if not node.is_leaf and self.aggregate_children:
                child_negs = [effective[c][0] for c in node.children]
                child_poss = [effective[c][1] for c in node.children]
                child_count = sum(effective[c][2] for c in node.children)
                if child_count > 0:
                    neg += federation.combine_children(node_id, child_negs)
                    pos += federation.combine_children(node_id, child_poss)
                    count += child_count
            effective[node_id] = (neg, pos, count)
            if count > 0:
                if self.aggregate_children and not node.is_leaf:
                    merged = ResidualAccumulator(
                        federation.n_classes, node.dimension
                    )
                    merged.load(neg, pos, count)
                    source = merged
                else:
                    source = own
                source.apply_to(
                    federation.classifiers[node_id],
                    learning_rate=effective_lr,
                    normalized=self.normalize,
                )
                obs.incr("online.residual_updates")
            if (
                node.parent is not None
                and count > 0
                and self.aggregate_children
            ):
                messages.append(
                    Message(
                        source=node_id,
                        destination=node.parent,
                        kind=MessageKind.RESIDUALS,
                        payload_bytes=4 * (neg.size + pos.size),
                    )
                )
                obs.incr("online.residual_bytes", 4 * (neg.size + pos.size))
            own.clear()
        obs.incr("online.propagations")
        logger.debug(
            "propagate: %d residual transfers, lr %.4f",
            len(messages), effective_lr,
        )
        return messages


@dataclass
class OnlineStepMetrics:
    """Snapshot of system quality after one propagation step."""

    step: int
    samples_seen: int
    accuracy_by_level: Dict[int, float]
    mean_confidence_by_level: Dict[int, float]
    inference_frequency_by_level: Dict[int, float]
    feedback_events: int
    messages: List[Message] = field(default_factory=list)

    @property
    def central_accuracy(self) -> float:
        return self.accuracy_by_level[max(self.accuracy_by_level)]


class OnlineSession:
    """Drive a feedback stream through the hierarchy in steps (Fig. 8/9).

    The stream is split into ``n_steps`` equal segments. Within a
    segment every sample is classified with escalation-based inference;
    misclassified samples generate negative feedback at the deciding
    node. After each segment residuals propagate and a metrics snapshot
    is taken on the held-out test set.
    """

    def __init__(
        self,
        federation: EdgeHDFederation,
        learner: Optional[OnlineLearner] = None,
        inference: Optional[HierarchicalInference] = None,
        feedback_mode: str = "deciding",
    ) -> None:
        """``feedback_mode="deciding"`` records feedback only at the
        node that produced the wrong answer (the literal Sec. IV-D
        flow); ``"path"`` lets every node that handled the escalated
        query record its own mistake too — no extra communication, and
        the behaviour that makes inference migrate to the edge over
        time (Fig. 8c)."""
        if feedback_mode not in {"deciding", "path"}:
            raise ValueError(
                f"feedback_mode must be 'deciding' or 'path', got {feedback_mode!r}"
            )
        self.federation = federation
        self.learner = learner or OnlineLearner(federation)
        self.inference = inference or HierarchicalInference(federation)
        self.feedback_mode = feedback_mode

    # ------------------------------------------------------------------
    def _snapshot(
        self,
        step: int,
        samples_seen: int,
        feedback_events: int,
        test_x: np.ndarray,
        test_y: np.ndarray,
        messages: List[Message],
    ) -> OnlineStepMetrics:
        hierarchy = self.federation.hierarchy
        encodings = self.federation.encode_all(test_x)
        acc: Dict[int, list[float]] = {}
        conf: Dict[int, list[float]] = {}
        for node_id, enc in encodings.items():
            level = hierarchy.nodes[node_id].level
            pred = self.federation.classifiers[node_id].predict(enc)
            acc.setdefault(level, []).append(float(np.mean(pred.labels == test_y)))
            conf.setdefault(level, []).append(float(np.mean(pred.top_confidence)))
        outcome = self.inference.run(test_x)
        return OnlineStepMetrics(
            step=step,
            samples_seen=samples_seen,
            accuracy_by_level={l: float(np.mean(v)) for l, v in sorted(acc.items())},
            mean_confidence_by_level={
                l: float(np.mean(v)) for l, v in sorted(conf.items())
            },
            inference_frequency_by_level=outcome.level_frequency(hierarchy.depth),
            feedback_events=feedback_events,
            messages=messages,
        )

    def run(
        self,
        stream_x: np.ndarray,
        stream_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
        n_steps: int = 10,
        chunk_size: int = 256,
    ) -> List[OnlineStepMetrics]:
        """Consume the stream in ``n_steps`` segments, snapshotting each.

        Returns ``n_steps + 1`` metric records; index 0 is the state of
        the offline-trained system before any feedback.
        """
        sx = check_matrix("stream_x", stream_x, cols=self.federation.partition.n_features)
        sy = check_labels("stream_y", stream_y, n_classes=self.federation.n_classes)
        tx = check_matrix("test_x", test_x, cols=self.federation.partition.n_features)
        ty = check_labels("test_y", test_y, n_classes=self.federation.n_classes)
        if sx.shape[0] != sy.shape[0]:
            raise ValueError("stream features/labels length mismatch")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

        metrics = [self._snapshot(0, 0, 0, tx, ty, [])]
        bounds = np.linspace(0, sx.shape[0], n_steps + 1).astype(int)
        seen = 0
        for step in range(1, n_steps + 1):
            lo, hi = bounds[step - 1], bounds[step]
            feedback = 0
            for start in range(lo, hi, chunk_size):
                stop = min(start + chunk_size, hi)
                feedback += self._process_chunk(sx[start:stop], sy[start:stop])
            seen += hi - lo
            messages = self.learner.propagate()
            metrics.append(self._snapshot(step, seen, feedback, tx, ty, messages))
        return metrics

    def _process_chunk(self, chunk_x: np.ndarray, chunk_y: np.ndarray) -> int:
        """Classify a chunk, recording negative feedback for mistakes.

        When the final (possibly escalated) answer is flagged wrong,
        every node that *handled* the query on its way up — from the
        first decision-capable level to the deciding node — checks its
        own prediction and records the query in its residuals if it was
        also wrong. The query hypervector is already present at those
        nodes (they encoded/escalated it), so this costs no extra
        communication, and it is what lets low-level models catch up
        and inference migrate toward the edge (Fig. 8c).
        """
        if chunk_x.shape[0] == 0:
            return 0
        federation = self.federation
        hierarchy = federation.hierarchy
        encodings = federation.encode_all(chunk_x)
        outcome = self.inference.run(chunk_x, encodings=encodings)
        wrong = np.flatnonzero(outcome.labels != chunk_y)
        if wrong.size == 0:
            return 0
        if self.feedback_mode == "deciding":
            for i in wrong:
                node_id = int(outcome.deciding_node[i])
                self.learner.record_feedback(
                    node_id,
                    encodings[node_id][i].astype(np.float64),
                    predicted_class=int(outcome.labels[i]),
                    true_class=int(chunk_y[i]),
                )
            return int(wrong.size)
        # Path mode: per-node predicted labels for the whole chunk
        # (reuses the hierarchical encodings).
        node_labels = {
            node_id: federation.classifiers[node_id].predict_labels(enc)
            for node_id, enc in encodings.items()
        }
        min_level = getattr(self.inference, "min_level", 1)
        for i in wrong:
            deciding = int(outcome.deciding_node[i])
            deciding_level = hierarchy.nodes[deciding].level
            # Handlers: the nodes on the query's escalation path, i.e.
            # the start leaf's ancestors up to the deciding node, that
            # are allowed to decide.
            path = hierarchy.path_to_root(int(outcome.start_leaf[i]))
            handled = [
                nid for nid in path
                if min_level <= hierarchy.nodes[nid].level <= deciding_level
            ]
            true = int(chunk_y[i])
            for node_id in handled:
                pred = int(node_labels[node_id][i])
                if pred == true:
                    continue
                self.learner.record_feedback(
                    node_id,
                    encodings[node_id][i].astype(np.float64),
                    predicted_class=pred,
                    true_class=true,
                )
        return int(wrong.size)
