"""Hierarchical (federated) EdgeHD training — Sections IV-A and IV-B.

The :class:`EdgeHDFederation` owns one learning artifact per hierarchy
node:

* **end nodes** — an encoder over the node's feature subset with
  dimensionality ``d_i = D * n_i / n``, plus an
  :class:`~repro.core.classifier.HDClassifier`;
* **gateway / central nodes** — a ternary holographic projection from
  the concatenation of the children's dimensions to the node's own
  dimension, plus a classifier.

Offline training proceeds bottom-up:

1. every end node encodes its local samples, builds its initial class
   hypervectors and retrains locally;
2. each node ships its ``K`` class hypervectors and its *batch
   hypervectors* (size-``B`` bundles of same-class encoded samples,
   Sec. IV-B) to its parent;
3. each internal node hierarchically encodes the received class
   hypervectors into its initial model and retrains on the
   hierarchically-encoded batch hypervectors.

Because all end nodes observe the *same events* through different
sensors (heterogeneous features), sample ``j`` on node 1 and node 2
refer to the same observation; batches are formed over global sample
indices so children's batch hypervectors align.

Every transfer is recorded as a :class:`~repro.network.message.Message`
so the network simulator can replay the run over any medium.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np

import repro.obs as obs
from repro.config import DEFAULT_CONFIG, EdgeHDConfig
from repro.core.classifier import HDClassifier
from repro.core.encoding import Encoder, make_encoder
from repro.core.hypervector import sign_binarize
from repro.core.model import class_model_bytes, hypervector_bytes
from repro.core.projection import TernaryProjection, concatenate_hypervectors
from repro.data.partition import FeaturePartition
from repro.hierarchy.topology import Hierarchy, Node
from repro.network.message import Message, MessageKind
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_labels, check_matrix

__all__ = [
    "EdgeHDFederation",
    "FederatedTrainingReport",
    "LazyEncodings",
    "batch_groups",
]

logger = logging.getLogger(__name__)


def batch_groups(labels: np.ndarray, batch_size: int) -> list[tuple[int, np.ndarray]]:
    """Split sample indices into per-class batches of ``batch_size``.

    Returns ``(class, indices)`` pairs covering every sample exactly
    once; the final batch of a class may be smaller. The grouping is a
    pure function of the labels, so every node derives identical
    batches without coordination.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    y = np.asarray(labels)
    groups: list[tuple[int, np.ndarray]] = []
    # Sorted labels; a bare np.unique imports numpy.ma (1.25 MiB, 8 ms).
    for cls in np.flatnonzero(np.bincount(y)):
        idx = np.flatnonzero(y == cls)
        for start in range(0, idx.size, batch_size):
            groups.append((int(cls), idx[start : start + batch_size]))
    return groups


@dataclass
class FederatedTrainingReport:
    """Outcome of one offline federated training pass."""

    messages: List[Message] = field(default_factory=list)
    node_train_accuracy: Dict[int, float] = field(default_factory=dict)
    n_batches: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(m.payload_bytes for m in self.messages)

    def bytes_by_kind(self) -> Dict[MessageKind, int]:
        out: Dict[MessageKind, int] = {}
        for m in self.messages:
            out[m.kind] = out.get(m.kind, 0) + m.payload_bytes
        return out


class EdgeHDFederation:
    """Per-node EdgeHD artifacts plus the distributed training logic.

    Parameters
    ----------
    hierarchy:
        A finalized :class:`~repro.hierarchy.topology.Hierarchy`.
    partition:
        Feature-column assignment for the end nodes; leaf count must
        match the hierarchy's.
    n_classes:
        Number of classes ``K``.
    config:
        EdgeHD parameters (dimension ``D``, batch size ``B``, ...).
    holographic:
        When False, internal nodes aggregate by plain concatenation
        with no ternary projection — the non-holographic ablation of
        Fig. 12.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        partition: FeaturePartition,
        n_classes: int,
        config: EdgeHDConfig = DEFAULT_CONFIG,
        holographic: bool = True,
    ) -> None:
        leaves = hierarchy.leaves()
        if partition.n_nodes != len(leaves):
            raise ValueError(
                f"partition has {partition.n_nodes} slices for "
                f"{len(leaves)} end nodes"
            )
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        self.hierarchy = hierarchy
        self.partition = partition
        self.n_classes = int(n_classes)
        self.config = config
        self.holographic = bool(holographic)

        hierarchy.allocate_dimensions(config.dimension, partition.feature_counts())
        self.encoders: Dict[int, Encoder] = {}
        self.projections: Dict[int, Optional[TernaryProjection]] = {}
        self.classifiers: Dict[int, HDClassifier] = {}
        for node_id in hierarchy.preorder():
            self.rebuild_node(node_id)

    def spec(self) -> dict:
        """JSON-safe description of everything this federation is built from.

        Structure, feature slices, config, class count and the
        holographic switch — encoders, projections and (untrained)
        classifiers regenerate from these alone, which is what a
        checkpoint, a cluster worker and the control plane's
        fingerprint each rely on. :meth:`from_spec` is the inverse.
        """
        return {
            "n_classes": self.n_classes,
            "holographic": self.holographic,
            "config": asdict(self.config),
            "hierarchy": self.hierarchy.spec(),
            "partition": [list(s) for s in self.partition.slices],
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "EdgeHDFederation":
        """Rebuild the (untrained) federation :meth:`spec` describes.

        Reads the five :meth:`spec` keys and ignores any others, so a
        checkpoint's metadata block can be passed as is.
        """
        partition = FeaturePartition(
            slices=tuple(tuple(int(c) for c in s) for s in spec["partition"])
        )
        partition.validate()
        return cls(
            Hierarchy.from_spec(spec["hierarchy"]),
            partition,
            int(spec["n_classes"]),
            EdgeHDConfig(**spec["config"]),
            holographic=bool(spec["holographic"]),
        )

    def node_seed(self, node_id: int) -> int:
        """Stable per-node RNG seed, keyed by node id.

        Seeds come from a single spawn stream, so seed ``i`` depends
        only on ``config.seed`` and ``i`` — never on how many nodes
        currently exist. Every builder assigns ids in preorder, which
        makes this bit-identical to the historical traversal-order
        indexing; under runtime growth a grafted node draws the same
        seed a build-time construction of the grown tree would give it.
        """
        if node_id < 0:
            raise KeyError(f"unknown node {node_id}")
        count = max(self.hierarchy.id_bound, node_id + 1)
        return int(spawn_seeds(self.config.seed, count, tag="federation")[node_id])

    def rebuild_node(self, node_id: int) -> None:
        """(Re)create one node's encoder/projection and a fresh classifier.

        Called for every node at construction, and by the control plane
        when a topology mutation changes a node's feature slice,
        dimension or child set. Artifacts depend only on the structure,
        the config and the node-id-keyed seed, so a rebuilt node is
        bit-identical to one created at construction time. For the same
        reason a projection whose dimensions and zero fraction did not
        change shares the matrix it replaces (``TernaryProjection`` draws
        a seed's matrix once while it is alive).
        """
        node = self.hierarchy.nodes[node_id]
        node_seed = self.node_seed(node_id)
        if node.is_leaf:
            self.projections.pop(node_id, None)
            n_local = len(self.partition.columns(node.leaf_index))
            self.encoders[node_id] = make_encoder(
                self.config.encoder,
                n_local,
                node.dimension,
                sparsity=self.config.sparsity,
                seed=node_seed,
            )
        else:
            self.encoders.pop(node_id, None)
            in_dim = sum(
                self.hierarchy.nodes[c].dimension for c in node.children
            )
            if self.holographic:
                zero_fraction = max(
                    0.0, 1.0 - self.config.projection_nonzeros / in_dim
                )
                self.projections[node_id] = TernaryProjection(
                    in_dim, node.dimension, zero_fraction=zero_fraction,
                    seed=node_seed,
                )
            else:
                self.projections[node_id] = None
        self.classifiers[node_id] = HDClassifier(self.n_classes, node.dimension)

    def discard_node(self, node_id: int) -> None:
        """Drop every artifact of a drained node (id is never reused)."""
        self.encoders.pop(node_id, None)
        self.projections.pop(node_id, None)
        self.classifiers.pop(node_id, None)

    # ------------------------------------------------------------------
    # hierarchical encoding (Sec. IV-A)
    # ------------------------------------------------------------------
    def encode_leaf(self, leaf_id: int, features: np.ndarray) -> np.ndarray:
        """Encode global feature rows at one end node (its columns only)."""
        node = self.hierarchy.nodes[leaf_id]
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not an end node")
        return self.encoders[leaf_id].encode(
            self.partition.restrict(features, node.leaf_index)
        )

    def combine_children(
        self, node_id: int, child_encodings: list[np.ndarray]
    ) -> np.ndarray:
        """Hierarchically encode already-encoded children hypervectors:
        the real projection of their concatenation (the concatenation
        itself, as float64, without a projection)."""
        node = self.hierarchy.nodes[node_id]
        if node.is_leaf:
            raise ValueError(f"node {node_id} has no children to combine")
        if len(child_encodings) != len(node.children):
            raise ValueError(
                f"node {node_id} expects {len(node.children)} child "
                f"encodings, got {len(child_encodings)}"
            )
        concat = concatenate_hypervectors(child_encodings)
        projection = self.projections[node_id]
        if projection is None:
            return np.asarray(concat, dtype=np.float64)
        return projection.project(concat)

    def encode_all(self, features: np.ndarray) -> Dict[int, np.ndarray]:
        """What every node classifies ``features`` with.

        Leaves encode their feature slice into bipolar hypervectors.
        Each internal node receives its children's **forwarded**
        encodings — bipolar hypervectors, which is what actually
        travels over the network — concatenates and projects them. The
        projection happens locally *after* receipt, so the node keeps
        the raw projection values (more faithful, zero extra
        communication); only the copy it forwards to its parent is
        binarized again (:meth:`encode_at` with ``view="forward"``).
        """
        mat = check_matrix("features", features, cols=self.partition.n_features)
        lazy = LazyEncodings(self, mat)
        return {nid: lazy.own(nid) for nid in self.hierarchy.postorder()}

    def encode_lazy(
        self,
        features: np.ndarray,
        prefill: Optional[Dict[int, np.ndarray]] = None,
    ) -> "LazyEncodings":
        """Demand-driven :meth:`encode_all`: nodes encode on first access.

        Returns a :class:`LazyEncodings` view over ``features`` that
        computes a node's encoding (and, transitively, its subtree's
        forwarded encodings) only for the rows it is looked up for.
        Confidence-gated escalation visits few internal nodes on most
        batches, so callers that walk the hierarchy — inference, the
        serving runtime and cluster workers — skip the bulk of the
        projection work while producing bit-identical encodings for the
        nodes they do touch. ``prefill`` seeds the cache with
        already-computed whole-batch "own" encodings.
        """
        mat = check_matrix("features", features, cols=self.partition.n_features)
        return LazyEncodings(self, mat, prefill=prefill)

    def encode_at(
        self, node_id: int, features: np.ndarray, *, view: str = "own"
    ) -> np.ndarray:
        """Hierarchical encoding at a single node (computes its subtree).

        ``view`` is keyword-only: ``"own"`` (default) is what the node
        classifies with, as in :meth:`encode_all` (raw projection values
        at internal nodes); ``"forward"`` is what it transmits to its
        parent, always bipolar int8. Use ``"forward"`` when modelling
        the wire (packing, corruption, bandwidth).
        """
        if node_id not in self.hierarchy.nodes:
            raise KeyError(f"unknown node {node_id}")
        mat = check_matrix("features", features, cols=self.partition.n_features)
        if view not in {"own", "forward"}:
            raise ValueError(f"view must be 'own' or 'forward', got {view!r}")
        lazy = LazyEncodings(self, mat)
        return lazy.own(node_id) if view == "own" else lazy.forward(node_id)

    # ------------------------------------------------------------------
    # offline federated training (Sec. IV-B)
    # ------------------------------------------------------------------
    def training_inputs(
        self, train_x: np.ndarray, train_y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, np.ndarray]]]:
        """Validated ``(features, labels, batch groups)`` of a training set."""
        mat = check_matrix("train_x", train_x, cols=self.partition.n_features)
        y = check_labels("train_y", train_y, n_classes=self.n_classes)
        if mat.shape[0] != y.shape[0]:
            raise ValueError(f"{mat.shape[0]} samples but {y.shape[0]} labels")
        return mat, y, batch_groups(y, self.config.batch_size)

    def training_set(
        self,
        node_id: int,
        mat: np.ndarray,
        y: np.ndarray,
        groups: list[tuple[int, np.ndarray]],
        child_batches: list[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What one node retrains on, and the batch hypervectors it forwards.

        Returns ``(samples, labels, forwarded)``. An end node retrains
        on its encoded samples and bundles them per batch group; an
        internal node retrains on the hierarchical encoding of its
        children's forwarded batches (raw projection values — local to
        the node), one row per group. Either way the copy that travels
        is binarized — bipolar int8, one bit per dimension on the wire,
        exactly like query hypervectors. Touches no model state.
        """
        node = self.hierarchy.nodes[node_id]
        if node.is_leaf:
            samples, labels = self.encode_leaf(node_id, mat), y
            raw = np.stack([samples[idx].sum(axis=0) for _, idx in groups])
        else:
            samples = raw = self.combine_children(node_id, child_batches)
            labels = np.array([cls for cls, _ in groups], dtype=np.int64)
        return samples, labels, sign_binarize(raw)

    def train_node(
        self,
        node_id: int,
        mat: np.ndarray,
        y: np.ndarray,
        groups: list[tuple[int, np.ndarray]],
        epochs: int,
        child_models: list[np.ndarray],
        child_batches: list[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """The training step of Sec. IV-B at one node.

        ``child_models`` / ``child_batches`` are the children's class
        models and forwarded batch hypervectors *as this node received
        them*, in child order (empty at an end node). The initial model
        is the bundle of the local samples at an end node, and elsewhere
        the hierarchical encoding of the children's class hypervectors
        (kept real-valued: a linear aggregate the retraining refines).
        Returns what the node ships in turn — ``(class model, forwarded
        batch hypervectors)`` — plus its training accuracy.

        Charges no traffic and records nothing: every driver
        (:meth:`fit_offline`, the control plane's refit, the wire-level
        deployment) trains a node through this one function and differs
        only in how the artifacts travel.
        """
        clf = self.classifiers[node_id]
        samples, labels, forwarded = self.training_set(
            node_id, mat, y, groups, child_batches
        )
        if self.hierarchy.nodes[node_id].is_leaf:
            clf.fit_initial(samples, labels)
        else:
            clf.set_model(self.combine_children(node_id, child_models))
        if epochs > 0:
            clf.retrain(
                samples, labels, epochs=epochs,
                learning_rate=self.config.retrain_learning_rate,
            )
        accuracy = clf.accuracy(samples, labels)
        return clf.class_hypervectors.copy(), forwarded, accuracy

    def _charge_upward(
        self, node_id: int, n_batches: int, report: FederatedTrainingReport
    ) -> None:
        """Analytic cost of one node's two upward transfers."""
        node = self.hierarchy.nodes[node_id]
        if node.parent is None:
            return
        payloads = (
            (MessageKind.CLASS_MODEL,
             class_model_bytes(self.n_classes, node.dimension)),
            (MessageKind.BATCH_HYPERVECTORS,
             n_batches * hypervector_bytes(node.dimension, bipolar=True)),
        )
        for sequence, (kind, payload_bytes) in enumerate(payloads):
            report.messages.append(
                Message(
                    source=node_id,
                    destination=node.parent,
                    kind=kind,
                    payload_bytes=payload_bytes,
                    sequence=sequence,
                )
            )
            obs.incr(f"hierarchy.upward.bytes.{kind.value}", payload_bytes)

    def train_nodes(
        self,
        order: Iterable[int],
        mat: np.ndarray,
        y: np.ndarray,
        groups: list[tuple[int, np.ndarray]],
        epochs: int,
        class_models: Dict[int, np.ndarray],
        batch_hvs: Dict[int, np.ndarray],
    ) -> FederatedTrainingReport:
        """In-memory driver: :meth:`train_node` over ``order``.

        ``order`` lists children before parents. Each node reads its
        children's artifacts from the two dicts and leaves its own
        there, so a child outside ``order`` contributes whatever the
        caller put in — how the control plane retrains exactly the
        nodes a topology mutation dirtied, bit-identical to a full pass
        over the mutated tree, without touching the clean subtrees.
        """
        report = FederatedTrainingReport(n_batches=len(groups))
        for node_id in order:
            children = self.hierarchy.nodes[node_id].children
            model, batches, accuracy = self.train_node(
                node_id, mat, y, groups, epochs,
                [class_models[c] for c in children],
                [batch_hvs[c] for c in children],
            )
            class_models[node_id], batch_hvs[node_id] = model, batches
            report.node_train_accuracy[node_id] = accuracy
            self._charge_upward(node_id, len(groups), report)
        return report

    def fit_offline(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        retrain_epochs: Optional[int] = None,
    ) -> FederatedTrainingReport:
        """Run the full bottom-up training pass.

        Returns a report containing per-node training accuracy and the
        complete list of network messages the run generated.
        """
        mat, y, groups = self.training_inputs(train_x, train_y)
        epochs = self.config.retrain_epochs if retrain_epochs is None else retrain_epochs
        with obs.span(
            "fit_offline",
            nodes=len(self.hierarchy.nodes),
            n_samples=mat.shape[0],
            n_batches=len(groups),
        ):
            report = self.train_nodes(
                self.hierarchy.postorder(), mat, y, groups, epochs, {}, {}
            )
        obs.incr("hierarchy.train.passes")
        obs.incr("hierarchy.train.bytes", report.total_bytes)
        logger.info(
            "fit_offline: %d nodes, %d batches, %.1f KiB upward traffic",
            len(self.hierarchy.nodes), report.n_batches,
            report.total_bytes / 1024,
        )
        return report

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def accuracy_at(self, node_id: int, features: np.ndarray, labels: np.ndarray) -> float:
        """Test accuracy using the model stored at ``node_id``."""
        encoded = self.encode_at(node_id, features)
        return self.classifiers[node_id].accuracy(encoded, labels)

    def accuracy_by_level(
        self, features: np.ndarray, labels: np.ndarray
    ) -> Dict[int, float]:
        """Mean test accuracy of the nodes at each hierarchy level."""
        encodings = self.encode_all(features)
        y = check_labels("labels", labels, n_classes=self.n_classes)
        by_level: Dict[int, list[float]] = {}
        for node_id, encoded in encodings.items():
            level = self.hierarchy.nodes[node_id].level
            acc = self.classifiers[node_id].accuracy(encoded, y)
            by_level.setdefault(level, []).append(acc)
        return {level: float(np.mean(accs)) for level, accs in sorted(by_level.items())}

    @property
    def root_id(self) -> int:
        assert self.hierarchy.root_id is not None
        return self.hierarchy.root_id


class LazyEncodings:
    """Memoized per-node hierarchical encodings of one feature batch.

    The one implementation of the hierarchical-encoding recurrence —
    leaf slice encoding, children forward concatenation, ternary
    projection (:meth:`own_rows`) — under ``encode_all``, ``encode_at``,
    the offline walk and the serving runtime. What a node forwards is
    kept per row, in one buffer per node (:meth:`carry`), so a row
    subset encodes only the (row, node) pairs no earlier call encoded
    or :meth:`carry` seeded: a parent projects what its children
    forwarded (Sec. IV-A), each pair at most once. A row's
    encoding depends only on that row and the node's subtree, so the
    values are the same whichever rows and nodes are touched, in any
    order.
    """

    def __init__(
        self,
        federation: EdgeHDFederation,
        mat: np.ndarray,
        prefill: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        self._federation = federation
        self._mat = mat
        self._all = np.arange(mat.shape[0])
        #: whole-batch "own" views: prefilled, or looked up by own().
        self._own: Dict[int, np.ndarray] = {}
        #: per node, one (n_rows, width) buffer of forwards, filled in
        #: the order rows arrive; each row's index into it (-1 until the
        #: row is encoded or carried); how many of its rows are filled.
        self._forward: Dict[int, np.ndarray] = {}
        self._slot: Dict[int, np.ndarray] = {}
        self._filled: Dict[int, int] = {}
        for node_id, encoded in (prefill or {}).items():
            self._node(node_id)
            self._own[node_id] = encoded
            self._keep(node_id, self._all, encoded)

    def own(self, node_id: int) -> np.ndarray:
        """What ``node_id`` classifies with (raw values at internal nodes)."""
        cached = self._own.get(node_id)
        if cached is None:
            cached = self._own[node_id] = self.own_rows(node_id, self._all)
        return cached

    def forward(self, node_id: int) -> np.ndarray:
        """What ``node_id`` transmits upward: bipolar int8."""
        return self.forward_rows(node_id, self._all)

    def own_rows(self, node_id: int, rows: np.ndarray) -> np.ndarray:
        """:meth:`own` for the batch rows ``rows`` (distinct indices); a
        node below the root also keeps what it forwards for them."""
        cached = self._own.get(node_id)
        if cached is not None:
            return cached[rows]
        node = self._node(node_id)
        if node.is_leaf:
            return self.forward_rows(node_id, rows)
        own = self._federation.combine_children(
            node_id,
            [self.forward_rows(child, rows) for child in node.children],
        )
        if node.parent is not None:
            self._keep(node_id, rows, own)
        return own

    def forward_rows(self, node_id: int, rows: np.ndarray) -> np.ndarray:
        """:meth:`forward` for the batch rows ``rows`` (distinct indices)."""
        slot = self._slot.get(node_id)
        # a full buffer misses no row
        if slot is None or self._filled[node_id] < slot.size and (
            np.count_nonzero(slot[rows] < 0)
        ):
            missing = rows if slot is None else rows[slot[rows] < 0]
            node = self._node(node_id)
            if node.is_leaf:
                self.carry(
                    node_id, missing,
                    self._federation.encode_leaf(node_id, self._mat[missing]),
                )
            elif node.parent is None:
                self._keep(node_id, missing, self.own_rows(node_id, missing))
            else:  # below the root, own_rows keeps the forward itself
                self.own_rows(node_id, missing)
            slot = self._slot[node_id]
        return self._forward[node_id][rows if slot is self._all else slot[rows]]

    def carry(
        self, node_id: int, rows: np.ndarray, forwarded: np.ndarray
    ) -> None:
        """Seed what ``node_id`` forwards for ``rows`` (e.g. the copies
        an escalation brought up); rows already held keep their value.

        The first carry allocates the node's (n_rows, width) buffer, or
        keeps ``forwarded`` itself when ``rows`` is every row in order.
        Rows fill the buffer in arrival order: chunked carries never
        copy what is held, and only held rows' pages are touched.
        """
        slot = self._slot.get(node_id)
        if slot is None:
            self._node(node_id)
            if rows.size == self._all.size and not np.count_nonzero(
                rows - self._all
            ):
                self._slot[node_id], self._forward[node_id] = self._all, forwarded
                self._filled[node_id] = rows.size
                return
            slot = self._slot[node_id] = np.full(self._all.size, -1)
            self._forward[node_id] = np.empty(
                (self._all.size, *forwarded.shape[1:]), dtype=forwarded.dtype
            )
            self._filled[node_id] = 0
        fresh = slot[rows] < 0
        start = self._filled[node_id]
        stop = self._filled[node_id] = start + int(np.count_nonzero(fresh))
        slot[rows[fresh]] = np.arange(start, stop)
        self._forward[node_id][start:stop] = forwarded[fresh]

    @property
    def n_materialized(self) -> int:
        """How many nodes have been encoded so far (for tests/telemetry)."""
        return len(self._slot.keys() | self._own.keys())

    def _node(self, node_id: int) -> Node:
        node = self._federation.hierarchy.nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown node {node_id}")
        return node

    def _keep(self, node_id: int, rows: np.ndarray, own: np.ndarray) -> None:
        """Keep what a node forwards: a leaf its own view, an internal
        node the binarized copy."""
        if not self._node(node_id).is_leaf:
            own = sign_binarize(own)
        self.carry(node_id, rows, own)
