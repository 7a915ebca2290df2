"""Elastic topology control plane: runtime join / drain / replacement.

The paper constructs its hierarchy once and assumes it static; a real
IoT fleet churns. This module adds the lifecycle layer over
:class:`~repro.hierarchy.federation.EdgeHDFederation` that makes churn
a first-class, *reproducible* event:

* **join** — a new end node is admitted at runtime. It takes over a
  feature range from donor leaves, trains locally, and its class model
  is hierarchically re-encoded into its ancestors' class hypervectors.
  Only the new/donor leaves and their ancestor paths retrain — the
  additive HD model structure makes the merge cheap (Ge & Parhi) — and
  because per-node seeds are keyed by node id, the joined node is
  bit-identical to one constructed at build time from the same grown
  topology.
* **drain** — an end node leaves; its feature columns re-partition onto
  sibling leaves, emptied gateways cascade away, and the dirtied
  ancestors re-encode. Node ids are never reused.
* **checkpoint / restore** — full topology state (structure, partition,
  config, models, residuals, propagation counter, forwarded batches)
  round-trips through the format in :mod:`repro.hierarchy.checkpoint`.
* **replacement** — crash → heartbeat detection over
  :class:`~repro.serve.registry.ReplicaRegistry` leases → respawn →
  catch-up from the last checkpoint plus replay of the feedback journal,
  which holds the events since that checkpoint. The recovered node ends
  bit-identical to one that never crashed, and
  :meth:`TopologyController.fingerprint` witnesses the whole run.

Every lifecycle event lands in :attr:`TopologyController.transitions`,
which the fingerprint hashes, and every checkpoint in ``n_checkpoints``.
Everything is driven by explicit virtual-clock timestamps, so the
entire replacement loop is deterministic under a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.online import ResidualAccumulator
from repro.data.partition import FeaturePartition
from repro.hierarchy.checkpoint import (
    CheckpointError,
    load_topology_state,
    save_topology_state,
    validate_topology_meta,
)
from repro.hierarchy.federation import (
    EdgeHDFederation,
    FederatedTrainingReport,
)
from repro.hierarchy.inference import HierarchicalInference
from repro.hierarchy.online import OnlineLearner
from repro.utils.rng import derive_rng
from repro.utils.validation import check_labels, check_matrix

__all__ = [
    "NodeState",
    "TransitionRecord",
    "FeedbackEvent",
    "JoinResult",
    "DrainResult",
    "TopologyController",
    "ScenarioSpec",
    "ScenarioResult",
    "run_replacement_scenario",
]


class NodeState(str, Enum):
    """Lifecycle state of one hierarchy node under the control plane."""

    ACTIVE = "active"
    JOINING = "joining"
    DRAINING = "draining"
    CRASHED = "crashed"
    RESTORING = "restoring"


@dataclass(frozen=True)
class TransitionRecord:
    """One lifecycle transition, for the audit log and the fingerprint."""

    kind: str
    node_id: int
    detail: Tuple[Tuple[str, str], ...] = ()


@dataclass
class FeedbackEvent:
    """One journaled feedback event (the unit of catch-up replay)."""

    node_id: int
    query_hv: np.ndarray
    predicted_class: int
    true_class: Optional[int]


@dataclass
class JoinResult:
    """Outcome of admitting a new end node."""

    node_id: int
    columns: Tuple[int, ...]
    donors: Tuple[int, ...]
    refit_nodes: Tuple[int, ...]
    report: FederatedTrainingReport


@dataclass
class DrainResult:
    """Outcome of draining an end node."""

    removed_nodes: Tuple[int, ...]
    recipients: Tuple[int, ...]
    refit_nodes: Tuple[int, ...]
    report: FederatedTrainingReport


class TopologyController:
    """Lifecycle state machine over a federation and its online learner.

    Owns the training data (mutations retrain only the dirtied nodes
    against it), the per-node lifecycle states, the feedback journal
    that crash recovery replays, and the heartbeat leases that detect
    silent nodes. All clocks are explicit ``now`` floats — virtual
    time — so every flow is deterministic and unit-testable.
    """

    def __init__(
        self,
        federation: EdgeHDFederation,
        train_x: np.ndarray,
        train_y: np.ndarray,
        *,
        learner: Optional[OnlineLearner] = None,
        lease_timeout_s: float = 1.0,
        now: float = 0.0,
    ) -> None:
        self.federation = federation
        self._mat, self._y, self._groups = federation.training_inputs(
            train_x, train_y
        )
        #: names the training set a checkpoint's forwards were encoded from.
        digest = hashlib.sha256(np.ascontiguousarray(self._mat))
        digest.update(self._y)
        self._training_digest = digest.hexdigest()
        if learner is not None and learner.federation is not federation:
            raise ValueError("learner is attached to a different federation")
        self.learner = learner
        self.states: Dict[int, NodeState] = {
            nid: NodeState.ACTIVE for nid in federation.hierarchy.nodes
        }
        self.transitions: List[TransitionRecord] = []
        #: feedback since the latest checkpoint: a write-ahead log whose
        #: events before a completed checkpoint's mark are dropped.
        self.journal: List[FeedbackEvent] = []
        #: how many events were dropped from the journal's head.
        self.journal_start = 0
        self.n_checkpoints = 0
        # Imported lazily: repro.serve imports repro.hierarchy, so a
        # module-level import here would be circular at package init.
        from repro.serve.registry import ReplicaRegistry

        #: one heartbeat lease per node; a node whose lease lapses past
        #: ``lease_timeout_s`` is evicted by one sweep, exactly once.
        self.leases = ReplicaRegistry(heartbeat_timeout_s=lease_timeout_s)
        for nid in sorted(federation.hierarchy.nodes):
            self.leases.register(nid, now)
        #: per-node forwarded batch hypervectors — the training artifact
        #: a parent needs to re-encode when a child changes. Pure
        #: function of (training data, structure); cached so mutations
        #: touch only dirty subtrees, and checkpointed so restore need
        #: not recompute it. The root forwards nothing and is not kept.
        self._batch_hvs: Dict[int, np.ndarray] = {}
        self._trained = False

    # ------------------------------------------------------------------
    # training / artifacts
    # ------------------------------------------------------------------
    def fit(self, retrain_epochs: Optional[int] = None) -> FederatedTrainingReport:
        """Full offline training pass; keeps the re-encode artifacts.

        The models are :meth:`EdgeHDFederation.fit_offline`'s, bit for
        bit — both drive the same per-node step over the whole tree.
        """
        self._batch_hvs.clear()
        report = self._train(
            list(self.federation.hierarchy.postorder()), retrain_epochs
        )
        self._trained = True
        return report

    def _train(
        self, order: List[int], epochs: Optional[int]
    ) -> FederatedTrainingReport:
        """Train ``order`` (children first) against the cached artifacts.

        Children outside ``order`` contribute their *current* class
        models and cached batch hypervectors, so a dirty parent
        re-encodes without its clean subtrees recomputing anything.
        """
        fed = self.federation
        epochs = fed.config.retrain_epochs if epochs is None else epochs
        current = {
            nid: clf.class_hypervectors for nid, clf in fed.classifiers.items()
        }
        report = fed.train_nodes(
            order, self._mat, self._y, self._groups, epochs,
            current, self._batch_hvs,
        )
        self._batch_hvs.pop(fed.hierarchy.root_id, None)
        return report

    def _require_trained(self) -> None:
        if not self._trained:
            raise RuntimeError(
                "controller has no trained federation; call fit() first"
            )

    # ------------------------------------------------------------------
    # structural mutations
    # ------------------------------------------------------------------
    def _structure_snapshot(self):
        hierarchy = self.federation.hierarchy
        partition = self.federation.partition
        dims = {nid: n.dimension for nid, n in hierarchy.nodes.items()}
        children = {
            nid: tuple(n.children)
            for nid, n in hierarchy.nodes.items()
            if not n.is_leaf
        }
        slices = {
            nid: partition.slices[n.leaf_index]
            for nid, n in hierarchy.nodes.items()
            if n.is_leaf
        }
        return dims, children, slices

    def _dirty_nodes(self, pre_dims, pre_children, pre_slices) -> List[int]:
        """Postorder list of nodes whose artifacts a mutation invalidated."""
        hierarchy = self.federation.hierarchy
        partition = self.federation.partition
        dirty: set[int] = set()
        order: List[int] = []
        for nid in hierarchy.postorder():
            node = hierarchy.nodes[nid]
            stale = nid not in pre_dims or node.dimension != pre_dims[nid]
            if node.is_leaf:
                stale = stale or partition.slices[node.leaf_index] != pre_slices.get(nid)
            else:
                stale = (
                    stale
                    or tuple(node.children) != pre_children.get(nid)
                    or any(c in dirty for c in node.children)
                )
            if stale:
                dirty.add(nid)
                order.append(nid)
        return order

    def _refit(self, dirty: List[int], epochs: Optional[int]) -> FederatedTrainingReport:
        """Rebuild + retrain exactly the dirty nodes, children-first."""
        for nid in dirty:
            self.federation.rebuild_node(nid)
        return self._train(dirty, epochs)

    def _reset_residuals(self) -> None:
        """Fresh (empty) accumulators sized to the current topology."""
        if self.learner is None:
            return
        fed = self.federation
        self.learner.residuals = {
            nid: ResidualAccumulator(fed.n_classes, node.dimension)
            for nid, node in fed.hierarchy.nodes.items()
        }

    def _flush_residuals(self) -> None:
        """Propagation barrier before a structural mutation.

        Pending residuals live in the *old* topology's node spaces;
        folding them in first means a mutation never discards feedback.
        """
        if self.learner is not None and self.learner.pending_feedback() > 0:
            self.learner.propagate()

    def _record(self, kind: str, node_id: int, **detail: object) -> None:
        self.transitions.append(
            TransitionRecord(
                kind=kind,
                node_id=node_id,
                detail=tuple(
                    (k, str(v)) for k, v in sorted(detail.items())
                ),
            )
        )

    def join(
        self,
        parent_id: int,
        columns: Optional[Sequence[int]] = None,
        *,
        epochs: Optional[int] = None,
        now: float = 0.0,
    ) -> JoinResult:
        """Admit a new end node under ``parent_id`` at runtime.

        ``columns`` names the global feature columns the new node takes
        over (each currently owned by some donor leaf, every donor must
        keep at least one column). When omitted, the richest leaf
        donates the second half of its range. The new leaf trains on
        its slice, donors retrain on their narrowed slices, and the
        ancestor paths re-encode — nothing else recomputes. With no
        pending online state, the grown system is bit-identical to one
        constructed at build time with the same topology and partition.
        """
        self._require_trained()
        fed = self.federation
        hierarchy = fed.hierarchy
        if parent_id not in hierarchy.nodes:
            raise KeyError(f"unknown parent node {parent_id}")
        if hierarchy.nodes[parent_id].is_leaf:
            raise ValueError(
                f"cannot join under end node {parent_id}; the parent must "
                "be a gateway or the central node"
            )
        old_slices = list(fed.partition.slices)
        if columns is None:
            donor_index = max(
                range(len(old_slices)),
                key=lambda i: (len(old_slices[i]), -i),
            )
            donor_cols = list(old_slices[donor_index])
            if len(donor_cols) < 2:
                raise ValueError(
                    "no leaf has a column to spare; pass columns= explicitly"
                )
            keep = (len(donor_cols) + 1) // 2
            moved = donor_cols[keep:]
        else:
            moved = [int(c) for c in columns]
        moved_set = set(moved)
        if not moved_set:
            raise ValueError("the joining node needs at least one column")
        if len(moved_set) != len(moved):
            raise ValueError(f"duplicate columns in {sorted(moved)}")
        owned = {c for s in old_slices for c in s}
        missing = moved_set - owned
        if missing:
            raise ValueError(
                f"columns {sorted(missing)} are not part of the feature space"
            )
        donors: List[int] = []
        new_slices: List[tuple[int, ...]] = []
        leaves_before = hierarchy.leaves()
        for leaf_index, s in enumerate(old_slices):
            remaining = tuple(c for c in s if c not in moved_set)
            if remaining != s:
                if not remaining:
                    raise ValueError(
                        f"join would leave end node "
                        f"{leaves_before[leaf_index]} without columns; "
                        "drain it instead"
                    )
                donors.append(leaves_before[leaf_index])
            new_slices.append(remaining)
        new_slices.append(tuple(sorted(moved)))

        self._flush_residuals()
        pre = self._structure_snapshot()
        new_id = hierarchy.graft_leaf(parent_id)
        self.states[new_id] = NodeState.JOINING
        fed.partition = FeaturePartition(slices=tuple(new_slices))
        fed.partition.validate()
        hierarchy.allocate_dimensions(
            fed.config.dimension, fed.partition.feature_counts()
        )
        dirty = self._dirty_nodes(*pre)
        report = self._refit(dirty, epochs)
        self._reset_residuals()
        self.leases.register(new_id, now)
        self.states[new_id] = NodeState.ACTIVE
        self._record(
            "join", new_id, parent=parent_id, columns=sorted(moved),
            donors=donors, refit=dirty,
        )
        return JoinResult(
            node_id=new_id,
            columns=tuple(sorted(moved)),
            donors=tuple(donors),
            refit_nodes=tuple(dirty),
            report=report,
        )

    def drain(
        self,
        leaf_id: int,
        *,
        epochs: Optional[int] = None,
        now: float = 0.0,
    ) -> DrainResult:
        """Remove an end node, re-partitioning its columns onto siblings.

        The drained leaf's columns go round-robin to the sibling leaves
        under the same parent (any other leaves when no sibling leaf
        exists); gateways left childless cascade away; recipients and
        their ancestor paths re-encode. Node ids are never reused, so a
        later join of the same columns reproduces the original models.
        """
        self._require_trained()
        fed = self.federation
        hierarchy = fed.hierarchy
        node = hierarchy.nodes.get(leaf_id)
        if node is None:
            raise KeyError(f"unknown node {leaf_id}")
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not an end node")
        if self.states.get(leaf_id) is NodeState.CRASHED:
            raise ValueError(
                f"node {leaf_id} is crashed; respawn it before draining"
            )
        leaves_before = hierarchy.leaves()
        if len(leaves_before) <= 1:
            raise ValueError("cannot drain the last end node")
        siblings = [
            c for c in hierarchy.nodes[node.parent].children
            if c != leaf_id and hierarchy.nodes[c].is_leaf
        ]
        recipients = siblings or [l for l in leaves_before if l != leaf_id]
        recipients = sorted(
            recipients, key=lambda l: hierarchy.nodes[l].leaf_index
        )
        pre_slices_by_leaf = {
            l: fed.partition.slices[hierarchy.nodes[l].leaf_index]
            for l in leaves_before
        }
        drained_cols = list(pre_slices_by_leaf[leaf_id])
        grants: Dict[int, List[int]] = {l: [] for l in recipients}
        for i, col in enumerate(drained_cols):
            grants[recipients[i % len(recipients)]].append(col)

        self._flush_residuals()
        self.states[leaf_id] = NodeState.DRAINING
        pre = self._structure_snapshot()
        removed = hierarchy.remove_leaf(leaf_id)
        new_slices: List[tuple[int, ...]] = [()] * len(hierarchy.leaves())
        for l in hierarchy.leaves():
            cols = pre_slices_by_leaf[l] + tuple(grants.get(l, ()))
            new_slices[hierarchy.nodes[l].leaf_index] = cols
        fed.partition = FeaturePartition(slices=tuple(new_slices))
        fed.partition.validate()
        hierarchy.allocate_dimensions(
            fed.config.dimension, fed.partition.feature_counts()
        )
        dirty = self._dirty_nodes(*pre)
        report = self._refit(dirty, epochs)
        for rid in removed:
            fed.discard_node(rid)
            self._batch_hvs.pop(rid, None)
            self.states.pop(rid, None)
            self.leases.deregister(rid)
        self._reset_residuals()
        self._record(
            "drain", leaf_id, removed=removed,
            recipients=recipients, refit=dirty,
        )
        return DrainResult(
            removed_nodes=tuple(removed),
            recipients=tuple(recipients),
            refit_nodes=tuple(dirty),
            report=report,
        )

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    @property
    def journal_seq(self) -> int:
        """Feedback events journaled since construction, dropped ones too."""
        return self.journal_start + len(self.journal)

    def checkpoint(self, path: Union[str, Path]) -> None:
        """Save the full topology state including the journal mark and
        the forwarded batch hypervectors.

        The file is the new recovery point, so once it is written the
        journal drops every event before the mark. A save that raises
        leaves the journal whole: the previous file is still the one a
        respawn catches up from.
        """
        self._require_trained()
        mark = self.journal_seq
        save_topology_state(
            self.federation,
            path,
            learner=self.learner,
            node_states={
                nid: state.value for nid, state in self.states.items()
            },
            journal_seq=mark,
            forwards=self._batch_hvs,
            training_digest=self._training_digest,
        )
        self.journal.clear()
        self.journal_start = mark
        self.n_checkpoints += 1

    @classmethod
    def restore(
        cls,
        path: Union[str, Path],
        train_x: np.ndarray,
        train_y: np.ndarray,
        *,
        lease_timeout_s: float = 1.0,
        now: float = 0.0,
    ) -> "TopologyController":
        """Reconstruct a controller (federation + learner) from a file.

        The file's forwards are unpacked, not re-encoded: a file without
        them, or from another training set, raises :class:`CheckpointError`.
        Its journal starts empty at the file's mark, as the live one's did.
        """
        ckpt = load_topology_state(path)
        assert ckpt.federation is not None
        controller = cls(
            ckpt.federation, train_x, train_y, learner=ckpt.build_learner(),
            lease_timeout_s=lease_timeout_s, now=now,
        )
        saved, given = ckpt.meta.get("training_digest"), controller._training_digest
        if saved != given:
            raise CheckpointError(
                f"{path}: forwards of training set {saved} (None: saved "
                f"without forwards), but restore was given training set {given}"
            )
        controller._batch_hvs.update(ckpt.unpack_forwards())
        for nid, state in ckpt.node_states.items():
            controller.states[nid] = NodeState(state)
        controller.journal_start = ckpt.journal_seq
        controller._trained = True
        return controller

    # ------------------------------------------------------------------
    # online feedback journal
    # ------------------------------------------------------------------
    def record_feedback(
        self,
        node_id: int,
        query_hv: np.ndarray,
        predicted_class: int,
        true_class: Optional[int] = None,
    ) -> bool:
        """Journal one feedback event and apply it if the node is up.

        Every event is journaled, as a float64 copy of the query, until
        the next :meth:`checkpoint` covers it. Feedback for a crashed
        node is journaled but not applied — the gateway buffers it —
        and :meth:`respawn` replays it during catch-up. Returns True
        when the event was applied live. A malformed event raises
        before it is journaled: replay must not.
        """
        if self.learner is None:
            raise RuntimeError("controller has no online learner attached")
        if node_id not in self.federation.hierarchy.nodes:
            raise KeyError(f"unknown node {node_id}")
        self.learner.residuals[node_id].check(
            query_hv, predicted_class, true_class
        )
        event = FeedbackEvent(
            node_id=node_id,
            query_hv=np.asarray(query_hv, dtype=np.float64).copy(),
            predicted_class=int(predicted_class),
            true_class=None if true_class is None else int(true_class),
        )
        self.journal.append(event)
        if self.states.get(node_id) is NodeState.CRASHED:
            return False
        self.learner.record_feedback(
            node_id, event.query_hv, event.predicted_class, event.true_class
        )
        return True

    # ------------------------------------------------------------------
    # crash / detect / respawn
    # ------------------------------------------------------------------
    def fail(self, node_id: int, *, now: float = 0.0) -> None:
        """Simulate a hard crash: the node loses all volatile state.

        Its model and residual accumulator are wiped (the encoder and
        projection regenerate from the seed — they are firmware, not
        state) and it stops heartbeating, so its lease lapses and
        :meth:`detect_failures` reports it. The root cannot crash: it is
        the escalation fallback of last resort, exactly as in the
        serving runtime.
        """
        hierarchy = self.federation.hierarchy
        if node_id not in hierarchy.nodes:
            raise KeyError(f"unknown node {node_id}")
        if node_id == hierarchy.root_id:
            raise ValueError("the central node cannot crash")
        if self.states.get(node_id) is NodeState.CRASHED:
            raise ValueError(f"node {node_id} is already crashed")
        self.federation.rebuild_node(node_id)
        if self.learner is not None:
            node = hierarchy.nodes[node_id]
            self.learner.residuals[node_id] = ResidualAccumulator(
                self.federation.n_classes, node.dimension
            )
        self.states[node_id] = NodeState.CRASHED
        self._record("fail", node_id, at=now)

    def heartbeat_active(self, now: float) -> None:
        """Refresh leases of every non-crashed node (crashed stay silent)."""
        for nid in sorted(self.states):
            if self.states[nid] is not NodeState.CRASHED:
                self.leases.beat(nid, now)

    def detect_failures(self, now: float) -> List[int]:
        """Sweep leases; newly expired nodes transition to CRASHED."""
        detected = []
        for nid in sorted(
            info.replica_id for info in self.leases.evict_stale(now)
        ):
            detected.append(nid)
            if self.states.get(nid) is not NodeState.CRASHED:
                self.states[nid] = NodeState.CRASHED
            self._record("detect", nid, at=now)
        return detected

    def respawn(
        self,
        node_id: int,
        checkpoint_path: Union[str, Path],
        *,
        now: float = 0.0,
    ) -> int:
        """Replace a crashed node: restore from checkpoint, replay journal.

        The node's model and residual accumulator install verbatim from
        the checkpoint, then every journaled feedback event for this
        node since the checkpoint's journal mark replays in order —
        both the events the crash destroyed and the ones buffered while
        it was down. Returns the number of replayed events. After the
        next propagation the node is bit-identical to one that never
        crashed.

        The journal holds only the events since the latest checkpoint,
        so a file whose mark lies outside it cannot be caught up from:
        that raises, naming both marks, before any state changes.
        """
        if self.states.get(node_id) is not NodeState.CRASHED:
            raise ValueError(f"node {node_id} is not crashed")
        ckpt = load_topology_state(checkpoint_path, reconstruct=False)
        validate_topology_meta(ckpt.meta, self.federation, checkpoint_path)
        if not self.journal_start <= ckpt.journal_seq <= self.journal_seq:
            raise ValueError(
                f"{checkpoint_path}: journal mark {ckpt.journal_seq} is "
                f"outside the journal, which starts at mark "
                f"{self.journal_start} and ends at mark {self.journal_seq}; "
                "respawn from the latest checkpoint"
            )
        self.states[node_id] = NodeState.RESTORING
        self.federation.classifiers[node_id].set_model(ckpt.models[node_id])
        replayed = 0
        if self.learner is not None:
            saved = ckpt.residuals.get(node_id)
            node = self.federation.hierarchy.nodes[node_id]
            self.learner.residuals[node_id] = (
                saved.copy() if saved is not None
                else ResidualAccumulator(
                    self.federation.n_classes, node.dimension
                )
            )
            for event in self.journal[ckpt.journal_seq - self.journal_start:]:
                if event.node_id == node_id:
                    self.learner.record_feedback(
                        node_id, event.query_hv,
                        event.predicted_class, event.true_class,
                    )
                    replayed += 1
        resurrected = self.leases.beat(node_id, now)
        self.states[node_id] = NodeState.ACTIVE
        self._record(
            "respawn", node_id, at=now, replayed=replayed,
            resurrected=resurrected,
        )
        return replayed

    # ------------------------------------------------------------------
    # witness
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over the complete control-plane state.

        Covers structure (hierarchy, partition, config), lifecycle
        (states, transition log), learning state (model bytes, residual
        stacks, propagation counter) and the journal position. Two
        same-seed runs of any scenario produce identical fingerprints;
        any divergence — one flipped model bit, one extra transition —
        changes it.
        """
        fed = self.federation
        payload = {
            "federation": fed.spec(),
            "states": {
                str(nid): state.value
                for nid, state in sorted(self.states.items())
            },
            "transitions": [
                (t.kind, t.node_id, list(t.detail)) for t in self.transitions
            ],
            "journal_seq": self.journal_seq,
            "propagations": (
                self.learner._propagations if self.learner is not None else 0
            ),
        }
        digest = hashlib.sha256()
        digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
        for nid in sorted(fed.classifiers):
            model = fed.classifiers[nid].class_hypervectors
            digest.update(f"model:{nid}".encode("utf-8"))
            digest.update(b"untrained" if model is None else model.tobytes())
        if self.learner is not None:
            for nid in sorted(self.learner.residuals):
                acc = self.learner.residuals[nid]
                digest.update(f"residual:{nid}:{acc.feedback_count}".encode())
                digest.update(acc.negative.tobytes())
                digest.update(acc.positive.tobytes())
                digest.update(acc.negative_counts.tobytes())
                digest.update(acc.positive_counts.tobytes())
        return digest.hexdigest()


# ----------------------------------------------------------------------
# replacement scenario harness
# ----------------------------------------------------------------------
#: Virtual seconds between propagation barriers.
_STEP_DURATION_S = 2.0
#: Offered load of the two serve phases.
_SERVE_RATE_RPS = 2000.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Deterministic schedule for one crash-replacement scenario.

    The feedback stream splits into ``n_steps`` segments; each segment
    records feedback, then hits the propagation barrier and a
    checkpoint. During segment ``crash_step`` the victim (the first
    end node) crashes mid-segment — after half of the segment's
    feedback was applied and with the other half arriving while it is
    down — is detected by lease expiry, and respawns from the latest
    checkpoint before the barrier. Mid-outage the system serves a
    workload under a :class:`~repro.serve.faults.FaultPlan` with the
    victim's crash window (plus message drops), and serves it again
    fault-free after recovery.
    """

    n_steps: int = 3
    crash_step: int = 1
    lease_timeout_s: float = 0.5
    heartbeat_period_s: float = 0.25
    drop_probability: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.crash_step < self.n_steps:
            raise ValueError(
                f"crash_step {self.crash_step} outside 0..{self.n_steps - 1}"
            )


@dataclass
class ScenarioResult:
    """Witnessed outcome of one scenario run."""

    fingerprint: str
    controller_fingerprint: str
    outage_serve: object
    final_serve: object
    n_lost_outage: int
    n_lost_final: int
    n_replayed: int
    detected_at_s: Optional[float]
    events: List[str] = field(default_factory=list)


def _serve_phase(inference, serve_x, spec: ScenarioSpec, plan):
    from repro.network.medium import get_medium
    from repro.serve import ServeConfig, ServingRuntime, make_workload

    workload = make_workload(serve_x, inference, seed=spec.seed)
    runtime = ServingRuntime(
        inference,
        get_medium("wired-1gbps"),
        ServeConfig(max_batch=16, queue_depth=4096),
        fault_plan=plan,
    )
    result = runtime.serve_open_loop(
        workload, rate_rps=_SERVE_RATE_RPS, seed=spec.seed
    )
    return result, len(workload) - result.n_total


def run_replacement_scenario(
    controller: TopologyController,
    inference: HierarchicalInference,
    stream_x: np.ndarray,
    stream_y: np.ndarray,
    serve_x: np.ndarray,
    checkpoint_path: Union[str, Path],
    spec: ScenarioSpec = ScenarioSpec(),
    *,
    inject_crash: bool = True,
) -> ScenarioResult:
    """Run the complete replacement loop on a virtual clock.

    With ``inject_crash=False`` the identical schedule runs without the
    crash — the uninterrupted baseline a recovered run must match
    bit-for-bit. The returned fingerprint hashes the controller state
    and both serve phases, so two same-seed runs are comparable with a
    single string equality.
    """
    import math

    from repro.serve.faults import FaultPlan

    if controller.learner is None:
        raise ValueError("scenario requires a controller with a learner")
    fed = controller.federation
    hierarchy = fed.hierarchy
    leaves = hierarchy.leaves()
    victim = leaves[0]
    stream_x = check_matrix(
        "stream_x", stream_x, cols=fed.partition.n_features
    )
    stream_y = check_labels(
        "stream_y", stream_y, n_classes=fed.n_classes
    )
    events: List[str] = []
    clock = 0.0
    detected_at: Optional[float] = None
    n_replayed = 0
    outage_serve = None
    n_lost_outage = 0
    controller.heartbeat_active(clock)
    controller.checkpoint(checkpoint_path)
    bounds = np.linspace(0, stream_x.shape[0], spec.n_steps + 1).astype(int)
    for step in range(spec.n_steps):
        lo, hi = int(bounds[step]), int(bounds[step + 1])
        chunk_x, chunk_y = stream_x[lo:hi], stream_y[lo:hi]
        # Entry leaves for this segment's queries. The victim stays in
        # the pool even in the crash segment: its predictions happen
        # *before* it goes down; only the delayed labels (feedback)
        # land after — the paper's feedback model, and exactly what
        # the buffer-and-replay path exists for.
        rng = derive_rng(spec.seed + step, "scenario-entry-leaves")
        start = np.asarray(leaves)[
            rng.integers(0, len(leaves), size=chunk_x.shape[0])
        ]
        feedback: List[Tuple[int, np.ndarray, int, int]] = []
        if chunk_x.shape[0] > 0:
            encodings = fed.encode_all(chunk_x)
            outcome = inference.run(
                chunk_x, start_leaves=start, encodings=encodings
            )
            for i in np.flatnonzero(outcome.labels != chunk_y):
                nid = int(outcome.deciding_node[i])
                feedback.append(
                    (
                        nid,
                        encodings[nid][i].astype(np.float64),
                        int(outcome.labels[i]),
                        int(chunk_y[i]),
                    )
                )
        # The crash lands mid-segment: half the feedback was delivered
        # (and the victim's share of it dies with the node), the other
        # half arrives while it is down (buffered, replayed on respawn).
        cut = len(feedback) // 2 if step == spec.crash_step else len(feedback)
        for nid, hv, pred, true in feedback[:cut]:
            controller.record_feedback(nid, hv, pred, true)
        if inject_crash and step == spec.crash_step:
            controller.fail(victim, now=clock)
            events.append(f"fail:{victim}@{clock:.2f}")
        for nid, hv, pred, true in feedback[cut:]:
            controller.record_feedback(nid, hv, pred, true)
        if step == spec.crash_step:
            # Mid-outage serving: the victim's crash window refuses its
            # queries at admission; drops inject retries elsewhere. The
            # baseline serves the same workload fault-free.
            plan = (
                FaultPlan(
                    seed=spec.seed,
                    drop_probability=spec.drop_probability,
                    crash_windows={victim: (0.0, math.inf)},
                )
                if inject_crash
                else None
            )
            outage_serve, n_lost_outage = _serve_phase(
                inference, serve_x, spec, plan
            )
        if inject_crash and step == spec.crash_step:
            while detected_at is None:
                clock += spec.heartbeat_period_s
                controller.heartbeat_active(clock)
                if victim in controller.detect_failures(clock):
                    detected_at = clock
            events.append(f"detect:{victim}@{detected_at:.2f}")
            n_replayed = controller.respawn(
                victim, checkpoint_path, now=clock
            )
            events.append(f"respawn:{victim}:replayed={n_replayed}")
        # Propagation barrier + checkpoint close every segment — the
        # paper's "every midnight" moment, and the recovery point the
        # next crash would catch up from.
        controller.learner.propagate()
        controller.checkpoint(checkpoint_path)
        clock += _STEP_DURATION_S
        controller.heartbeat_active(clock)
        events.append(f"barrier:{step}@{clock:.2f}")
    final_serve, n_lost_final = _serve_phase(inference, serve_x, spec, None)
    controller_fp = controller.fingerprint()
    digest = hashlib.sha256()
    digest.update(controller_fp.encode("utf-8"))
    if outage_serve is not None:
        digest.update(repr(outage_serve.fingerprint()).encode("utf-8"))
    digest.update(repr(final_serve.fingerprint()).encode("utf-8"))
    digest.update(f"lost:{n_lost_outage}:{n_lost_final}".encode("utf-8"))
    digest.update(f"replayed:{n_replayed}".encode("utf-8"))
    return ScenarioResult(
        fingerprint=digest.hexdigest(),
        controller_fingerprint=controller_fp,
        outage_serve=outage_serve,
        final_serve=final_serve,
        n_lost_outage=n_lost_outage,
        n_lost_final=n_lost_final,
        n_replayed=n_replayed,
        detected_at_s=detected_at,
        events=events,
    )
