"""Unit tests for the elastic topology control plane.

Pins the control plane's core contracts:

* **join bit-exactness** — a runtime-joined end node (and every refit
  ancestor) is bit-identical to a federation constructed at build time
  with the same grown topology and partition;
* **refit minimality** — untouched subtrees are not rebuilt or
  retrained by a mutation;
* **drain** — columns redistribute, emptied gateways cascade away, ids
  are never reused;
* **checkpoint/restore** — full controller state (models, residuals,
  propagation counter) round-trips bit-exactly;
* **fail/detect/respawn** — a crashed node is detected by lease
  expiry and recovers bit-exactly from checkpoint + journal replay;
* **fingerprint determinism** — same construction, same hash.
"""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from conftest import csr_dense
import repro.hierarchy.control as control_module
from repro.config import EdgeHDConfig
from repro.core.projection import _LIVE_DRAWS, _draw_ternary_csr
from repro.data import make_classification
from repro.data.partition import FeaturePartition, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    NodeState,
    OnlineLearner,
    TopologyController,
    build_deep_tree,
    build_tree,
)
from repro.serve.registry import ReplicaRegistry
from repro.hierarchy.checkpoint import (
    CheckpointError,
    load_topology_state,
    save_topology_state,
)
from repro.utils.rng import derive_rng

N_FEATURES = 16
N_CLASSES = 3


def _config(**overrides):
    base = dict(
        dimension=512, batch_size=10, retrain_epochs=4, seed=17,
        confidence_threshold=0.3,
    )
    base.update(overrides)
    return EdgeHDConfig(**base)


@pytest.fixture(scope="module")
def data():
    x, y = make_classification(
        n_samples=240, n_features=N_FEATURES, n_classes=N_CLASSES,
        seed=11, name="ctl-fixture",
    )
    return x, y


def make_controller(data, *, with_learner=True, n_leaves=4, builder=None):
    x, y = data
    config = _config()
    hierarchy = (builder or build_tree)(n_leaves)
    partition = partition_features(N_FEATURES, len(hierarchy.leaves()))
    hierarchy.allocate_dimensions(config.dimension, partition.feature_counts())
    federation = EdgeHDFederation(hierarchy, partition, N_CLASSES, config)
    learner = OnlineLearner(federation) if with_learner else None
    controller = TopologyController(federation, x, y, learner=learner)
    controller.fit()
    return controller


def build_time_twin(controller, data, graft_under=None):
    """A federation trained from scratch on the controller's topology."""
    x, y = data
    fed = controller.federation
    hierarchy = build_tree(4)
    if graft_under == "root":
        hierarchy.graft_leaf(hierarchy.root_id)
    partition = FeaturePartition(slices=fed.partition.slices)
    hierarchy.allocate_dimensions(
        fed.config.dimension, partition.feature_counts()
    )
    twin = EdgeHDFederation(hierarchy, partition, N_CLASSES, fed.config)
    twin.fit_offline(x, y)
    return twin


def feed(controller, data, rows):
    """Journal one feedback event at the first end node per row of
    ``rows``; returns that node."""
    fed = controller.federation
    leaf = fed.hierarchy.leaves()[0]
    x, _ = data
    encoded = fed.encode_at(leaf, x[list(rows)])
    for i, hv in zip(rows, encoded):
        controller.record_feedback(
            leaf, hv.astype(np.float64), i % N_CLASSES, (i + 1) % N_CLASSES
        )
    return leaf


def assert_models_equal(a: EdgeHDFederation, b: EdgeHDFederation) -> None:
    assert set(a.classifiers) == set(b.classifiers)
    for nid in a.classifiers:
        ma = a.classifiers[nid].class_hypervectors
        mb = b.classifiers[nid].class_hypervectors
        assert ma.shape == mb.shape, f"node {nid} shape"
        assert np.array_equal(ma, mb), f"node {nid} model differs"


class TestJoin:
    def test_joined_node_bit_exact_vs_build_time(self, data):
        controller = make_controller(data)
        result = controller.join(controller.federation.hierarchy.root_id)
        twin = build_time_twin(controller, data, graft_under="root")
        assert_models_equal(controller.federation, twin)
        assert result.node_id in controller.federation.hierarchy.leaves()

    def test_joined_node_served_answers_bit_identical(self, data):
        controller = make_controller(data)
        join = controller.join(controller.federation.hierarchy.root_id)
        twin = build_time_twin(controller, data, graft_under="root")
        x, _ = data
        start = np.full(50, join.node_id, dtype=np.int64)
        grown = HierarchicalInference(controller.federation).run(
            x[:50], start_leaves=start
        )
        built = HierarchicalInference(twin).run(x[:50], start_leaves=start)
        assert np.array_equal(grown.labels, built.labels)
        assert np.array_equal(grown.deciding_node, built.deciding_node)
        assert np.array_equal(grown.confidence, built.confidence)

    def test_untouched_subtree_not_refit(self, data):
        controller = make_controller(data)
        fed = controller.federation
        hierarchy = fed.hierarchy
        # Donate from the default donor; the other gateway's subtree
        # must keep its encoder *objects* (rebuild would replace them).
        donor_default = max(
            hierarchy.leaves(),
            key=lambda l: len(fed.partition.slices[hierarchy.nodes[l].leaf_index]),
        )
        untouched = [
            l for l in hierarchy.leaves()
            if hierarchy.nodes[l].parent != hierarchy.nodes[donor_default].parent
        ]
        before = {l: fed.encoders[l] for l in untouched}
        models = {
            l: fed.classifiers[l].class_hypervectors.copy() for l in untouched
        }
        result = controller.join(hierarchy.root_id)
        assert result.donors == (donor_default,)
        for l in untouched:
            assert l not in result.refit_nodes
            assert fed.encoders[l] is before[l]
            assert np.array_equal(
                fed.classifiers[l].class_hypervectors, models[l]
            )

    def test_explicit_columns(self, data):
        controller = make_controller(data)
        fed = controller.federation
        taken = fed.partition.slices[0][-1:] + fed.partition.slices[1][-1:]
        result = controller.join(
            fed.hierarchy.root_id, columns=taken
        )
        assert result.columns == tuple(sorted(taken))
        assert len(result.donors) == 2
        fed.partition.validate()

    def test_join_rejects_bad_inputs(self, data):
        controller = make_controller(data)
        fed = controller.federation
        leaf = fed.hierarchy.leaves()[0]
        with pytest.raises(KeyError):
            controller.join(999)
        with pytest.raises(ValueError, match="end node"):
            controller.join(leaf)
        with pytest.raises(ValueError, match="not part of"):
            controller.join(fed.hierarchy.root_id, columns=[N_FEATURES + 5])
        with pytest.raises(ValueError, match="duplicate"):
            controller.join(fed.hierarchy.root_id, columns=[0, 0])
        with pytest.raises(ValueError, match="without columns"):
            controller.join(
                fed.hierarchy.root_id, columns=list(fed.partition.slices[0])
            )

    def test_join_requires_trained_controller(self, data):
        x, y = data
        config = _config()
        hierarchy = build_tree(4)
        partition = partition_features(N_FEATURES, 4)
        hierarchy.allocate_dimensions(
            config.dimension, partition.feature_counts()
        )
        fed = EdgeHDFederation(hierarchy, partition, N_CLASSES, config)
        controller = TopologyController(fed, x, y)
        with pytest.raises(RuntimeError, match="fit"):
            controller.join(hierarchy.root_id)


def _reference_draw(fed: EdgeHDFederation, node_id: int) -> np.ndarray:
    """A node's matrix drawn straight from its seed and shape. A second
    ``TernaryProjection`` would share the live draw, not redraw it."""
    live = fed.projections[node_id]
    return csr_dense(_draw_ternary_csr(
        derive_rng(fed.node_seed(node_id), "ternary-projection"),
        live.out_dimension, live.in_dimension, live.zero_fraction,
    ))


def _draw_keys(fed: EdgeHDFederation) -> set:
    """The shared-draw memo keys of a federation's projections."""
    return {
        (fed.node_seed(nid), p.out_dimension, p.in_dimension, p.zero_fraction)
        for nid, p in fed.projections.items() if p is not None
    }


class TestKeptProjection:
    """A refit or a restore shares the matrix of a projection whose
    shape did not change; it is the matrix a fresh draw would give."""

    def test_root_keeps_its_projection_through_join_and_drain(
        self, data, tmp_path
    ):
        controller = make_controller(data)
        fed = controller.federation
        root = fed.hierarchy.root_id
        before = fed.projections[root]
        joined = controller.join(root)
        assert root in joined.refit_nodes
        assert fed.projections[root].matrix is before.matrix
        drained = controller.drain(joined.node_id)
        assert root in drained.refit_nodes
        assert fed.projections[root].matrix is before.matrix
        path = tmp_path / "ctl.npz"
        controller.checkpoint(path)
        restored = TopologyController.restore(path, *data)
        assert restored.federation.projections[root].matrix is before.matrix
        assert np.array_equal(csr_dense(before.matrix), _reference_draw(fed, root))

    def test_gateway_with_new_input_dimension_draws_anew(self, data):
        controller = make_controller(data)
        fed = controller.federation
        before = {nid: p for nid, p in fed.projections.items() if p is not None}
        controller.join(fed.hierarchy.root_id)
        reshaped = [
            nid for nid, p in before.items()
            if fed.projections[nid].in_dimension != p.in_dimension
        ]
        assert reshaped and fed.hierarchy.root_id not in reshaped
        for nid in reshaped:
            assert fed.projections[nid].matrix is not before[nid].matrix
            assert np.array_equal(
                csr_dense(fed.projections[nid].matrix), _reference_draw(fed, nid)
            )

    def test_restore_with_no_live_federation_draws_the_same(
        self, data, tmp_path
    ):
        controller = make_controller(data)
        fed = controller.federation
        path = tmp_path / "ctl.npz"
        controller.checkpoint(path)
        keys = _draw_keys(fed)
        models = {
            nid: clf.class_hypervectors.copy()
            for nid, clf in fed.classifiers.items()
        }
        references = {
            nid: _reference_draw(fed, nid)
            for nid, p in fed.projections.items() if p is not None
        }
        fingerprint = controller.fingerprint()
        del controller, fed
        gc.collect()
        assert not keys & set(_LIVE_DRAWS.keys())
        restored = TopologyController.restore(path, *data)
        twin = restored.federation
        assert restored.fingerprint() == fingerprint
        assert _draw_keys(twin) == keys
        for nid, model in models.items():
            assert np.array_equal(twin.classifiers[nid].class_hypervectors, model)
        for nid, reference in references.items():
            assert np.array_equal(csr_dense(twin.projections[nid].matrix), reference)


class TestDrain:
    def test_drain_redistributes_columns(self, data):
        controller = make_controller(data)
        fed = controller.federation
        victim = fed.hierarchy.leaves()[0]
        n_before = fed.partition.n_features
        result = controller.drain(victim)
        assert victim in result.removed_nodes
        assert victim not in fed.hierarchy.nodes
        assert fed.partition.n_features == n_before
        fed.partition.validate()
        x, _ = data
        outcome = HierarchicalInference(fed).run(x[:20])
        assert outcome.labels.shape == (20,)

    def test_restrict_after_join_and_drain_equals_fancy_indexing(self, data):
        """A join takes columns from its siblings and a drain hands the
        victim's out, so a node's columns stop being one run in order;
        each node still gets exactly ``features[:, columns]``."""
        controller = make_controller(data)
        fed = controller.federation
        joined = controller.join(fed.hierarchy.root_id)
        controller.drain(fed.hierarchy.leaves()[0])
        partition = fed.partition
        assert joined.node_id in fed.hierarchy.nodes
        assert any(
            list(s) != list(range(s[0], s[0] + len(s)))
            for s in partition.slices
        )
        x, _ = data
        for rows in (x[:5], x[3], x[:4].astype(np.float32)):
            for index, columns in enumerate(partition.slices):
                got = partition.restrict(rows, index)
                want = rows[..., list(columns)]
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_drain_cascades_empty_gateways(self, data):
        controller = make_controller(data)
        fed = controller.federation
        gateway = [
            nid for nid, node in fed.hierarchy.nodes.items()
            if node.level == 2
        ][0]
        a, b = fed.hierarchy.nodes[gateway].children
        controller.drain(a)
        result = controller.drain(b)
        assert set(result.removed_nodes) == {b, gateway}
        assert gateway not in fed.hierarchy.nodes
        assert gateway not in fed.classifiers

    def test_drain_then_join_never_reuses_ids(self, data):
        controller = make_controller(data)
        fed = controller.federation
        victim = fed.hierarchy.leaves()[0]
        controller.drain(victim)
        result = controller.join(fed.hierarchy.root_id)
        assert result.node_id != victim
        assert result.node_id > max(
            nid for nid in fed.hierarchy.nodes if nid != result.node_id
        )

    def test_drain_rejects_bad_inputs(self, data):
        controller = make_controller(data)
        fed = controller.federation
        with pytest.raises(KeyError):
            controller.drain(999)
        with pytest.raises(ValueError, match="not an end node"):
            controller.drain(fed.hierarchy.root_id)
        leaves = list(fed.hierarchy.leaves())
        for leaf in leaves[:-1]:
            controller.drain(leaf)
        with pytest.raises(ValueError, match="last end node"):
            controller.drain(fed.hierarchy.leaves()[0])

    def test_drain_deep_tree(self, data):
        controller = make_controller(
            data, n_leaves=4, builder=lambda n: build_deep_tree(n, depth=4)
        )
        fed = controller.federation
        victim = fed.hierarchy.leaves()[-1]
        controller.drain(victim)
        fed.partition.validate()
        assert victim not in fed.hierarchy.nodes


class TestCheckpointRestore:
    def test_round_trip_bit_exact(self, data, tmp_path):
        controller = make_controller(data)
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        restored = TopologyController.restore(path, *data)
        assert_models_equal(controller.federation, restored.federation)
        assert restored.states == controller.states

    def test_round_trip_preserves_online_state(self, data, tmp_path):
        controller = make_controller(data)
        fed = controller.federation
        x, _ = data
        enc = fed.encode_all(x[:6])
        leaf = fed.hierarchy.leaves()[0]
        controller.record_feedback(
            leaf, enc[leaf][0].astype(np.float64), 0, 1
        )
        controller.learner.propagate()
        controller.record_feedback(
            leaf, enc[leaf][1].astype(np.float64), 1, 2
        )
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        restored = TopologyController.restore(path, *data)
        assert restored.learner is not None
        assert (
            restored.learner._propagations
            == controller.learner._propagations
        )
        assert (
            restored.learner.pending_feedback()
            == controller.learner.pending_feedback()
        )
        for nid in controller.learner.residuals:
            a = controller.learner.residuals[nid]
            b = restored.learner.residuals[nid]
            assert np.array_equal(a.negative, b.negative)
            assert np.array_equal(a.positive, b.positive)
            assert np.array_equal(a.negative_counts, b.negative_counts)
            assert np.array_equal(a.positive_counts, b.positive_counts)
            assert a.feedback_count == b.feedback_count
        # ...and the next propagation is bit-identical on both sides.
        controller.learner.propagate()
        restored.learner.propagate()
        assert_models_equal(controller.federation, restored.federation)

    def test_restore_reproduces_fingerprint_after_feedback(
        self, data, tmp_path
    ):
        """The restored journal starts at the file's mark. Started at 0,
        the restored controller hashed a different journal position
        than the live one at the same checkpoint."""
        controller = make_controller(data)
        feed(controller, data, range(1))
        controller.learner.propagate()
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        restored = TopologyController.restore(path, *data)
        assert restored.fingerprint() == controller.fingerprint()
        assert restored.journal_seq == controller.journal_seq == 1

    def test_checkpoint_after_mutation_round_trips(self, data, tmp_path):
        controller = make_controller(data)
        controller.join(controller.federation.hierarchy.root_id)
        controller.drain(controller.federation.hierarchy.leaves()[0])
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        restored = TopologyController.restore(path, *data)
        assert_models_equal(controller.federation, restored.federation)
        assert (
            restored.federation.hierarchy.spec()
            == controller.federation.hierarchy.spec()
        )


class TestRestoreFromForwards:
    """Restore unpacks the checkpointed forwards instead of re-encoding
    the training set, and refuses a file it cannot trust them from."""

    def test_restore_encodes_nothing(self, data, tmp_path, monkeypatch):
        controller = make_controller(data)
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)

        def no_encoding(*args, **kwargs):
            raise AssertionError("restore re-encoded the training set")

        with monkeypatch.context() as patch:
            patch.setattr(EdgeHDFederation, "encode_leaf", no_encoding)
            patch.setattr(EdgeHDFederation, "combine_children", no_encoding)
            restored = TopologyController.restore(path, *data)
        root = controller.federation.hierarchy.root_id
        assert root not in controller._batch_hvs
        assert restored._batch_hvs.keys() == controller._batch_hvs.keys()
        for nid, rows in controller._batch_hvs.items():
            assert restored._batch_hvs[nid].dtype == rows.dtype == np.int8
            assert np.array_equal(restored._batch_hvs[nid], rows)

    def test_join_and_drain_after_restore_match_live(self, data, tmp_path):
        live = make_controller(data)
        path = tmp_path / "topo.npz"
        live.checkpoint(path)
        restored = TopologyController.restore(path, *data)
        for controller in (live, restored):
            joined = controller.join(controller.federation.hierarchy.root_id)
            controller.drain(controller.federation.hierarchy.leaves()[0])
            assert joined.node_id in controller.federation.hierarchy.nodes
        assert_models_equal(live.federation, restored.federation)
        assert restored._batch_hvs.keys() == live._batch_hvs.keys()
        for nid, rows in live._batch_hvs.items():
            assert np.array_equal(restored._batch_hvs[nid], rows)
        assert restored.fingerprint() == live.fingerprint()

    def test_other_training_set_names_both_digests(self, data, tmp_path):
        controller = make_controller(data)
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        x, y = data
        other = TopologyController(
            controller.federation, x[::-1], y[::-1]
        )
        with pytest.raises(CheckpointError) as err:
            TopologyController.restore(path, x[::-1], y[::-1])
        msg = str(err.value)
        assert str(path) in msg
        assert controller._training_digest in msg
        assert other._training_digest in msg

    def test_models_only_file_is_refused(self, data, tmp_path):
        controller = make_controller(data)
        path = tmp_path / "models.npz"
        save_topology_state(controller.federation, path)
        with pytest.raises(CheckpointError, match="saved without forwards") as err:
            TopologyController.restore(path, *data)
        assert str(path) in str(err.value)

    def test_format_3_file_is_refused(self, data, tmp_path):
        controller = make_controller(data)
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        arrays = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format_version"] = 3
        del meta["training_digest"]
        arrays = {k: v for k, v in arrays.items() if not k.startswith("fwd_")}
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        target = tmp_path / "v3.npz"
        np.savez(str(target), **arrays)
        with pytest.raises(CheckpointError) as err:
            TopologyController.restore(target, *data)
        msg = str(err.value)
        assert str(target) in msg
        assert "expected 4" in msg and "found 3" in msg

    def test_no_pending_feedback_writes_no_residuals(self, data, tmp_path):
        controller = make_controller(data)
        feed(controller, data, range(2))
        controller.learner.propagate()
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        with np.load(path, allow_pickle=False) as archive:
            assert not [k for k in archive.files if k.startswith("res")]
            assert {k for k in archive.files if k.startswith("fwd_")} == {
                f"fwd_{nid}" for nid in controller._batch_hvs
            }
        restored = TopologyController.restore(path, *data)
        assert set(restored.learner.residuals) == set(
            controller.learner.residuals
        )
        for nid, acc in controller.learner.residuals.items():
            got = restored.learner.residuals[nid]
            for name in (
                "negative", "positive", "negative_counts", "positive_counts",
            ):
                want = getattr(acc, name)
                assert getattr(got, name).dtype == want.dtype
                assert getattr(got, name).tobytes() == want.tobytes()
            assert got.feedback_count == acc.feedback_count == 0
        assert restored.fingerprint() == controller.fingerprint()


class TestFailRespawn:
    def test_fail_wipes_and_respawn_restores_bit_exact(self, data, tmp_path):
        controller = make_controller(data)
        fed = controller.federation
        victim = fed.hierarchy.leaves()[0]
        path = tmp_path / "topo.npz"
        controller.heartbeat_active(0.0)
        controller.checkpoint(path)
        before = fed.classifiers[victim].class_hypervectors.copy()
        controller.fail(victim, now=0.1)
        assert controller.states[victim] is NodeState.CRASHED
        assert fed.classifiers[victim].class_hypervectors is None
        replayed = controller.respawn(victim, path, now=0.2)
        assert replayed == 0
        assert controller.states[victim] is NodeState.ACTIVE
        assert np.array_equal(
            fed.classifiers[victim].class_hypervectors, before
        )

    def test_journal_replay_covers_lost_and_buffered_feedback(
        self, data, tmp_path
    ):
        controller = make_controller(data)
        fed = controller.federation
        x, _ = data
        victim = fed.hierarchy.leaves()[0]
        enc = fed.encode_all(x[:8])
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        hv = lambda i: enc[victim][i].astype(np.float64)
        applied = controller.record_feedback(victim, hv(0), 0, 1)
        assert applied
        controller.fail(victim)
        assert controller.learner.residuals[victim].feedback_count == 0
        buffered = controller.record_feedback(victim, hv(1), 1, 2)
        assert not buffered  # node down: journaled, not applied
        assert controller.learner.residuals[victim].feedback_count == 0
        replayed = controller.respawn(victim, path)
        assert replayed == 2  # the lost event and the buffered one
        assert controller.learner.residuals[victim].feedback_count == 2

    @pytest.mark.parametrize("crashed", [False, True], ids=["live", "crashed"])
    def test_malformed_feedback_is_not_journaled(self, data, tmp_path, crashed):
        # a journaled bad event would make respawn raise mid-replay and
        # leave the node stuck in RESTORING
        controller = make_controller(data)
        fed = controller.federation
        victim = fed.hierarchy.leaves()[0]
        dim = fed.hierarchy.nodes[victim].dimension
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        if crashed:
            controller.fail(victim)
        journaled = len(controller.journal)
        malformed = [
            (np.ones(dim + 1), 0, 1),  # query of the wrong length
            (np.ones(dim), N_CLASSES, 1),  # predicted class out of range
            (np.ones(dim), 0, N_CLASSES),  # true class out of range
            (np.ones(dim), 1, 1),  # true class is the predicted one
        ]
        for query, predicted, true in malformed:
            with pytest.raises((ValueError, IndexError)):
                controller.record_feedback(victim, query, predicted, true)
        assert len(controller.journal) == journaled
        assert controller.learner.residuals[victim].feedback_count == 0
        if not crashed:
            controller.fail(victim)
        assert controller.respawn(victim, path) == 0
        assert controller.states[victim] is NodeState.ACTIVE

    def test_respawned_node_matches_never_crashed_twin(self, data, tmp_path):
        crashed = make_controller(data)
        clean = make_controller(data)
        x, _ = data
        victim = crashed.federation.hierarchy.leaves()[0]
        enc = crashed.federation.encode_all(x[:8])
        path = tmp_path / "topo.npz"
        crashed.checkpoint(path)
        events = [
            (victim, enc[victim][i].astype(np.float64), i % N_CLASSES,
             (i + 1) % N_CLASSES)
            for i in range(4)
        ]
        for ctl in (crashed, clean):
            for e in events[:2]:
                ctl.record_feedback(*e)
        crashed.fail(victim)
        for ctl in (crashed, clean):
            for e in events[2:]:
                ctl.record_feedback(*e)
        crashed.respawn(victim, path)
        crashed.learner.propagate()
        clean.learner.propagate()
        assert_models_equal(crashed.federation, clean.federation)

    def test_detection_via_lease_expiry(self, data):
        controller = make_controller(data, with_learner=False)
        victim = controller.federation.hierarchy.leaves()[0]
        controller.heartbeat_active(0.0)
        controller.fail(victim, now=0.1)
        controller.heartbeat_active(0.5)
        assert controller.detect_failures(0.5) == []
        controller.heartbeat_active(1.0)  # victim stays silent
        detected = controller.detect_failures(1.2)
        assert detected == [victim]
        # reported exactly once
        controller.heartbeat_active(1.5)
        assert controller.detect_failures(1.6) == []

    def test_fail_rejects_root_and_double_crash(self, data):
        controller = make_controller(data, with_learner=False)
        fed = controller.federation
        with pytest.raises(ValueError, match="central node"):
            controller.fail(fed.hierarchy.root_id)
        victim = fed.hierarchy.leaves()[0]
        controller.fail(victim)
        with pytest.raises(ValueError, match="already crashed"):
            controller.fail(victim)
        with pytest.raises(ValueError, match="crashed"):
            controller.drain(victim)

    def test_respawn_requires_crashed_state(self, data, tmp_path):
        controller = make_controller(data)
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        with pytest.raises(ValueError, match="not crashed"):
            controller.respawn(
                controller.federation.hierarchy.leaves()[0], path
            )


class TestJournal:
    """The journal is a write-ahead log that ends at the latest
    checkpoint: a completed save drops the events before its mark."""

    def test_checkpoint_drops_the_covered_events(self, data, tmp_path):
        controller = make_controller(data)
        feed(controller, data, range(3))
        assert len(controller.journal) == controller.journal_seq == 3
        controller.checkpoint(tmp_path / "a.npz")
        assert controller.journal == []
        assert controller.journal_start == controller.journal_seq == 3
        feed(controller, data, range(3, 5))
        assert len(controller.journal) == 2 and controller.journal_seq == 5
        controller.checkpoint(tmp_path / "b.npz")
        ckpt = load_topology_state(tmp_path / "b.npz", reconstruct=False)
        assert ckpt.journal_seq == controller.journal_seq == 5

    def test_interrupted_save_keeps_the_journal(
        self, data, tmp_path, monkeypatch
    ):
        """The previous file stays the recovery point, so the events
        after its mark stay journaled."""
        controller = make_controller(data)
        path = tmp_path / "topo.npz"
        controller.checkpoint(path)
        victim = feed(controller, data, range(3))
        journal = list(controller.journal)

        def torn_save(*args, **kwargs):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(control_module, "save_topology_state", torn_save)
            with pytest.raises(OSError, match="disk full"):
                controller.checkpoint(path)
        assert len(controller.journal) == len(journal)
        assert all(a is b for a, b in zip(controller.journal, journal))
        assert controller.journal_start == 0 and controller.journal_seq == 3
        controller.fail(victim)
        assert controller.respawn(victim, path) == 3

    def test_respawn_from_a_file_older_than_the_journal_raises(
        self, data, tmp_path
    ):
        controller = make_controller(data)
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        controller.checkpoint(old)
        victim = feed(controller, data, range(2))
        controller.checkpoint(new)
        feed(controller, data, range(2, 3))
        controller.fail(victim)
        model = controller.federation.classifiers[victim].class_hypervectors
        with pytest.raises(ValueError, match="mark 0 .* starts at mark 2"):
            controller.respawn(victim, old)
        assert controller.states[victim] is NodeState.CRASHED
        classifier = controller.federation.classifiers[victim]
        assert classifier.class_hypervectors is model
        assert controller.respawn(victim, new) == 1

    def test_journal_bytes_stay_within_one_round(self, data, tmp_path):
        """k checkpointed rounds of feedback hold one round's events;
        a journal kept since construction grew by a round each time."""
        controller = make_controller(data)
        path = tmp_path / "topo.npz"
        per_round = 4
        held = []
        for k in range(5):
            feed(controller, data, range(k * per_round, (k + 1) * per_round))
            held.append(sum(e.query_hv.nbytes for e in controller.journal))
            controller.learner.propagate()
            controller.checkpoint(path)
        dimension = controller.federation.hierarchy.nodes[
            controller.federation.hierarchy.leaves()[0]
        ].dimension
        assert held == [per_round * 8 * dimension] * 5
        assert controller.journal_seq == 5 * per_round


class TestFingerprint:
    def test_deterministic_across_constructions(self, data):
        a = make_controller(data)
        b = make_controller(data)
        assert a.fingerprint() == b.fingerprint()

    def test_changes_after_mutation(self, data):
        controller = make_controller(data)
        before = controller.fingerprint()
        controller.join(controller.federation.hierarchy.root_id)
        assert controller.fingerprint() != before


class TestLeaseMonitor:
    def test_track_beat_expire_release(self):
        """The controller's lease table: register, beat, sweep, deregister."""
        leases = ReplicaRegistry(heartbeat_timeout_s=1.0)

        def expired(now):
            return sorted(info.replica_id for info in leases.evict_stale(now))

        leases.register(3, now=0.0)
        leases.register(4, now=0.0)
        leases.beat(3, 0.8)
        assert expired(1.5) == [4]
        assert expired(1.5) == []  # reported once
        assert leases.lease_remaining(3, 1.0) == pytest.approx(0.8)
        leases.deregister(3)
        assert expired(10.0) == []  # released: never reported
