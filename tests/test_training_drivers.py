"""One training step, three drivers — pinned bit for bit.

``EdgeHDFederation.train_node`` is the only statement of Sec. IV-B;
``fit_offline``, the control plane (``fit`` / refit / ``restore``) and
``SimulatedDeployment.train`` are drivers over it that differ only in
how a node's artifacts reach its parent. Each cell (two topologies x
holographic on/off) checks that the in-memory drivers agree on every
model, that the controller's cached artifacts are the same whether
trained or recomputed on restore, and that the wire-level deployment
is the step fed with what the frames deliver — float32 class models on
a clean network, zeros for a child whose frames were lost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EdgeHDConfig
from repro.data import make_classification, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    Hierarchy,
    TopologyController,
    build_tree,
)
from repro.hierarchy.deployment import SimulatedDeployment
from repro.network.medium import MEDIA

N_FEATURES = 20
N_CLASSES = 3
CONFIG = EdgeHDConfig(dimension=256, batch_size=10, retrain_epochs=3, seed=17)


def _ragged() -> Hierarchy:
    """Depth 4, with an end node under the root and one under level 3."""
    hierarchy = Hierarchy()
    root = hierarchy.add_node()
    level3 = hierarchy.add_node(root)
    hierarchy.add_node(root, leaf_index=0)
    level2 = hierarchy.add_node(level3)
    hierarchy.add_node(level3, leaf_index=1)
    hierarchy.add_node(level2, leaf_index=2)
    hierarchy.add_node(level2, leaf_index=3)
    hierarchy.finalize()
    return hierarchy


TOPOLOGIES = {"tree5": lambda: build_tree(5), "ragged": _ragged}


@pytest.fixture(scope="module")
def data():
    return make_classification(
        n_samples=240, n_features=N_FEATURES, n_classes=N_CLASSES,
        seed=11, name="drivers-fixture",
    )


@pytest.fixture(
    scope="module",
    params=[(t, h) for t in TOPOLOGIES for h in (True, False)],
    ids=lambda p: f"{p[0]}-{'holographic' if p[1] else 'concat'}",
)
def fresh(request):
    """Factory for identical untrained federations of one cell."""
    topology, holographic = request.param

    def make() -> EdgeHDFederation:
        hierarchy = TOPOLOGIES[topology]()
        partition = partition_features(N_FEATURES, len(hierarchy.leaves()))
        return EdgeHDFederation(
            hierarchy, partition, N_CLASSES, CONFIG, holographic=holographic
        )

    return make


def models(federation: EdgeHDFederation) -> dict:
    return {
        nid: clf.class_hypervectors
        for nid, clf in federation.classifiers.items()
    }


def assert_same(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for nid in a:
        assert np.array_equal(a[nid], b[nid]), f"node {nid}"


def through_float32(model: np.ndarray) -> np.ndarray:
    """What a CLASS_MODEL frame delivers."""
    return model.astype(np.float32).astype(np.float64)


def drive_step(federation: EdgeHDFederation, x, y, lost=()) -> None:
    """The bottom-up loop over ``train_node``, parents receiving what the
    wire delivers: float32 models, or zeros from a child in ``lost``."""
    x, y, groups = federation.training_inputs(x, y)
    received: dict = {}
    for nid in federation.hierarchy.postorder():
        children = federation.hierarchy.nodes[nid].children
        model, batches, _ = federation.train_node(
            nid, x, y, groups, federation.config.retrain_epochs,
            [received[c][0] for c in children],
            [received[c][1] for c in children],
        )
        if nid in lost:
            received[nid] = np.zeros(model.shape), np.zeros(batches.shape)
        else:
            received[nid] = through_float32(model), batches


class LoseFramesOf:
    """Stands in for the deployment's corruption RNG: corrupts exactly the
    frames whose (0-based, shipping-order) index is in ``frames``."""

    def __init__(self, frames):
        self.frames, self.sent = set(frames), -1

    def random(self) -> float:
        self.sent += 1
        return 0.0 if self.sent in self.frames else 1.0

    def integers(self, low: int, high: int) -> int:
        return high - 1  # last payload byte: the CRC always catches it


def test_in_memory_drivers_agree_on_every_model(fresh, data, tmp_path):
    x, y = data
    offline = fresh()
    offline_report = offline.fit_offline(x, y)

    controller = TopologyController(fresh(), x, y)
    report = controller.fit()
    assert_same(models(controller.federation), models(offline))
    assert report.node_train_accuracy == offline_report.node_train_accuracy
    assert report.messages == offline_report.messages

    # The artifacts fit() kept are the ones restore() recomputes.
    path = tmp_path / "topology.npz"
    controller.checkpoint(path)
    restored = TopologyController.restore(path, x, y)
    assert_same(models(restored.federation), models(offline))
    assert_same(restored._batch_hvs, controller._batch_hvs)


def test_clean_deployment_is_the_step_over_float32_frames(fresh, data):
    x, y = data
    deployed = fresh()
    report = SimulatedDeployment(deployed, MEDIA["wired-1gbps"]).train(x, y)
    assert report.frames_corrupted == 0

    reference = fresh()
    drive_step(reference, x, y)
    assert_same(models(deployed), models(reference))

    offline = fresh()
    offline_report = offline.fit_offline(x, y)
    root = offline.root_id
    if all(
        np.array_equal(through_float32(m), m)
        for nid, m in models(offline).items() if nid != root
    ):  # the frames lost nothing: same training, different transport
        assert_same(models(deployed), models(offline))
        assert report.node_train_accuracy == offline_report.node_train_accuracy
    else:  # only a projection scale that is not a power of two does this
        assert deployed.holographic


def test_lost_child_trains_the_parent_on_zeros(fresh, data):
    x, y = data
    deployed = fresh()
    order = list(deployed.hierarchy.postorder())
    victim = deployed.hierarchy.leaves()[-1]
    position = order.index(victim)
    deployment = SimulatedDeployment(
        deployed, MEDIA["wired-1gbps"], corrupt_bits=0.5
    )
    deployment._rng = LoseFramesOf({2 * position, 2 * position + 1})
    report = deployment.train(x, y)
    assert report.frames_corrupted == 2

    reference = fresh()
    drive_step(reference, x, y, lost={victim})
    assert_same(models(deployed), models(reference))

    clean = fresh()
    drive_step(clean, x, y)
    parent = deployed.hierarchy.nodes[victim].parent
    assert not np.array_equal(
        models(deployed)[parent], models(clean)[parent]
    )
