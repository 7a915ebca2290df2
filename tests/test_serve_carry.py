"""Each query is encoded once per node it needs, in every driver.

A parent projects what its children forward (Sec. IV-A). The offline
walk and the serving runtime therefore reuse the forwards a query's
path already computed — the runtime carries them up on the request —
and encode only the sibling subtrees a cohort lacks:

* **count pin** — with every query escalating to the root of
  ``build_tree(5)``, each (query, leaf) pair passes through
  ``encode_leaf`` exactly once and each (query, internal node) pair
  through its projection exactly once, served and offline alike;
* **damage-replay oracle** — under payload damage only, the served
  answers equal a reference walk that encodes each node's row from raw
  features and damages it once the request has escalated: a carried
  row that was damaged (or otherwise wrong) would change answers.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.config import EdgeHDConfig
from repro.data import partition_features
from repro.hierarchy import EdgeHDFederation, HierarchicalInference, build_tree
from repro.network.medium import get_medium
from repro.serve import FaultPlan, ServeConfig, ServingRuntime, make_workload

MEDIUM = get_medium("wired-1gbps")
CONFIG = ServeConfig(max_batch=8, queue_depth=512)
N_QUERIES = 60


@pytest.fixture(scope="module")
def five_leaves(apri_small):
    """build_tree(5): two gateways of two end nodes, one end node under
    the root."""
    federation = EdgeHDFederation(
        build_tree(5),
        partition_features(apri_small.n_features, 5),
        apri_small.n_classes,
        EdgeHDConfig(dimension=1000, batch_size=10, retrain_epochs=4, seed=19),
    )
    federation.fit_offline(apri_small.train_x, apri_small.train_y)
    return federation, apri_small.test_x[:N_QUERIES]


class _Counts:
    """Rows through ``encode_leaf`` (by query) and each projection."""

    def __init__(self, monkeypatch, federation, queries):
        self.leaf_rows = Counter()
        self.projected = Counter()
        row_of = {row.tobytes(): i for i, row in enumerate(queries)}
        assert len(row_of) == len(queries)
        encode_leaf = federation.encode_leaf

        def counted_leaf(leaf_id, features):
            for row in np.atleast_2d(features):
                self.leaf_rows[leaf_id, row_of[row.tobytes()]] += 1
            return encode_leaf(leaf_id, features)

        monkeypatch.setattr(federation, "encode_leaf", counted_leaf)
        for node_id, projection in federation.projections.items():
            project = projection.project

            def counted(hypervectors, node_id=node_id, project=project):
                self.projected[node_id] += np.atleast_2d(hypervectors).shape[0]
                return project(hypervectors)

            monkeypatch.setattr(projection, "project", counted)

    def assert_once(self, federation, n):
        hierarchy = federation.hierarchy
        leaves = hierarchy.leaves()
        assert self.leaf_rows == Counter(
            {(leaf, i): 1 for leaf in leaves for i in range(n)}
        )
        internal = [nid for nid in hierarchy.nodes if nid not in leaves]
        assert self.projected == Counter({nid: n for nid in internal})


class TestEncodeOnce:
    @pytest.fixture
    def to_root(self, five_leaves):
        """Threshold 1.0: no node below the root is ever confident."""
        federation, queries = five_leaves
        inference = HierarchicalInference(federation, confidence_threshold=1.0)
        return federation, inference, queries

    def _all_at_root(self, federation, nodes):
        assert set(np.asarray(nodes).tolist()) == {federation.root_id}

    def test_offline_walk(self, to_root, monkeypatch):
        federation, inference, queries = to_root
        counts = _Counts(monkeypatch, federation, queries)
        outcome = inference.run(queries, seed=4)
        self._all_at_root(federation, outcome.deciding_node)
        counts.assert_once(federation, len(queries))

    def test_served(self, to_root, monkeypatch):
        federation, inference, queries = to_root
        workload = make_workload(queries, inference, seed=4)
        counts = _Counts(monkeypatch, federation, queries)
        result = ServingRuntime(inference, MEDIUM, CONFIG).serve_open_loop(
            workload, rate_rps=4000.0, seed=1
        )
        self._all_at_root(
            federation, [r.deciding_node for r in result.responses]
        )
        counts.assert_once(federation, len(queries))


def _reference_walk(inference, workload, plan):
    """One request at a time, every row encoded from raw features."""
    federation = inference.federation
    nodes = federation.hierarchy.nodes
    labels, deciders = [], []
    for index, (row, leaf) in enumerate(
        zip(workload.features, workload.start_leaves)
    ):
        node_id, escalated = int(leaf), False
        while True:
            encoded = federation.encode_at(node_id, row[None])[0]
            if escalated:
                encoded = plan.corrupt(
                    encoded.astype(np.float64), node_id, index
                )
            decided = federation.classifiers[node_id].predict(
                encoded[None], search=inference.search
            )
            parent = nodes[node_id].parent
            confident = (
                decided.top_confidence[0] >= inference.confidence_threshold
            )
            if parent is None or confident:
                break
            node_id, escalated = parent, True
        labels.append(int(decided.labels[0]))
        deciders.append(node_id)
    return labels, deciders


class TestDamageReplayOracle:
    @pytest.mark.parametrize(
        "dimension_loss, block_loss", [(0.3, 0.0), (0.0, 0.4), (0.25, 0.25)]
    )
    def test_served_equals_reference(
        self, five_leaves, dimension_loss, block_loss
    ):
        federation, queries = five_leaves
        inference = HierarchicalInference(federation, confidence_threshold=0.8)
        workload = make_workload(queries, inference, seed=5)
        plan = FaultPlan(
            seed=7, dimension_loss=dimension_loss, block_loss=block_loss,
            block_size=64,
        )
        result = ServingRuntime(
            inference, MEDIUM, CONFIG, fault_plan=plan
        ).serve_open_loop(workload, rate_rps=4000.0, seed=1)
        labels, deciders = _reference_walk(inference, workload, plan)
        assert not any(r.degraded or r.shed for r in result.responses)
        assert [r.label for r in result.responses] == labels
        assert [r.deciding_node for r in result.responses] == deciders
        # The oracle is only as strong as the rows it damages: most
        # requests must reach an internal node, some the root.
        levels = Counter(r.deciding_level for r in result.responses)
        assert levels[1] < len(queries) / 2
        assert levels[federation.hierarchy.depth] > 0
