"""Unit + integration tests for federated (hierarchical) training."""

import numpy as np
import pytest

from conftest import csr_dense
from repro.config import EdgeHDConfig
from repro.core.hypervector import sign_binarize
from repro.data import partition_features
from repro.hierarchy.federation import EdgeHDFederation, batch_groups
from repro.hierarchy.topology import build_star, build_tree
from repro.network.message import MessageKind


class TestBatchGroups:
    def test_covers_all_samples_once(self):
        y = np.array([0, 1, 0, 1, 0, 0, 1, 2])
        groups = batch_groups(y, batch_size=2)
        seen = np.concatenate([idx for _, idx in groups])
        assert sorted(seen.tolist()) == list(range(8))

    def test_batches_are_class_pure(self):
        y = np.array([0, 1, 0, 1, 0, 0, 1, 2])
        for cls, idx in batch_groups(y, batch_size=3):
            assert np.all(y[idx] == cls)

    def test_batch_sizes(self):
        y = np.zeros(10, dtype=int)
        groups = batch_groups(y, batch_size=4)
        assert [len(idx) for _, idx in groups] == [4, 4, 2]

    def test_b1_gives_per_sample(self):
        y = np.array([0, 1, 1])
        assert len(batch_groups(y, batch_size=1)) == 3

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            batch_groups(np.array([0, 1]), 0)

    def test_deterministic_pure_function(self):
        y = np.array([1, 0, 2, 1, 0])
        a = batch_groups(y, 2)
        b = batch_groups(y, 2)
        assert all(
            ca == cb and np.array_equal(ia, ib)
            for (ca, ia), (cb, ib) in zip(a, b)
        )


class TestConstruction:
    def test_partition_leaf_mismatch(self, apri_small, small_config):
        part = partition_features(apri_small.n_features, 4)
        with pytest.raises(ValueError):
            EdgeHDFederation(build_tree(3), part, 2, small_config)

    def test_invalid_classes(self, apri_small, small_config):
        part = partition_features(apri_small.n_features, 3)
        with pytest.raises(ValueError):
            EdgeHDFederation(build_tree(3), part, 1, small_config)

    def test_leaf_dimensions_proportional(self, trained_federation):
        fed, _, _ = trained_federation
        for leaf in fed.hierarchy.leaves():
            node = fed.hierarchy.nodes[leaf]
            n_local = len(fed.partition.columns(node.leaf_index))
            expected = round(fed.config.dimension * n_local / fed.partition.n_features)
            assert abs(node.dimension - expected) <= 8

    def test_every_node_has_artifacts(self, trained_federation):
        fed, _, _ = trained_federation
        for nid, node in fed.hierarchy.nodes.items():
            assert nid in fed.classifiers
            if node.is_leaf:
                assert nid in fed.encoders
            else:
                assert nid in fed.projections

    def test_spec_round_trips_through_json(self, trained_federation):
        """``from_spec(spec())`` regenerates every untrained artifact —
        what a checkpoint and a cluster worker rebuild from."""
        import json

        fed, _, data = trained_federation
        spec = fed.spec()
        assert sorted(spec) == [
            "config", "hierarchy", "holographic", "n_classes", "partition"
        ]
        twin = EdgeHDFederation.from_spec(json.loads(json.dumps(spec)))
        assert twin.spec() == spec
        assert twin.config == fed.config
        for nid, projection in fed.projections.items():
            assert np.array_equal(
                csr_dense(twin.projections[nid].matrix), csr_dense(projection.matrix)
            )
        twin.fit_offline(data.train_x, data.train_y)
        for nid, clf in fed.classifiers.items():
            assert np.array_equal(
                twin.classifiers[nid].class_hypervectors,
                clf.class_hypervectors,
            )


class TestEncoding:
    def test_encode_leaf_uses_local_columns(self, trained_federation):
        fed, _, data = trained_federation
        leaf = fed.hierarchy.leaves()[0]
        enc = fed.encode_leaf(leaf, data.test_x[:4])
        assert enc.shape == (4, fed.hierarchy.nodes[leaf].dimension)

    def test_encode_leaf_on_internal_raises(self, trained_federation):
        fed, _, data = trained_federation
        with pytest.raises(ValueError):
            fed.encode_leaf(fed.root_id, data.test_x[:1])

    def test_encode_all_shapes(self, trained_federation):
        fed, _, data = trained_federation
        encodings = fed.encode_all(data.test_x[:5])
        assert set(encodings) == set(fed.hierarchy.nodes)
        for nid, enc in encodings.items():
            assert enc.shape == (5, fed.hierarchy.nodes[nid].dimension)

    def test_forward_view_is_bipolar(self, trained_federation):
        fed, _, data = trained_federation
        for nid in fed.hierarchy.nodes:
            enc = fed.encode_at(nid, data.test_x[:3], view="forward")
            assert enc.dtype == np.int8
            assert set(np.unique(enc)) <= {-1, 1}

    def test_own_view_matches_encode_at(self, trained_federation):
        fed, _, data = trained_federation
        encodings = fed.encode_all(data.test_x[:3])
        root_enc = fed.encode_at(fed.root_id, data.test_x[:3])
        assert np.allclose(encodings[fed.root_id], root_enc)

    @pytest.mark.parametrize("holographic", [True, False])
    @pytest.mark.parametrize("view", ["own", "forward"])
    def test_encode_all_at_and_lazy_agree(self, apri_small, holographic, view):
        """One recurrence, three entry points: the same bits and dtype
        on every node — and the ones the definition gives (leaf →
        ``encode_leaf``; internal → ``combine_children`` over the
        children's forward views, forwarded binarized), with a
        projection or without one."""
        fed = EdgeHDFederation(
            build_tree(3),
            partition_features(apri_small.n_features, 3),
            apri_small.n_classes,
            EdgeHDConfig(dimension=512, seed=17),
            holographic=holographic,
        )
        rows = apri_small.test_x[:6]

        def by_definition(nid):
            node = fed.hierarchy.nodes[nid]
            if node.is_leaf:
                own = fed.encode_leaf(nid, rows)
                return own, own
            children = [by_definition(c)[1] for c in node.children]
            own = fed.combine_children(nid, children)
            return own, sign_binarize(own)

        eager = fed.encode_all(rows)
        lazy = fed.encode_lazy(rows)
        assert list(eager) == list(fed.hierarchy.postorder())
        for nid in eager:
            expected = by_definition(nid)[view == "forward"]
            candidates = [
                fed.encode_at(nid, rows, view=view), getattr(lazy, view)(nid),
            ]
            if view == "own":
                candidates.append(eager[nid])
            for got in candidates:
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)

    def test_invalid_view(self, trained_federation):
        fed, _, data = trained_federation
        with pytest.raises(ValueError):
            fed.encode_at(fed.root_id, data.test_x[:1], view="sideways")

    def test_encode_at_unknown_node(self, trained_federation):
        fed, _, data = trained_federation
        with pytest.raises(KeyError):
            fed.encode_at(999, data.test_x[:1])

    def test_combine_children_count_check(self, trained_federation):
        fed, _, _ = trained_federation
        root = fed.root_id
        with pytest.raises(ValueError):
            fed.combine_children(root, [np.ones(4)])

    def test_combine_children_on_leaf_raises(self, trained_federation):
        fed, _, _ = trained_federation
        with pytest.raises(ValueError):
            fed.combine_children(fed.hierarchy.leaves()[0], [])


class TestOfflineTraining:
    def test_all_nodes_trained(self, trained_federation):
        fed, report, _ = trained_federation
        for clf in fed.classifiers.values():
            assert clf.class_hypervectors is not None

    def test_messages_only_child_to_parent(self, trained_federation):
        fed, report, _ = trained_federation
        for msg in report.messages:
            assert fed.hierarchy.nodes[msg.source].parent == msg.destination

    def test_message_kinds(self, trained_federation):
        _, report, _ = trained_federation
        kinds = {m.kind for m in report.messages}
        assert kinds == {MessageKind.CLASS_MODEL, MessageKind.BATCH_HYPERVECTORS}

    def test_every_non_root_sends_model(self, trained_federation):
        fed, report, _ = trained_federation
        senders = {
            m.source for m in report.messages if m.kind == MessageKind.CLASS_MODEL
        }
        non_root = set(fed.hierarchy.nodes) - {fed.root_id}
        assert senders == non_root

    def test_training_much_cheaper_than_raw_upload(self, trained_federation):
        from repro.baselines.centralized import centralized_upload_messages

        fed, report, data = trained_federation
        raw = centralized_upload_messages(
            fed.hierarchy, fed.partition, data.n_train
        )
        raw_bytes = sum(m.payload_bytes for m in raw)
        assert report.total_bytes < raw_bytes

    def test_accuracy_by_level_trend(self, trained_federation):
        """End nodes < central node on the heterogeneous-feature data."""
        fed, _, data = trained_federation
        by_level = fed.accuracy_by_level(data.test_x, data.test_y)
        assert set(by_level) == {1, 2, 3}
        assert by_level[3] > by_level[1]

    def test_root_beats_chance_clearly(self, trained_federation):
        fed, _, data = trained_federation
        acc = fed.accuracy_at(fed.root_id, data.test_x, data.test_y)
        assert acc > 1.0 / data.n_classes + 0.2

    def test_internal_training_set_memory_is_one_float_array(
        self, apri_small, traced_peak
    ):
        """The root's training set holds one float64 array of its samples
        beside the projection's integer scratch (the int8 concatenation,
        the int16 operand and product, each padded to ``PAD_WIDTH``
        columns). A float64 copy of the projection took a second array."""
        from repro.core.projection import PAD_WIDTH

        fed = EdgeHDFederation(
            build_tree(3), partition_features(apri_small.n_features, 3),
            apri_small.n_classes,
            EdgeHDConfig(dimension=4096, batch_size=10, retrain_epochs=1,
                         seed=17),
        )
        mat, y, groups = fed.training_inputs(apri_small.train_x, apri_small.train_y)
        forwarded = {}
        for node_id in fed.hierarchy.postorder():
            children = fed.hierarchy.nodes[node_id].children
            if node_id != fed.root_id:
                forwarded[node_id] = fed.training_set(
                    node_id, mat, y, groups, [forwarded[c] for c in children]
                )[2]
        children = fed.hierarchy.nodes[fed.root_id].children
        (samples, _, _), peak = traced_peak(lambda: fed.training_set(
            fed.root_id, mat, y, groups, [forwarded[c] for c in children]
        ))
        n, dimension = samples.shape
        in_dimension = sum(forwarded[c].shape[1] for c in children)
        width = -(-n // PAD_WIDTH) * PAD_WIDTH
        assert samples.dtype == np.float64
        assert peak <= samples.nbytes + n * in_dimension + 2 * width * (
            in_dimension + dimension
        ) + 2 ** 17, peak

    def test_float_combine_frees_the_operand_first(self, traced_peak):
        """A float64 combine at an internal node holds the concatenation,
        the padded operand, the product and one block of the matrix data
        as float64 while it multiplies; the operand goes before the
        float64 result is formed, so the result does not add to that.
        Holding the operand to the end took one more result-sized array
        (4.5 MB here)."""
        from repro.core.projection import PAD_WIDTH

        fed = EdgeHDFederation(
            build_tree(3), partition_features(30, 3), 4,
            EdgeHDConfig(dimension=4096, seed=17),
        )
        children = fed.hierarchy.nodes[fed.root_id].children
        rng = np.random.default_rng(0)
        n = 200
        parts = [
            rng.standard_normal((n, fed.hierarchy.nodes[c].dimension))
            for c in children
        ]
        out, peak = traced_peak(lambda: fed.combine_children(fed.root_id, parts))
        in_dimension = sum(part.shape[1] for part in parts)
        width = -(-n // PAD_WIDTH) * PAD_WIDTH
        dimension = fed.hierarchy.nodes[fed.root_id].dimension
        nnz = fed.projections[fed.root_id].matrix.nnz
        assert out.dtype == np.float64 and out.shape == (n, dimension)
        assert peak <= 8 * (
            n * in_dimension + width * (in_dimension + dimension) + nnz
        ) + 2 ** 16, peak

    def test_one_row_float_combine_converts_one_block(self, traced_peak):
        """A one-row float64 combine at a D = 4,096 root holds its result
        and one block of the int16 matrix's data as float64, beside the
        row-sized concatenation and operand. Converting the whole
        matrix's data, as ``csr_matrix``'s ``@`` does, peaked at 2.20 MB
        here, 8 bytes a non-zero."""
        from repro.core.projection import _UPCAST_BLOCK_BYTES

        fed = EdgeHDFederation(
            build_tree(3), partition_features(30, 3), 4,
            EdgeHDConfig(dimension=4096, seed=17),
        )
        children = fed.hierarchy.nodes[fed.root_id].children
        rng = np.random.default_rng(1)
        parts = [
            rng.standard_normal((1, fed.hierarchy.nodes[c].dimension))
            for c in children
        ]
        fed.combine_children(fed.root_id, parts)
        out, peak = traced_peak(lambda: fed.combine_children(fed.root_id, parts))
        in_dimension = sum(part.shape[1] for part in parts)
        assert out.shape == (1, fed.hierarchy.nodes[fed.root_id].dimension)
        assert 8 * fed.projections[fed.root_id].matrix.nnz > 2 * 10 ** 6
        assert peak <= 2 * out.nbytes + 16 * in_dimension + (
            _UPCAST_BLOCK_BYTES + 2 ** 16
        ), peak

    def test_sample_label_mismatch(self, apri_small, small_config):
        part = partition_features(apri_small.n_features, 3)
        fed = EdgeHDFederation(build_tree(3), part, 2, small_config)
        with pytest.raises(ValueError):
            fed.fit_offline(apri_small.train_x, apri_small.train_y[:-1])

    def test_star_topology_trains(self, apri_small, small_config):
        part = partition_features(apri_small.n_features, 3)
        fed = EdgeHDFederation(build_star(3), part, apri_small.n_classes, small_config)
        fed.fit_offline(apri_small.train_x, apri_small.train_y)
        acc = fed.accuracy_at(fed.root_id, apri_small.test_x, apri_small.test_y)
        assert acc > 0.5

    def test_non_holographic_mode(self, apri_small, small_config):
        part = partition_features(apri_small.n_features, 3)
        fed = EdgeHDFederation(
            build_tree(3), part, apri_small.n_classes, small_config,
            holographic=False,
        )
        assert all(p is None for p in fed.projections.values())
        fed.fit_offline(apri_small.train_x, apri_small.train_y)
        acc = fed.accuracy_at(fed.root_id, apri_small.test_x, apri_small.test_y)
        assert acc > 0.5

    def test_deterministic_training(self, apri_small, small_config):
        part = partition_features(apri_small.n_features, 3)
        accs = []
        for _ in range(2):
            fed = EdgeHDFederation(
                build_tree(3), part, apri_small.n_classes, small_config
            )
            fed.fit_offline(apri_small.train_x, apri_small.train_y)
            accs.append(
                fed.accuracy_at(fed.root_id, apri_small.test_x, apri_small.test_y)
            )
        assert accs[0] == accs[1]
