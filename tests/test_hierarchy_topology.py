"""Unit tests for hierarchy topologies and dimension allocation."""

import pytest

from repro.hierarchy.topology import (
    Hierarchy,
    build_deep_tree,
    build_pecan,
    build_star,
    build_tree,
)


class TestStar:
    def test_structure(self):
        h = build_star(5)
        assert h.depth == 2
        assert len(h.leaves()) == 5
        root = h.nodes[h.root_id]
        assert len(root.children) == 5
        assert all(h.nodes[c].is_leaf for c in root.children)

    def test_single_node_star(self):
        h = build_star(1)
        assert h.depth == 2
        assert len(h.leaves()) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_star(0)


class TestTree:
    def test_three_levels(self):
        h = build_tree(4)
        assert h.depth == 3
        assert len(h.leaves()) == 4
        gateways = [n for n in h.internal_nodes() if n != h.root_id]
        assert len(gateways) == 2

    def test_leftover_leaf_attaches_to_root(self):
        """APRI-style: 5 end nodes -> two gateways of two + one direct."""
        h = build_tree(5)
        root = h.nodes[h.root_id]
        direct_leaves = [c for c in root.children if h.nodes[c].is_leaf]
        assert len(direct_leaves) == 1
        gateways = [c for c in root.children if not h.nodes[c].is_leaf]
        assert len(gateways) == 2
        for g in gateways:
            assert len(h.nodes[g].children) == 2

    def test_custom_fanout(self):
        h = build_tree(9, fanout=3)
        gateways = [n for n in h.internal_nodes() if n != h.root_id]
        assert len(gateways) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_tree(0)
        with pytest.raises(ValueError):
            build_tree(4, fanout=1)


class TestDeepTree:
    @pytest.mark.parametrize("depth", [3, 4, 5, 6, 7])
    def test_requested_depth(self, depth):
        h = build_deep_tree(8, depth=depth)
        assert h.depth == depth
        assert len(h.leaves()) == 8

    def test_all_leaves_at_level_one(self):
        h = build_deep_tree(6, depth=5)
        for leaf in h.leaves():
            assert h.nodes[leaf].level == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_deep_tree(4, depth=1)
        with pytest.raises(ValueError):
            build_deep_tree(0, depth=3)


class TestPecan:
    def test_four_levels(self):
        h = build_pecan(n_appliances=36, appliances_per_house=6, houses_per_street=3)
        assert h.depth == 4
        assert len(h.leaves()) == 36
        houses = h.nodes_at_level(2)
        streets = h.nodes_at_level(3)
        assert len(houses) == 6
        assert len(streets) == 2

    def test_default_scale(self):
        h = build_pecan()
        assert len(h.leaves()) == 312
        assert h.depth == 4
        assert len(h.nodes_at_level(2)) == 52  # houses

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_pecan(n_appliances=0)
        with pytest.raises(ValueError):
            build_pecan(appliances_per_house=0)


class TestTraversal:
    @pytest.fixture()
    def tree(self):
        return build_tree(4)

    def test_postorder_children_first(self, tree):
        order = list(tree.postorder())
        position = {nid: i for i, nid in enumerate(order)}
        for node in tree.nodes.values():
            for child in node.children:
                assert position[child] < position[node.node_id]
        assert order[-1] == tree.root_id

    def test_preorder_parent_first(self, tree):
        order = list(tree.preorder())
        position = {nid: i for i, nid in enumerate(order)}
        for node in tree.nodes.values():
            for child in node.children:
                assert position[child] > position[node.node_id]
        assert order[0] == tree.root_id

    def test_subtree_leaves(self, tree):
        assert sorted(tree.subtree_leaves(tree.root_id)) == sorted(tree.leaves())
        leaf = tree.leaves()[0]
        assert tree.subtree_leaves(leaf) == [leaf]

    def test_path_to_root(self, tree):
        leaf = tree.leaves()[0]
        path = tree.path_to_root(leaf)
        assert path[0] == leaf
        assert path[-1] == tree.root_id
        assert len(path) == 3

    def test_path_unknown_node(self, tree):
        with pytest.raises(KeyError):
            tree.path_to_root(999)

    def test_leaves_ordered_by_index(self, tree):
        leaves = tree.leaves()
        indices = [tree.nodes[l].leaf_index for l in leaves]
        assert indices == sorted(indices)


class TestDimensionAllocation:
    def test_proportional(self):
        h = build_star(2)
        h.allocate_dimensions(1000, [30, 10])
        leaves = h.leaves()
        d0 = h.nodes[leaves[0]].dimension
        d1 = h.nodes[leaves[1]].dimension
        assert d0 == 750 and d1 == 250
        assert h.nodes[h.root_id].dimension == 1000

    def test_internal_is_sum_of_children(self):
        h = build_tree(4)
        h.allocate_dimensions(4000, [10, 10, 10, 10])
        for nid in h.internal_nodes():
            node = h.nodes[nid]
            assert node.dimension == sum(
                h.nodes[c].dimension for c in node.children
            )

    def test_minimum_dimension(self):
        h = build_star(2)
        h.allocate_dimensions(100, [1, 99])
        assert h.nodes[h.leaves()[0]].dimension >= 8

    def test_count_mismatch(self):
        h = build_star(3)
        with pytest.raises(ValueError):
            h.allocate_dimensions(100, [10, 10])

    def test_invalid_total(self):
        h = build_star(2)
        with pytest.raises(ValueError):
            h.allocate_dimensions(0, [5, 5])


class TestManualConstruction:
    def test_two_roots_rejected(self):
        h = Hierarchy()
        h.add_node()
        with pytest.raises(ValueError):
            h.add_node()

    def test_unknown_parent(self):
        h = Hierarchy()
        with pytest.raises(KeyError):
            h.add_node(parent=5)

    def test_finalize_without_root(self):
        with pytest.raises(ValueError):
            Hierarchy().finalize()

    def test_leaf_without_index_rejected(self):
        h = Hierarchy()
        root = h.add_node()
        h.add_node(parent=root)  # leaf with no leaf_index
        with pytest.raises(ValueError):
            h.finalize()

    def test_gapped_leaf_indices_rejected(self):
        h = Hierarchy()
        root = h.add_node()
        h.add_node(parent=root, leaf_index=0)
        h.add_node(parent=root, leaf_index=2)
        with pytest.raises(ValueError):
            h.finalize()

    def test_len(self):
        h = build_tree(4)
        assert len(h.nodes) == 7  # 4 leaves + 2 gateways + root
