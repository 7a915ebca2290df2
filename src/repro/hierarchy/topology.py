"""IoT hierarchy topologies: STAR, TREE and deep trees (Sec. VI-A/G).

A hierarchy is a rooted tree. *End nodes* (leaves, level 1) own sensor
feature subsets; *gateway* nodes aggregate children; the *central* node
is the root. The paper evaluates

* **STAR** — every end node connects directly to the central node;
* **TREE** — three levels, gateways with two end-node children each
  (a leftover end node attaches straight to the central node, exactly
  as described for APRI/PDP);
* deeper trees (depth 3..7) for the Fig. 13 study, and the PECAN
  appliance→house→street→city layout.

Dimensionality allocation (Sec. IV-A): with global dimension ``D`` and
``n`` total features, a node covering ``n_i`` features receives
``d_i = round(D * n_i / n)`` dimensions; the root always gets ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Node", "Hierarchy", "build_star", "build_tree", "build_deep_tree", "build_pecan"]


@dataclass
class Node:
    """One device in the hierarchy."""

    node_id: int
    parent: Optional[int]
    children: List[int] = field(default_factory=list)
    #: 1 for end nodes, increasing toward the root.
    level: int = 1
    #: index into the feature partition; None for internal nodes.
    leaf_index: Optional[int] = None
    #: hypervector dimensionality assigned by allocate_dimensions().
    dimension: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Hierarchy:
    """Rooted tree of devices with dimension bookkeeping."""

    def __init__(self) -> None:
        self.nodes: Dict[int, Node] = {}
        self.root_id: Optional[int] = None
        self._next_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, parent: Optional[int] = None, leaf_index: Optional[int] = None) -> int:
        """Add a node under ``parent`` (or as root) and return its id."""
        if parent is None and self.root_id is not None:
            raise ValueError("hierarchy already has a root")
        if parent is not None and parent not in self.nodes:
            raise KeyError(f"unknown parent node {parent}")
        node_id = self._next_id
        self._next_id += 1
        node = Node(node_id=node_id, parent=parent, leaf_index=leaf_index)
        self.nodes[node_id] = node
        if parent is None:
            self.root_id = node_id
        else:
            self.nodes[parent].children.append(node_id)
        return node_id

    @property
    def id_bound(self) -> int:
        """Smallest integer exceeding every node id ever assigned.

        Ids are never reused after a drain, so this only grows; it is
        the stable count to draw per-node seed streams against (seed
        ``i`` must not depend on how many nodes currently exist).
        """
        return self._next_id

    def graft_leaf(self, parent: int) -> int:
        """Admit a new end node under ``parent`` at runtime.

        The new node takes the next free leaf index (so existing leaf
        indices — and therefore existing feature slices — are
        untouched) and the hierarchy is re-finalized. Returns the new
        node id. ``parent`` must be a gateway or the central node:
        grafting under an end node would silently convert it into a
        gateway and orphan its feature slice.
        """
        if parent not in self.nodes:
            raise KeyError(f"unknown parent node {parent}")
        if self.nodes[parent].is_leaf:
            raise ValueError(
                f"cannot graft under end node {parent}; the parent must "
                "be a gateway or the central node"
            )
        node_id = self.add_node(parent=parent, leaf_index=len(self.leaves()))
        self.finalize()
        return node_id

    def remove_leaf(self, leaf_id: int) -> List[int]:
        """Drain an end node, cascading through emptied gateways.

        Gateways left childless are removed too (they would have
        nothing to aggregate and would fail finalization), and the
        remaining leaf indices are compacted to keep the 0..L-1
        invariant. Returns every removed node id, the leaf first.
        Removed ids are never reused — see :attr:`id_bound`.
        """
        node = self.nodes.get(leaf_id)
        if node is None:
            raise KeyError(f"unknown node {leaf_id}")
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not an end node")
        if len(self.leaves()) <= 1:
            raise ValueError("cannot remove the last end node")
        assert node.parent is not None  # >1 leaf implies a non-leaf root
        removed_index = node.leaf_index
        removed = [leaf_id]
        self.nodes[node.parent].children.remove(leaf_id)
        current: Optional[int] = node.parent
        del self.nodes[leaf_id]
        while current is not None:
            gateway = self.nodes[current]
            if gateway.children or gateway.parent is None:
                break
            removed.append(current)
            self.nodes[gateway.parent].children.remove(current)
            del self.nodes[current]
            current = gateway.parent
        assert removed_index is not None
        for n in self.nodes.values():
            if n.is_leaf and n.leaf_index is not None and n.leaf_index > removed_index:
                n.leaf_index -= 1
        self.finalize()
        return removed

    def spec(self) -> dict:
        """JSON-safe structural description for checkpointing.

        Captures ids, parents, leaf indices and the id bound; children
        order is recoverable because ids are assigned in insertion
        order (``add_node`` appends, so a parent's children are always
        sorted by id).
        """
        return {
            "next_id": self._next_id,
            "nodes": [
                {
                    "id": n.node_id,
                    "parent": n.parent,
                    "leaf_index": n.leaf_index,
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.node_id)
            ],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Hierarchy":
        """Reconstruct a (possibly id-gapped) hierarchy from :meth:`spec`.

        Bypasses sequential id assignment so drained topologies restore
        with their original ids — required for the node-id-keyed seed
        streams to regenerate identical encoders and projections.
        """
        h = cls()
        entries = sorted(spec["nodes"], key=lambda e: int(e["id"]))
        for entry in entries:
            node_id = int(entry["id"])
            parent = entry["parent"]
            parent = None if parent is None else int(parent)
            leaf_index = entry["leaf_index"]
            leaf_index = None if leaf_index is None else int(leaf_index)
            if node_id in h.nodes:
                raise ValueError(f"duplicate node id {node_id} in spec")
            if parent is None:
                if h.root_id is not None:
                    raise ValueError("spec has multiple roots")
                h.root_id = node_id
            elif parent not in h.nodes:
                raise ValueError(
                    f"spec node {node_id} references missing parent {parent}"
                )
            h.nodes[node_id] = Node(
                node_id=node_id, parent=parent, leaf_index=leaf_index
            )
            if parent is not None:
                h.nodes[parent].children.append(node_id)
        next_id = int(spec["next_id"])
        if h.nodes and next_id <= max(h.nodes):
            raise ValueError(
                f"spec next_id {next_id} does not exceed max node id {max(h.nodes)}"
            )
        h._next_id = next_id
        return h.finalize()

    def finalize(self) -> "Hierarchy":
        """Compute levels and validate structure. Call after building."""
        if self.root_id is None:
            raise ValueError("hierarchy has no root")
        # Levels: leaves are level 1; internal = 1 + max(child levels).
        for node_id in self.postorder():
            node = self.nodes[node_id]
            if node.is_leaf:
                node.level = 1
                if node.leaf_index is None:
                    raise ValueError(f"leaf {node_id} has no leaf_index")
            else:
                node.level = 1 + max(self.nodes[c].level for c in node.children)
        leaf_indices = sorted(
            n.leaf_index for n in self.nodes.values() if n.is_leaf
        )
        if leaf_indices != list(range(len(leaf_indices))):
            raise ValueError(
                f"leaf indices must be 0..L-1 without gaps, got {leaf_indices}"
            )
        return self

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def postorder(self) -> Iterator[int]:
        """Children-before-parent traversal from the root."""
        if self.root_id is None:
            return iter(())

        def walk(node_id: int) -> Iterator[int]:
            for child in self.nodes[node_id].children:
                yield from walk(child)
            yield node_id

        return walk(self.root_id)

    def preorder(self) -> Iterator[int]:
        """Parent-before-children traversal from the root."""
        if self.root_id is None:
            return iter(())

        def walk(node_id: int) -> Iterator[int]:
            yield node_id
            for child in self.nodes[node_id].children:
                yield from walk(child)

        return walk(self.root_id)

    def leaves(self) -> List[int]:
        """End-node ids ordered by leaf_index."""
        found = [n for n in self.nodes.values() if n.is_leaf]
        return [n.node_id for n in sorted(found, key=lambda n: n.leaf_index)]

    def internal_nodes(self) -> List[int]:
        """Gateway + central node ids in postorder."""
        return [nid for nid in self.postorder() if not self.nodes[nid].is_leaf]

    def subtree_leaves(self, node_id: int) -> List[int]:
        """Leaf ids under ``node_id`` (itself if a leaf)."""
        node = self.nodes[node_id]
        if node.is_leaf:
            return [node_id]
        out: List[int] = []
        for child in node.children:
            out.extend(self.subtree_leaves(child))
        return out

    def path_to_root(self, node_id: int) -> List[int]:
        """Node ids from ``node_id`` (inclusive) up to the root."""
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        path = [node_id]
        current = self.nodes[node_id]
        while current.parent is not None:
            path.append(current.parent)
            current = self.nodes[current.parent]
        return path

    @property
    def depth(self) -> int:
        """Number of levels (root level)."""
        if self.root_id is None:
            return 0
        return self.nodes[self.root_id].level

    def nodes_at_level(self, level: int) -> List[int]:
        return [n.node_id for n in self.nodes.values() if n.level == level]

    # ------------------------------------------------------------------
    # dimensionality allocation (Sec. IV-A)
    # ------------------------------------------------------------------
    def allocate_dimensions(self, total_dimension: int, feature_counts: List[int]) -> None:
        """Assign ``d_i = round(D * n_i / n)`` per node.

        ``feature_counts[i]`` is the number of features of leaf i. An
        internal node's feature coverage is the sum over its subtree;
        its dimension is the sum of its children's dimensions (so
        concatenation is well-defined), and the root therefore gets
        (within rounding) the full ``D``.
        """
        if total_dimension <= 0:
            raise ValueError("total_dimension must be positive")
        leaves = self.leaves()
        if len(feature_counts) != len(leaves):
            raise ValueError(
                f"{len(feature_counts)} feature counts for {len(leaves)} leaves"
            )
        total_features = sum(feature_counts)
        if total_features <= 0:
            raise ValueError("feature counts must sum to a positive value")
        for leaf_id in leaves:
            node = self.nodes[leaf_id]
            share = feature_counts[node.leaf_index] / total_features
            node.dimension = max(8, int(round(total_dimension * share)))
        for node_id in self.postorder():
            node = self.nodes[node_id]
            if not node.is_leaf:
                node.dimension = sum(self.nodes[c].dimension for c in node.children)


def build_star(n_end_nodes: int) -> Hierarchy:
    """STAR topology: all end nodes attach directly to the central node."""
    if n_end_nodes < 1:
        raise ValueError("need at least one end node")
    h = Hierarchy()
    root = h.add_node()
    for i in range(n_end_nodes):
        h.add_node(parent=root, leaf_index=i)
    return h.finalize()


def build_tree(n_end_nodes: int, fanout: int = 2) -> Hierarchy:
    """Three-level TREE: gateways with ``fanout`` end-node children.

    Mirrors Sec. VI-A: end nodes are grouped ``fanout`` at a time under
    gateways; a leftover group smaller than 2 attaches directly to the
    central node (as in the paper's 5-node APRI example: two gateways of
    two, one end node straight to the root).
    """
    if n_end_nodes < 1:
        raise ValueError("need at least one end node")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    h = Hierarchy()
    root = h.add_node()
    leaf = 0
    remaining = n_end_nodes
    while remaining > 0:
        group = min(fanout, remaining)
        if group == 1:
            h.add_node(parent=root, leaf_index=leaf)
            leaf += 1
        else:
            gateway = h.add_node(parent=root)
            for _ in range(group):
                h.add_node(parent=gateway, leaf_index=leaf)
                leaf += 1
        remaining -= group
    return h.finalize()


def build_deep_tree(n_end_nodes: int, depth: int, fanout: int = 2) -> Hierarchy:
    """Balanced tree of the requested ``depth`` (Fig. 13 study).

    End nodes are grouped under chains of gateways so the root sits at
    level ``depth``. With few end nodes the extra levels become chains
    of single-child gateways — matching the paper's observation that
    deeper configurations mostly add communication hops.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if n_end_nodes < 1:
        raise ValueError("need at least one end node")
    h = Hierarchy()
    root = h.add_node()

    def grow(parent: int, level_above_leaves: int, leaf_counter: list[int], quota: int) -> None:
        """Attach ``quota`` leaves below ``parent`` across the remaining levels."""
        if quota <= 0:
            return
        if level_above_leaves == 1:
            for _ in range(quota):
                h.add_node(parent=parent, leaf_index=leaf_counter[0])
                leaf_counter[0] += 1
            return
        n_groups = min(fanout, quota)
        base, extra = divmod(quota, n_groups)
        for g in range(n_groups):
            child_quota = base + (1 if g < extra else 0)
            if child_quota == 0:
                continue
            gateway = h.add_node(parent=parent)
            grow(gateway, level_above_leaves - 1, leaf_counter, child_quota)

    grow(root, depth - 1, [0], n_end_nodes)
    return h.finalize()


def build_pecan(
    n_appliances: int = 312,
    appliances_per_house: int = 6,
    houses_per_street: int = 7,
) -> Hierarchy:
    """The four-level PECAN layout (Fig. 8).

    Appliance end nodes group under house nodes (up to 12 per house in
    the paper; default 6 gives the 52-house neighbourhood), houses group
    under street nodes (6-7 per street), streets attach to the city
    (central) node.
    """
    if n_appliances < 1:
        raise ValueError("need at least one appliance")
    if appliances_per_house < 1 or houses_per_street < 1:
        raise ValueError("grouping factors must be >= 1")
    h = Hierarchy()
    root = h.add_node()
    leaf = 0
    street: Optional[int] = None
    houses_in_street = 0
    while leaf < n_appliances:
        if street is None or houses_in_street == houses_per_street:
            street = h.add_node(parent=root)
            houses_in_street = 0
        house = h.add_node(parent=street)
        houses_in_street += 1
        for _ in range(min(appliances_per_house, n_appliances - leaf)):
            h.add_node(parent=house, leaf_index=leaf)
            leaf += 1
    return h.finalize()
