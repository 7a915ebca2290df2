"""Scalability study: cost vs number of end nodes (extension).

Not a paper figure, but the natural extension of Fig. 10/13: how do
training time and traffic grow as the swarm grows from a handful of
devices to a city-scale deployment? Three systems are compared
analytically at the paper's workload shape:

* **EdgeHD** — models/batches upward, per-node compute in parallel;
* **centralized HD** — raw upload + central compute;
* **vertical-federated DNN** — per-epoch embedding/gradient traffic,
  the "non-trivial" DNN federation the paper's challenge (iii)
  describes. It is priced analytically in :func:`run_scaling`: every
  non-root node carries each of its subtree's devices' embeddings up
  and their gradients down, once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.baselines.centralized import centralized_upload_messages
from repro.config import DEFAULT_CONFIG
from repro.data import partition_features
from repro.experiments.efficiency import (
    _edgehd_node_training_ops,
    edgehd_training_messages,
)
from repro.hardware.ops import (
    dnn_training_ops,
    encoding_ops,
    hd_initial_training_ops,
    hd_retrain_ops,
)
from repro.hardware.platforms import FPGA_KINTEX7_CENTRAL, FPGA_NODE, GPU_GTX1080TI
from repro.hierarchy.topology import build_tree
from repro.network.medium import get_medium
from repro.network.simulator import NetworkSimulator
from repro.utils.tables import format_table

__all__ = ["ScalingResult", "run_scaling", "format_scaling"]

SYSTEMS = ("edgehd", "centralized-hd", "vertical-dnn")


@dataclass
class ScalingResult:
    """time[(system, n_nodes)] seconds and traffic[(system, n_nodes)] bytes."""

    time_s: Dict[tuple, float] = field(default_factory=dict)
    traffic_bytes: Dict[tuple, int] = field(default_factory=dict)
    node_counts: Sequence[int] = ()

    def growth(self, system: str) -> float:
        """time(largest) / time(smallest)."""
        lo, hi = min(self.node_counts), max(self.node_counts)
        return self.time_s[(system, hi)] / self.time_s[(system, lo)]


def run_scaling(
    node_counts: Sequence[int] = (4, 8, 16, 32, 64, 128),
    features_per_node: int = 4,
    n_samples: int = 50_000,
    n_classes: int = 4,
    medium: str = "wifi-802.11n",
    dimension: int = 4000,
    dnn_epochs: int = 20,
    embedding_dim: int = 32,
) -> ScalingResult:
    """Analytic sweep over swarm sizes (TREE topology)."""
    if min(node_counts) < 2:
        raise ValueError("need at least 2 end nodes")
    med = get_medium(medium)
    result = ScalingResult(node_counts=tuple(node_counts))
    for n_nodes in node_counts:
        n_features = n_nodes * features_per_node
        hierarchy = build_tree(n_nodes)
        partition = partition_features(n_features, n_nodes)
        hierarchy.allocate_dimensions(dimension, partition.feature_counts())
        sim = NetworkSimulator(hierarchy, med)

        # --- EdgeHD ---------------------------------------------------
        node_ops = _edgehd_node_training_ops(
            hierarchy, partition, n_samples, n_classes, batch_size=75
        )
        compute = {n: FPGA_NODE.execution_time(o) for n, o in node_ops.items()}
        messages = edgehd_training_messages(hierarchy, n_samples, n_classes, 75)
        run = sim.simulate_upward_pass(messages, compute_time=compute)
        result.time_s[("edgehd", n_nodes)] = run.makespan_s
        result.traffic_bytes[("edgehd", n_nodes)] = sum(
            m.payload_bytes for m in messages
        )

        # --- centralized HD --------------------------------------------
        upload = centralized_upload_messages(hierarchy, partition, n_samples)
        comm = sim.simulate_upward_pass(upload)
        ops = (
            encoding_ops(n_samples, n_features, dimension, DEFAULT_CONFIG.sparsity)
            + hd_initial_training_ops(n_samples, dimension)
            + hd_retrain_ops(
                n_samples, dimension, n_classes, DEFAULT_CONFIG.retrain_epochs
            )
        )
        result.time_s[("centralized-hd", n_nodes)] = (
            comm.makespan_s + FPGA_KINTEX7_CENTRAL.execution_time(ops)
        )
        result.traffic_bytes[("centralized-hd", n_nodes)] = sum(
            m.payload_bytes for m in upload
        )

        # --- vertical-federated DNN -------------------------------------
        per_device = n_samples * embedding_dim * 4
        subtree = {
            nid: len(hierarchy.subtree_leaves(nid)) for nid in hierarchy.nodes
        }
        fed_traffic = sum(
            2 * per_device * subtree[nid] * dnn_epochs
            for nid, node in hierarchy.nodes.items()
            if node.parent is not None
        )
        # One epoch's embedding round trips serialize per level; compute
        # the head's training cost on the central GPU.
        head_ops = dnn_training_ops(
            n_samples, embedding_dim * n_nodes, (64,), n_classes, dnn_epochs
        )
        comm_time = fed_traffic * 8 / med.bandwidth_bps
        result.time_s[("vertical-dnn", n_nodes)] = (
            comm_time + GPU_GTX1080TI.execution_time(head_ops)
        )
        result.traffic_bytes[("vertical-dnn", n_nodes)] = fed_traffic
    return result


def format_scaling(result: ScalingResult) -> str:
    rows = []
    for n in result.node_counts:
        rows.append(
            [n]
            + [result.time_s[(s, n)] for s in SYSTEMS]
            + [result.traffic_bytes[(s, n)] / 1e6 for s in SYSTEMS]
        )
    table = format_table(
        ["End nodes"]
        + [f"{s} time (s)" for s in SYSTEMS]
        + [f"{s} MB" for s in SYSTEMS],
        rows,
        title="Scaling — training cost vs swarm size (extension study)",
        ndigits=3,
    )
    lines = [table, ""]
    for system in SYSTEMS:
        lines.append(
            f"time growth {min(result.node_counts)} -> "
            f"{max(result.node_counts)} nodes, {system}: "
            f"{result.growth(system):.1f}x"
        )
    return "\n".join(lines)
