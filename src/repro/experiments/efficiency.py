"""Fig. 10: execution time and energy of the four system configurations.

Configurations (Sec. VI-D):

* ``dnn-gpu``  — centralized DNN training/inference on the server GPU;
* ``hd-gpu``   — centralized EdgeHD algorithm on the GPU;
* ``hd-fpga``  — centralized EdgeHD algorithm on the Kintex-7 design;
* ``edgehd``   — the hierarchical system: every node runs its share on
  a per-node FPGA, models/batches (not raw data) travel upward.

All costs are analytic: op counts from the dataset's *paper-scale*
shape (Table I sample counts) are priced by the platform models, and
the message lists are replayed through the discrete-event simulator on
the chosen medium. Results are normalized to DNN-GPU on TREE, as in the
figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.compression import compressed_bundle_bytes
from repro.core.model import class_model_bytes, hypervector_bytes
from repro.baselines.centralized import centralized_upload_messages
from repro.data import DATASETS, partition_features
from repro.data.partition import FeaturePartition
from repro.hardware.energy import CostBreakdown
from repro.hardware.ops import (
    OpCounts,
    dnn_inference_ops,
    dnn_training_ops,
    encoding_ops,
    hd_inference_ops,
    hd_initial_training_ops,
    hd_retrain_ops,
    projection_ops,
)
from repro.hardware.platforms import (
    FPGA_KINTEX7_CENTRAL,
    FPGA_NODE,
    GPU_GTX1080TI,
    Platform,
)
from repro.hierarchy.topology import Hierarchy, build_star, build_tree
from repro.network.medium import Medium, get_medium
from repro.network.message import Message, MessageKind
from repro.network.simulator import NetworkSimulator
from repro.utils.tables import format_table

__all__ = [
    "CONFIGS",
    "EfficiencyResult",
    "edgehd_training_messages",
    "edgehd_query_messages",
    "system_training_cost",
    "system_inference_cost",
    "run_figure10",
    "format_figure10",
]

CONFIGS = ("dnn-gpu", "hd-gpu", "hd-fpga", "edgehd")

#: DNN architecture/epochs the grid search settles on (Sec. VI-B).
_DNN_HIDDEN = (512, 256)
_DNN_EPOCHS = 30
#: host (RPi) power overhead per active EdgeHD node during the run.
_HOST_POWER_W = 1.0


def _proj_density(in_dim: int) -> float:
    return min(1.0, DEFAULT_CONFIG.projection_nonzeros / max(1, in_dim))

#: Default share of queries escalating past each level when no measured
#: frequencies are supplied (post-online-training PECAN behaviour,
#: Fig. 8c: most inference happens locally).
_DEFAULT_LEVEL_FREQUENCY = {1: 0.70, 2: 0.20, 3: 0.10}


def _build_topology(kind: str, n_end_nodes: int) -> Hierarchy:
    if kind == "star":
        return build_star(n_end_nodes)
    if kind == "tree":
        return build_tree(n_end_nodes)
    raise ValueError(f"topology must be 'star' or 'tree', got {kind!r}")


def _batches_per_node(n_samples: int, n_classes: int, batch_size: int) -> int:
    """ceil(N_c/B) summed over classes, assuming balanced classes."""
    per_class = n_samples / n_classes
    return n_classes * max(1, math.ceil(per_class / batch_size))


def edgehd_training_messages(
    hierarchy: Hierarchy,
    n_samples: int,
    n_classes: int,
    batch_size: int,
) -> List[Message]:
    """The federated-training transfer list, sized analytically.

    Mirrors ``EdgeHDFederation.fit_offline``: every non-root node ships
    its class-hypervector model (integers) and its binarized batch
    hypervectors (bits).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    n_batches = _batches_per_node(n_samples, n_classes, batch_size)
    messages: List[Message] = []
    for node_id in hierarchy.postorder():
        node = hierarchy.nodes[node_id]
        if node.parent is None:
            continue
        messages.append(
            Message(
                node_id, node.parent, MessageKind.CLASS_MODEL,
                class_model_bytes(n_classes, node.dimension),
            )
        )
        messages.append(
            Message(
                node_id, node.parent, MessageKind.BATCH_HYPERVECTORS,
                n_batches * hypervector_bytes(node.dimension, bipolar=True),
                sequence=1,
            )
        )
    return messages


def edgehd_query_messages(
    hierarchy: Hierarchy,
    n_queries: int,
    compression_count: int,
    level_frequency: Optional[Dict[int, float]] = None,
) -> List[Message]:
    """Escalated-query traffic for hierarchical inference.

    ``level_frequency[l]`` is the fraction of queries *answered at*
    level ``l``; a query answered at level ``l`` crossed every link
    from its start leaf up to that level, carrying binarized encodings
    compressed ``compression_count`` at a time.
    """
    freq = level_frequency or _DEFAULT_LEVEL_FREQUENCY
    depth = hierarchy.depth
    messages: List[Message] = []
    # Fraction escalating past level l = share answered above l.
    for node_id in hierarchy.postorder():
        node = hierarchy.nodes[node_id]
        if node.parent is None:
            continue
        level = node.level
        passing = sum(v for l, v in freq.items() if l > level and l <= depth)
        if passing <= 0:
            continue
        # Queries spread across the nodes of this level.
        n_level = max(1, len(hierarchy.nodes_at_level(level)))
        queries_here = n_queries * passing / n_level
        n_bundles = math.ceil(queries_here / compression_count)
        if n_bundles == 0:
            continue
        messages.append(
            Message(
                node_id, node.parent, MessageKind.COMPRESSED_QUERY,
                n_bundles * compressed_bundle_bytes(
                    node.dimension, compression_count
                ),
            )
        )
    return messages


def _edgehd_node_training_ops(
    hierarchy: Hierarchy,
    partition: FeaturePartition,
    n_samples: int,
    n_classes: int,
    batch_size: int,
) -> Dict[int, OpCounts]:
    """Per-node compute for one federated training pass."""
    n_batches = _batches_per_node(n_samples, n_classes, batch_size)
    ops: Dict[int, OpCounts] = {}
    for node_id in hierarchy.postorder():
        node = hierarchy.nodes[node_id]
        if node.is_leaf:
            n_local = len(partition.columns(node.leaf_index))
            ops[node_id] = (
                encoding_ops(
                    n_samples, n_local, node.dimension, DEFAULT_CONFIG.sparsity
                )
                + hd_initial_training_ops(n_samples, node.dimension)
                + hd_retrain_ops(
                    n_samples, node.dimension, n_classes,
                    DEFAULT_CONFIG.retrain_epochs,
                )
            )
        else:
            in_dim = sum(hierarchy.nodes[c].dimension for c in node.children)
            ops[node_id] = (
                projection_ops(
                    n_batches + n_classes, in_dim, node.dimension,
                    density=_proj_density(in_dim),
                )
                + hd_retrain_ops(
                    n_batches, node.dimension, n_classes,
                    DEFAULT_CONFIG.retrain_epochs,
                )
            )
    return ops


def system_training_cost(
    config: str,
    dataset: str,
    topology: str = "tree",
    medium: Medium | str = "wired-1gbps",
    batch_size: int = 75,
    dimension: int = 4000,
) -> CostBreakdown:
    """Training cost of one configuration on one dataset (paper scale)."""
    if config not in CONFIGS:
        raise ValueError(f"config must be one of {CONFIGS}, got {config!r}")
    spec = DATASETS[dataset]
    if not spec.is_hierarchical:
        raise ValueError(f"{dataset} has no end-node layout")
    if isinstance(medium, str):
        medium = get_medium(medium)
    n = spec.paper_train_size
    hierarchy = _build_topology(topology, spec.n_end_nodes)
    partition = partition_features(spec.n_features, spec.n_end_nodes)
    hierarchy.allocate_dimensions(dimension, partition.feature_counts())
    sim = NetworkSimulator(hierarchy, medium)
    cost = CostBreakdown()

    if config == "edgehd":
        node_ops = _edgehd_node_training_ops(
            hierarchy, partition, n, spec.n_classes, batch_size
        )
        compute_time = {
            nid: FPGA_NODE.execution_time(ops) for nid, ops in node_ops.items()
        }
        messages = edgehd_training_messages(
            hierarchy, n, spec.n_classes, batch_size
        )
        result = sim.simulate_upward_pass(messages, compute_time=compute_time)
        # Makespan counts parallel nodes once; energy counts all nodes.
        comm_only = sim.simulate_upward_pass(messages)
        host_energy = _HOST_POWER_W * result.makespan_s * len(hierarchy.nodes)
        cost.add_compute(
            result.makespan_s - comm_only.makespan_s,
            sum(FPGA_NODE.energy(ops) for ops in node_ops.values()) + host_energy,
        )
        cost.comm_time_s += comm_only.makespan_s
        cost.comm_energy_j += comm_only.energy_j
        cost.comm_bytes += comm_only.total_bytes
        return cost

    # Centralized configurations: raw upload + central compute.
    upload = centralized_upload_messages(hierarchy, partition, n)
    comm = sim.simulate_upward_pass(upload)
    cost.add_simulation(comm)
    if config == "dnn-gpu":
        ops = dnn_training_ops(n, spec.n_features, _DNN_HIDDEN, spec.n_classes, _DNN_EPOCHS)
        platform: Platform = GPU_GTX1080TI
    else:
        ops = (
            encoding_ops(n, spec.n_features, dimension, DEFAULT_CONFIG.sparsity)
            + hd_initial_training_ops(n, dimension)
            + hd_retrain_ops(
                n, dimension, spec.n_classes, DEFAULT_CONFIG.retrain_epochs
            )
        )
        platform = GPU_GTX1080TI if config == "hd-gpu" else FPGA_KINTEX7_CENTRAL
    cost.add_compute(platform.execution_time(ops), platform.energy(ops))
    return cost


def system_inference_cost(
    config: str,
    dataset: str,
    topology: str = "tree",
    medium: Medium | str = "wired-1gbps",
    compression_count: int = 25,
    dimension: int = 4000,
    level_frequency: Optional[Dict[int, float]] = None,
) -> CostBreakdown:
    """Inference cost over the dataset's paper-scale test set."""
    if config not in CONFIGS:
        raise ValueError(f"config must be one of {CONFIGS}, got {config!r}")
    spec = DATASETS[dataset]
    if not spec.is_hierarchical:
        raise ValueError(f"{dataset} has no end-node layout")
    if isinstance(medium, str):
        medium = get_medium(medium)
    n = spec.paper_test_size
    hierarchy = _build_topology(topology, spec.n_end_nodes)
    partition = partition_features(spec.n_features, spec.n_end_nodes)
    hierarchy.allocate_dimensions(dimension, partition.feature_counts())
    sim = NetworkSimulator(hierarchy, medium)
    cost = CostBreakdown()

    if config == "edgehd":
        # Every leaf encodes its queries; deciding nodes run the search.
        compute_energy = 0.0
        compute_time = 0.0
        for leaf in hierarchy.leaves():
            node = hierarchy.nodes[leaf]
            n_local = len(partition.columns(node.leaf_index))
            ops = encoding_ops(
                n, n_local, node.dimension, DEFAULT_CONFIG.sparsity
            ) + hd_inference_ops(n, node.dimension, spec.n_classes)
            compute_energy += FPGA_NODE.energy(ops)
            compute_time = max(compute_time, FPGA_NODE.execution_time(ops))
        freq = level_frequency or _DEFAULT_LEVEL_FREQUENCY
        for level, share in freq.items():
            if level <= 1 or share <= 0:
                continue
            for nid in hierarchy.nodes_at_level(level):
                node = hierarchy.nodes[nid]
                in_dim = sum(hierarchy.nodes[c].dimension for c in node.children)
                n_here = share * n / max(1, len(hierarchy.nodes_at_level(level)))
                ops = projection_ops(
                    n_here, in_dim, node.dimension, density=_proj_density(in_dim)
                ) + hd_inference_ops(n_here, node.dimension, spec.n_classes)
                compute_energy += FPGA_NODE.energy(ops)
                compute_time = max(compute_time, FPGA_NODE.execution_time(ops))
        messages = edgehd_query_messages(
            hierarchy, n, compression_count, level_frequency
        )
        comm = sim.simulate_independent(messages)
        host_energy = _HOST_POWER_W * (compute_time + comm.makespan_s) * len(
            hierarchy.nodes
        )
        cost.add_compute(compute_time, compute_energy + host_energy)
        cost.add_simulation(comm)
        return cost

    upload = centralized_upload_messages(
        hierarchy, partition, n, kind=MessageKind.QUERY
    )
    cost.add_simulation(sim.simulate_upward_pass(upload))
    if config == "dnn-gpu":
        ops = dnn_inference_ops(n, spec.n_features, _DNN_HIDDEN, spec.n_classes)
        platform: Platform = GPU_GTX1080TI
    else:
        ops = encoding_ops(
            n, spec.n_features, dimension, DEFAULT_CONFIG.sparsity
        ) + hd_inference_ops(n, dimension, spec.n_classes)
        platform = GPU_GTX1080TI if config == "hd-gpu" else FPGA_KINTEX7_CENTRAL
    cost.add_compute(platform.execution_time(ops), platform.energy(ops))
    return cost


@dataclass
class EfficiencyResult:
    """Fig. 10 grid: (phase, topology, config, dataset) -> cost."""

    costs: Dict[tuple, CostBreakdown] = field(default_factory=dict)
    datasets: Sequence[str] = ()

    def mean_cost(self, phase: str, topology: str, config: str) -> CostBreakdown:
        total = CostBreakdown()
        for ds in self.datasets:
            c = self.costs[(phase, topology, config, ds)]
            total.compute_time_s += c.compute_time_s
            total.compute_energy_j += c.compute_energy_j
            total.comm_time_s += c.comm_time_s
            total.comm_energy_j += c.comm_energy_j
            total.comm_bytes += c.comm_bytes
        return total

    def speedup(self, phase: str, config: str, baseline: str, topology: str = "tree") -> float:
        """Geometric mean of per-dataset time ratios (the paper averages
        per-benchmark ratios rather than pooling absolute times)."""
        ratios = [
            self.costs[(phase, topology, baseline, ds)].total_time_s
            / self.costs[(phase, topology, config, ds)].total_time_s
            for ds in self.datasets
        ]
        return float(np.exp(np.mean(np.log(ratios))))

    def energy_gain(self, phase: str, config: str, baseline: str, topology: str = "tree") -> float:
        ratios = [
            self.costs[(phase, topology, baseline, ds)].total_energy_j
            / self.costs[(phase, topology, config, ds)].total_energy_j
            for ds in self.datasets
        ]
        return float(np.exp(np.mean(np.log(ratios))))

    def communication_saving(self, phase: str, config: str, baseline: str) -> float:
        """1 - comm_time(config)/comm_time(baseline), on TREE."""
        ours = self.mean_cost(phase, "tree", config)
        base = self.mean_cost(phase, "tree", baseline)
        if base.comm_time_s == 0:
            raise ZeroDivisionError("baseline has no communication time")
        return 1.0 - ours.comm_time_s / base.comm_time_s


def run_figure10(
    datasets: Sequence[str] = ("PECAN", "PAMAP2", "APRI", "PDP"),
    medium: str = "wired-1gbps",
    level_frequency: Optional[Dict[int, float]] = None,
) -> EfficiencyResult:
    """Compute the full Fig. 10 grid (both phases, both topologies)."""
    result = EfficiencyResult(datasets=tuple(datasets))
    for ds in datasets:
        for topology in ("star", "tree"):
            for config in CONFIGS:
                result.costs[("train", topology, config, ds)] = system_training_cost(
                    config, ds, topology=topology, medium=medium
                )
                result.costs[("infer", topology, config, ds)] = system_inference_cost(
                    config, ds, topology=topology, medium=medium,
                    level_frequency=level_frequency,
                )
    return result


def format_figure10(result: EfficiencyResult) -> str:
    """Normalized time/energy table + the paper's headline ratios."""
    baseline = result.mean_cost("train", "tree", "dnn-gpu")
    base_infer = result.mean_cost("infer", "tree", "dnn-gpu")
    rows = []
    for phase, base in (("train", baseline), ("infer", base_infer)):
        for topology in ("star", "tree"):
            for config in CONFIGS:
                cost = result.mean_cost(phase, topology, config)
                rows.append(
                    [
                        phase,
                        topology.upper(),
                        config,
                        cost.total_time_s / base.total_time_s,
                        cost.total_energy_j / base.total_energy_j,
                        cost.comm_fraction,
                    ]
                )
    table = format_table(
        ["Phase", "Topology", "Config", "Norm. time", "Norm. energy", "Comm frac"],
        rows,
        title="Fig. 10 — Execution time & energy (normalized to DNN-GPU/TREE)",
        ndigits=4,
    )
    lines = [
        table,
        "",
        f"EdgeHD vs HD-GPU   train: {result.speedup('train', 'edgehd', 'hd-gpu'):.1f}x time, "
        f"{result.energy_gain('train', 'edgehd', 'hd-gpu'):.1f}x energy (paper: 3.4x / 11.7x)",
        f"EdgeHD vs HD-GPU   infer: {result.speedup('infer', 'edgehd', 'hd-gpu'):.1f}x time, "
        f"{result.energy_gain('infer', 'edgehd', 'hd-gpu'):.1f}x energy (paper: 1.9x / 7.8x)",
        f"EdgeHD vs DNN-GPU  train: {result.speedup('train', 'edgehd', 'dnn-gpu'):.1f}x time, "
        f"{result.energy_gain('train', 'edgehd', 'dnn-gpu'):.1f}x energy (paper: 14.7x / 124.8x)",
        f"EdgeHD vs DNN-GPU  infer: {result.speedup('infer', 'edgehd', 'dnn-gpu'):.1f}x time, "
        f"{result.energy_gain('infer', 'edgehd', 'dnn-gpu'):.1f}x energy (paper: 5.3x / 43.6x)",
        f"HD-GPU vs DNN-GPU  train: {result.speedup('train', 'hd-gpu', 'dnn-gpu'):.1f}x time, "
        f"{result.energy_gain('train', 'hd-gpu', 'dnn-gpu'):.1f}x energy (paper: 4.3x / 10.5x)",
        f"Comm saving (train): {100 * result.communication_saving('train', 'edgehd', 'hd-fpga'):.0f}% "
        f"(paper: 85%)",
        f"Comm saving (infer): {100 * result.communication_saving('infer', 'edgehd', 'hd-fpga'):.0f}% "
        f"(paper: 78%)",
    ]
    return "\n".join(lines)
