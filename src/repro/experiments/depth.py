"""Fig. 13: impact of the hierarchy depth (3 to 7 levels, PECAN).

Two panels:

* **(a) speedup** — EdgeHD training time vs centralized learning on
  the *same* deep topology, for a fast and a slow medium. The paper's
  claims: the speedup grows with depth (3.3x at 802.11n vs 1.2x at
  1 Gbps when going from 3 to 7 levels), because centralized raw
  uploads pay every extra hop in full while EdgeHD forwards only
  models/batches.
* **(b) accuracy** — the central node's accuracy stays roughly flat as
  depth grows, with a slight droop from encoding at lower per-node
  dimensionalities (recoverable with a larger D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.baselines.centralized import centralized_upload_messages
from repro.config import DEFAULT_CONFIG
from repro.data import DATASETS, load_dataset, partition_features
from repro.experiments.efficiency import (
    _edgehd_node_training_ops,
    edgehd_training_messages,
)
from repro.experiments.harness import ExperimentScale, STANDARD, default_config
from repro.hardware.ops import (
    encoding_ops,
    hd_initial_training_ops,
    hd_retrain_ops,
)
from repro.hardware.platforms import FPGA_KINTEX7_CENTRAL, FPGA_NODE
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.topology import build_deep_tree
from repro.network.medium import get_medium
from repro.network.simulator import NetworkSimulator
from repro.utils.tables import format_table

__all__ = ["DepthResult", "run_figure13", "format_figure13"]

DEPTHS = (3, 4, 5, 6, 7)


@dataclass
class DepthResult:
    """speedup[(medium, depth)] and accuracy[depth]."""

    speedup: Dict[tuple, float] = field(default_factory=dict)
    accuracy: Dict[int, float] = field(default_factory=dict)
    depths: Sequence[int] = DEPTHS
    media: Sequence[str] = ("wired-1gbps", "wifi-802.11n")

    def speedup_growth(self, medium: str) -> float:
        """Speedup at max depth / speedup at min depth."""
        return (
            self.speedup[(medium, max(self.depths))]
            / self.speedup[(medium, min(self.depths))]
        )


def _training_speedup(dataset: str, depth: int, medium_name: str, dimension: int = 4000) -> float:
    """EdgeHD vs centralized training time on a depth-``depth`` tree."""
    spec = DATASETS[dataset]
    medium = get_medium(medium_name)
    hierarchy = build_deep_tree(spec.n_end_nodes, depth=depth)
    partition = partition_features(spec.n_features, spec.n_end_nodes)
    hierarchy.allocate_dimensions(dimension, partition.feature_counts())
    # City-scale deployments contend for the same channel per cell;
    # model the whole network as one contention domain so adding
    # levels genuinely adds airtime (the Fig. 13 premise).
    sim = NetworkSimulator(hierarchy, medium, shared_medium=True)
    n = spec.paper_train_size

    # Centralized: raw upload through every level + central compute.
    upload = centralized_upload_messages(hierarchy, partition, n)
    central_ops = (
        encoding_ops(n, spec.n_features, dimension, DEFAULT_CONFIG.sparsity)
        + hd_initial_training_ops(n, dimension)
        + hd_retrain_ops(
            n, dimension, spec.n_classes, DEFAULT_CONFIG.retrain_epochs
        )
    )
    central_time = (
        sim.simulate_upward_pass(upload).makespan_s
        + FPGA_KINTEX7_CENTRAL.execution_time(central_ops)
    )

    # EdgeHD: model/batch forwarding + per-node compute.
    node_ops = _edgehd_node_training_ops(
        hierarchy, partition, n, spec.n_classes, batch_size=75
    )
    compute_time = {
        nid: FPGA_NODE.execution_time(ops) for nid, ops in node_ops.items()
    }
    messages = edgehd_training_messages(hierarchy, n, spec.n_classes, 75)
    edge_time = sim.simulate_upward_pass(
        messages, compute_time=compute_time
    ).makespan_s
    if edge_time == 0:
        raise ZeroDivisionError("EdgeHD training time must be positive")
    return central_time / edge_time


def run_figure13(
    dataset: str = "PECAN",
    depths: Sequence[int] = DEPTHS,
    media: Sequence[str] = ("wired-1gbps", "wifi-802.11n"),
    scale: ExperimentScale = STANDARD,
    measure_accuracy: bool = True,
    seed: int = 7,
) -> DepthResult:
    """Sweep hierarchy depth; report speedup (analytic) and accuracy
    (measured on the scaled dataset)."""
    spec = DATASETS[dataset]
    if not spec.is_hierarchical:
        raise ValueError(f"{dataset} has no end-node layout")
    result = DepthResult(depths=tuple(depths), media=tuple(media))
    for medium_name in media:
        for depth in depths:
            result.speedup[(medium_name, depth)] = _training_speedup(
                dataset, depth, medium_name, dimension=scale.dimension
            )
    if measure_accuracy:
        data = load_dataset(
            dataset, scale=scale.data_scale,
            max_train=scale.max_train, max_test=scale.max_test, seed=seed,
        )
        config = default_config(scale, seed=seed)
        partition = partition_features(data.n_features, spec.n_end_nodes)
        for depth in depths:
            hierarchy = build_deep_tree(spec.n_end_nodes, depth=depth)
            federation = EdgeHDFederation(
                hierarchy, partition, data.n_classes, config
            )
            federation.fit_offline(data.train_x, data.train_y)
            result.accuracy[depth] = federation.accuracy_at(
                federation.root_id, data.test_x, data.test_y
            )
    return result


def format_figure13(result: DepthResult) -> str:
    rows = []
    for depth in result.depths:
        row: List[object] = [depth]
        for medium in result.media:
            row.append(result.speedup[(medium, depth)])
        row.append(100 * result.accuracy.get(depth, float("nan")))
        rows.append(row)
    table = format_table(
        ["Depth"] + [f"speedup @{m}" for m in result.media] + ["central acc (%)"],
        rows,
        title="Fig. 13 — Hierarchy depth: speedup vs centralized + accuracy",
        ndigits=2,
    )
    lines = [table, ""]
    for medium in result.media:
        lines.append(
            f"Speedup growth depth {min(result.depths)} -> {max(result.depths)} "
            f"on {medium}: {result.speedup_growth(medium):.1f}x "
            + ("(paper: 1.2x)" if "1gbps" in medium else "(paper: 3.3x)")
        )
    return "\n".join(lines)
