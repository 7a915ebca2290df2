"""Figs. 8 and 9: hierarchical online learning from user feedback.

* :func:`run_figure8` — the PECAN case study: a 4-level
  appliance -> house -> street -> city hierarchy is trained offline on
  half the data; the rest streams as online feedback. Reported per
  online step and per level: classification accuracy, mean confidence,
  and where inference happens (Fig. 8a/b/c). The paper's claims:
  accuracy and confidence rise with online training, most on the lower
  levels, and inference migrates from the central node (28.9% of
  queries initially) to the edge (0.3% at the end).
* :func:`run_figure9` — accuracy vs number of propagation steps on the
  hierarchy datasets (paper: online training lifts accuracy by ~5.5%
  on average; more steps help).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.data import DATASETS, load_dataset, partition_features
from repro.experiments.harness import ExperimentScale, STANDARD, default_config
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.inference import HierarchicalInference
from repro.hierarchy.online import OnlineLearner, OnlineSession, OnlineStepMetrics
from repro.hierarchy.topology import build_pecan, build_tree
from repro.utils.tables import format_table

__all__ = [
    "Figure8Result",
    "Figure9Result",
    "run_figure8",
    "run_figure9",
    "format_figure8",
    "format_figure9",
]


@dataclass
class Figure8Result:
    """PECAN online-learning trajectory."""

    metrics: List[OnlineStepMetrics] = field(default_factory=list)
    depth: int = 4

    def series(self, which: str, level: int) -> List[float]:
        """Time series of a per-level metric over the steps."""
        attr = {
            "accuracy": "accuracy_by_level",
            "confidence": "mean_confidence_by_level",
            "frequency": "inference_frequency_by_level",
        }[which]
        return [getattr(m, attr).get(level, 0.0) for m in self.metrics]

    def central_frequency_start_end(self) -> tuple[float, float]:
        """Fraction of inference on the central node, before vs after."""
        series = self.series("frequency", self.depth)
        return series[0], series[-1]


def _drift_offsets(n_features: int, strength: float, seed: int) -> np.ndarray:
    """Fixed per-feature offsets modelling seasonal concept drift.

    The paper's online phase runs over later, time-ordered data
    ("propagate the models every midnight, based on the timestamps"),
    i.e. the deployed distribution has moved since offline training —
    the situation online learning exists to fix: one fixed random
    offset of every feature mean, applied to the whole online stream.
    """
    from repro.utils.rng import derive_rng

    if strength < 0:
        raise ValueError("drift strength must be >= 0")
    rng = derive_rng(seed, "concept-drift")
    return rng.standard_normal(n_features) * strength


def run_figure8(
    scale: ExperimentScale = STANDARD,
    n_appliances: int = 312,
    n_steps: int = 4,
    offline_fraction: float = 0.4,
    confidence_threshold: float = 0.42,
    drift_strength: float = 1.5,
    learning_rate: float = 0.2,
    seed: int = 7,
) -> Figure8Result:
    """PECAN online learning over the 4-level hierarchy."""
    if not 0.0 < offline_fraction < 1.0:
        raise ValueError("offline_fraction must be in (0, 1)")
    data = load_dataset(
        "PECAN", scale=scale.data_scale,
        max_train=scale.max_train, max_test=scale.max_test, seed=seed,
    )
    spec = DATASETS["PECAN"]
    if n_appliances != spec.n_end_nodes:
        raise ValueError(
            f"PECAN has {spec.n_end_nodes} appliances, got {n_appliances}"
        )
    partition = partition_features(data.n_features, n_appliances)
    hierarchy = build_pecan(n_appliances=n_appliances)
    config = default_config(scale, seed=seed)
    federation = EdgeHDFederation(hierarchy, partition, data.n_classes, config)
    split = int(data.n_train * offline_fraction)
    # Bundling-only offline training: the online phase does the
    # fitting, as in the paper's low initial offline accuracy.
    federation.fit_offline(
        data.train_x[:split], data.train_y[:split], retrain_epochs=0
    )
    drift = _drift_offsets(data.n_features, drift_strength, seed)
    # Appliance nodes only sense; classification runs on the house
    # level and above (Sec. VI-C). The threshold is chosen so the
    # offline system starts with roughly the paper's inference mix.
    session = OnlineSession(
        federation,
        learner=OnlineLearner(
            federation, learning_rate=learning_rate,
            feedback_includes_label=True, aggregate_children=False,
            normalize=True,
        ),
        inference=HierarchicalInference(
            federation, confidence_threshold=confidence_threshold, min_level=2
        ),
        feedback_mode="path",
    )
    metrics = session.run(
        data.train_x[split:] + drift, data.train_y[split:],
        data.test_x + drift, data.test_y, n_steps=n_steps,
    )
    return Figure8Result(metrics=metrics, depth=hierarchy.depth)


def format_figure8(result: Figure8Result) -> str:
    levels = sorted(result.metrics[0].accuracy_by_level)
    blocks = []
    for which, title in (
        ("accuracy", "(a) accuracy"),
        ("confidence", "(b) mean confidence"),
        ("frequency", "(c) inference frequency"),
    ):
        rows = []
        for level in levels:
            series = result.series(which, level)
            rows.append([f"level {level}"] + [100 * v for v in series])
        blocks.append(
            format_table(
                ["", *[f"step {m.step}" for m in result.metrics]],
                rows,
                title=f"Fig. 8{title} (%) — PECAN online learning",
                ndigits=1,
            )
        )
    start, end = result.central_frequency_start_end()
    blocks.append(
        f"Central-node inference share: {100 * start:.1f}% -> {100 * end:.1f}% "
        f"(paper: 28.9% -> 0.3%)"
    )
    return "\n\n".join(blocks)


@dataclass
class Figure9Result:
    """Central-node accuracy per step for each dataset."""

    trajectories: Dict[str, List[float]] = field(default_factory=dict)

    def improvement(self, dataset: str) -> float:
        """Final minus initial central-node accuracy."""
        series = self.trajectories[dataset]
        return series[-1] - series[0]

    def mean_improvement(self) -> float:
        return float(np.mean([self.improvement(ds) for ds in self.trajectories]))


def run_figure9(
    datasets: Sequence[str] = ("PECAN", "PAMAP2", "APRI", "PDP"),
    n_steps: int = 10,
    offline_fraction: float = 0.4,
    drift_strength: float = 1.0,
    learning_rate: float = 0.2,
    scale: ExperimentScale = STANDARD,
    seed: int = 7,
) -> Figure9Result:
    """Online accuracy vs propagation steps on the 3-level TREE."""
    result = Figure9Result()
    config = default_config(scale, seed=seed)
    for name in datasets:
        spec = DATASETS[name]
        if not spec.is_hierarchical:
            raise ValueError(f"{name} has no end-node layout")
        data = load_dataset(
            name, scale=scale.data_scale,
            max_train=scale.max_train, max_test=scale.max_test, seed=seed,
        )
        partition = partition_features(data.n_features, spec.n_end_nodes)
        federation = EdgeHDFederation(
            build_tree(spec.n_end_nodes), partition, data.n_classes, config
        )
        split = int(data.n_train * offline_fraction)
        federation.fit_offline(
            data.train_x[:split], data.train_y[:split], retrain_epochs=0
        )
        drift = _drift_offsets(data.n_features, drift_strength, seed)
        session = OnlineSession(
            federation,
            learner=OnlineLearner(
                federation, learning_rate=learning_rate,
                feedback_includes_label=True, aggregate_children=False,
                normalize=True,
            ),
            feedback_mode="path",
        )
        metrics = session.run(
            data.train_x[split:] + drift, data.train_y[split:],
            data.test_x + drift, data.test_y, n_steps=n_steps,
        )
        result.trajectories[name] = [m.central_accuracy for m in metrics]
    return result


def format_figure9(result: Figure9Result) -> str:
    n_steps = max(len(s) for s in result.trajectories.values()) - 1
    rows = []
    for name, series in result.trajectories.items():
        rows.append([name] + [100 * v for v in series] + [100 * result.improvement(name)])
    table = format_table(
        ["Dataset"] + [f"step {i}" for i in range(n_steps + 1)] + ["gain"],
        rows,
        title="Fig. 9 — Central-node accuracy across online steps (%)",
        ndigits=1,
    )
    return (
        f"{table}\n"
        f"Mean online improvement: {100 * result.mean_improvement():+.1f}% "
        f"(paper: +5.5%)"
    )
