"""Ablation studies for the design choices DESIGN.md calls out.

Not paper figures per se, but sweeps of every EdgeHD knob whose value
the paper asserts (Sec. VI-A defaults) or motivates qualitatively:

* encoder family (RBF vs the printed cos*sin variant vs linear vs
  ID-level) — the Fig. 7 encoding claim, isolated;
* retraining batch size ``B`` — accuracy/communication tradeoff
  (Sec. IV-B);
* compression count ``m`` — decode noise and end-to-end accuracy
  (Sec. IV-C, Eq. 4);
* encoder weight sparsity ``s`` — accuracy vs FPGA encoding cycles
  (Sec. V-A);
* confidence threshold — escalation rate vs accuracy (Sec. IV-C);
* dimensionality ``D`` — accuracy saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.compression import PositionCodebook
from repro.core.hypervector import hamming_similarity, random_bipolar
from repro.core.model import EdgeHDModel
from repro.data import DATASETS, load_dataset, partition_features
from repro.experiments.harness import ExperimentScale, STANDARD, default_config
from repro.hardware.fpga import FPGADesign
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.inference import HierarchicalInference
from repro.hierarchy.topology import build_tree
from repro.utils.tables import format_table

__all__ = [
    "run_quantization_ablation",
    "run_encoder_ablation",
    "run_batch_size_ablation",
    "run_compression_ablation",
    "run_sparsity_ablation",
    "run_threshold_ablation",
    "run_dimension_ablation",
    "format_ablation",
]


@dataclass
class AblationResult:
    """Generic sweep result: rows of (setting, metrics...)."""

    name: str
    headers: Sequence[str]
    rows: List[List[object]] = field(default_factory=list)

    def column(self, header: str) -> List[object]:
        idx = list(self.headers).index(header)
        return [row[idx] for row in self.rows]


def format_ablation(result: AblationResult) -> str:
    return format_table(result.headers, result.rows, title=result.name, ndigits=3)


def run_encoder_ablation(
    dataset: str = "UCIHAR",
    encoders: Sequence[str] = ("rbf", "cos-sin", "linear", "id-level"),
    scale: ExperimentScale = STANDARD,
    seed: int = 7,
) -> AblationResult:
    """Accuracy of each encoder family on one dataset, centralized."""
    data = load_dataset(
        dataset, scale=scale.data_scale,
        max_train=scale.max_train, max_test=scale.max_test, seed=seed,
    )
    result = AblationResult(
        name=f"Ablation — encoder family ({dataset})",
        headers=["Encoder", "Accuracy"],
    )
    for encoder in encoders:
        model = EdgeHDModel(
            data.n_features, data.n_classes, dimension=scale.dimension,
            encoder=encoder, sparsity=0.8 if encoder == "rbf" else 0.0,
            seed=seed,
        )
        model.fit(data.train_x, data.train_y, retrain_epochs=scale.retrain_epochs)
        result.rows.append([encoder, model.accuracy(data.test_x, data.test_y)])
    return result


def run_batch_size_ablation(
    dataset: str = "PDP",
    batch_sizes: Sequence[int] = (1, 5, 25, 75, 200),
    scale: ExperimentScale = STANDARD,
    seed: int = 7,
) -> AblationResult:
    """Central accuracy + training traffic vs batch size B (Sec. IV-B)."""
    spec = DATASETS[dataset]
    data = load_dataset(
        dataset, scale=scale.data_scale,
        max_train=scale.max_train, max_test=scale.max_test, seed=seed,
    )
    partition = partition_features(data.n_features, spec.n_end_nodes)
    result = AblationResult(
        name=f"Ablation — batch size B ({dataset})",
        headers=["B", "Central accuracy", "Training KB", "Batches"],
    )
    for batch_size in batch_sizes:
        config = default_config(scale, seed=seed, batch_size=batch_size)
        federation = EdgeHDFederation(
            build_tree(spec.n_end_nodes), partition, data.n_classes, config
        )
        report = federation.fit_offline(data.train_x, data.train_y)
        acc = federation.accuracy_at(
            federation.root_id, data.test_x, data.test_y
        )
        result.rows.append(
            [batch_size, acc, report.total_bytes / 1024.0, report.n_batches]
        )
    return result


def run_compression_ablation(
    counts: Sequence[int] = (1, 5, 10, 25, 50),
    dimension: int = 4000,
    seed: int = 7,
) -> AblationResult:
    """Decode fidelity + theoretical noise vs compression count m."""
    result = AblationResult(
        name="Ablation — compression count m (Eq. 3-4)",
        headers=["m", "Decode hamming", "Predicted noise std", "Bytes/query"],
    )
    from repro.core.compression import compressed_bundle_bytes

    for m in counts:
        book = PositionCodebook(dimension, m, seed=seed)
        vectors = random_bipolar(dimension, count=m, seed=seed, tag="abl").astype(float)
        decoded = book.decompress(book.compress(vectors))
        fidelity = float(
            np.mean([hamming_similarity(v, d) for v, d in zip(vectors, decoded)])
        )
        result.rows.append(
            [
                m,
                fidelity,
                book.expected_noise_std(m),
                compressed_bundle_bytes(dimension, m) / m,
            ]
        )
    return result


def run_sparsity_ablation(
    dataset: str = "ISOLET",
    sparsities: Sequence[float] = (0.0, 0.5, 0.8, 0.95),
    scale: ExperimentScale = STANDARD,
    seed: int = 7,
) -> AblationResult:
    """Accuracy vs FPGA encoding cycles across weight sparsity."""
    data = load_dataset(
        dataset, scale=scale.data_scale,
        max_train=scale.max_train, max_test=scale.max_test, seed=seed,
    )
    result = AblationResult(
        name=f"Ablation — encoder sparsity s ({dataset})",
        headers=["s", "Accuracy", "Encode cycles/sample", "FPGA power (W)"],
    )
    for sparsity in sparsities:
        model = EdgeHDModel(
            data.n_features, data.n_classes, dimension=scale.dimension,
            encoder="rbf", sparsity=sparsity, seed=seed,
        )
        model.fit(data.train_x, data.train_y, retrain_epochs=scale.retrain_epochs)
        design = FPGADesign(
            data.n_features, scale.dimension, data.n_classes,
            sparsity=min(sparsity, 0.99), n_dsp=512,
        )
        result.rows.append(
            [
                sparsity,
                model.accuracy(data.test_x, data.test_y),
                design.encoding_cycles(1),
                design.power_w(),
            ]
        )
    return result


def run_threshold_ablation(
    dataset: str = "PDP",
    thresholds: Sequence[float] = (0.0, 0.4, 0.5, 0.6, 0.8, 1.0),
    scale: ExperimentScale = STANDARD,
    seed: int = 7,
) -> AblationResult:
    """Escalation rate, accuracy, and query traffic vs threshold."""
    spec = DATASETS[dataset]
    data = load_dataset(
        dataset, scale=scale.data_scale,
        max_train=scale.max_train, max_test=scale.max_test, seed=seed,
    )
    partition = partition_features(data.n_features, spec.n_end_nodes)
    config = default_config(scale, seed=seed)
    federation = EdgeHDFederation(
        build_tree(spec.n_end_nodes), partition, data.n_classes, config
    )
    federation.fit_offline(data.train_x, data.train_y)
    result = AblationResult(
        name=f"Ablation — confidence threshold ({dataset})",
        headers=["Threshold", "Accuracy", "Escalated frac", "Query KB"],
    )
    for threshold in thresholds:
        inference = HierarchicalInference(
            federation, confidence_threshold=threshold
        )
        acc, outcome = inference.evaluate(data.test_x, data.test_y)
        escalated = float(np.mean(outcome.deciding_level > 1))
        result.rows.append(
            [threshold, acc, escalated, outcome.total_bytes / 1024.0]
        )
    return result


def run_quantization_ablation(
    dataset: str = "UCIHAR",
    bit_widths: Sequence[int] = (2, 4, 8, 16),
    scale: ExperimentScale = STANDARD,
    seed: int = 7,
) -> AblationResult:
    """Accuracy vs class-hypervector bit width (BRAM tradeoff, Sec. V)."""
    from repro.core.quantize import quantize_classifier

    data = load_dataset(
        dataset, scale=scale.data_scale,
        max_train=scale.max_train, max_test=scale.max_test, seed=seed,
    )
    model = EdgeHDModel(
        data.n_features, data.n_classes, dimension=scale.dimension,
        encoder="rbf", sparsity=0.8, seed=seed,
    )
    model.fit(data.train_x, data.train_y, retrain_epochs=scale.retrain_epochs)
    encoded = model.encode(data.test_x)
    result = AblationResult(
        name=f"Ablation — model bit width ({dataset})",
        headers=["Bits", "Accuracy", "Model kbit", "Compression"],
    )
    result.rows.append(
        [
            32,
            model.classifier.accuracy(encoded, data.test_y),
            32 * model.class_hypervectors.size / 1024.0,
            1.0,
        ]
    )
    for bits in bit_widths:
        q_clf, quantized = quantize_classifier(model.classifier, n_bits=bits)
        result.rows.append(
            [
                bits,
                q_clf.accuracy(encoded, data.test_y),
                quantized.storage_bits() / 1024.0,
                quantized.compression_ratio(),
            ]
        )
    return result


def run_dimension_ablation(
    dataset: str = "UCIHAR",
    dimensions: Sequence[int] = (256, 1000, 2000, 4000, 8000),
    scale: ExperimentScale = STANDARD,
    seed: int = 7,
) -> AblationResult:
    """Accuracy vs hypervector dimensionality D."""
    data = load_dataset(
        dataset, scale=scale.data_scale,
        max_train=scale.max_train, max_test=scale.max_test, seed=seed,
    )
    result = AblationResult(
        name=f"Ablation — dimensionality D ({dataset})",
        headers=["D", "Accuracy", "Model KB"],
    )
    for dim in dimensions:
        model = EdgeHDModel(
            data.n_features, data.n_classes, dimension=dim,
            encoder="rbf", sparsity=0.8, seed=seed,
        )
        model.fit(data.train_x, data.train_y, retrain_epochs=scale.retrain_epochs)
        result.rows.append(
            [
                dim,
                model.accuracy(data.test_x, data.test_y),
                model.model_wire_bytes() / 1024.0,
            ]
        )
    return result
