"""Ablation benches for the design choices DESIGN.md calls out.

Each sweep regenerates a small table: encoder family, retraining batch
size B, compression count m, encoder sparsity s, confidence threshold,
and dimensionality D.
"""

from _common import active_scale, run_once, save_report

from repro.experiments.ablation import (
    format_ablation,
    run_quantization_ablation,
    run_batch_size_ablation,
    run_compression_ablation,
    run_dimension_ablation,
    run_encoder_ablation,
    run_sparsity_ablation,
    run_threshold_ablation,
)


def bench_encoder_ablation(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_encoder_ablation(scale=scale))
    save_report("ablation_encoder", format_ablation(result))
    acc = dict(zip(result.column("Encoder"), result.column("Accuracy")))
    # Non-linear RBF encoding beats the linear baseline (Fig. 7 claim).
    assert acc["rbf"] > acc["linear"]


def bench_batch_size_ablation(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_batch_size_ablation(scale=scale))
    save_report("ablation_batch_size", format_ablation(result))
    kb = result.column("Training KB")
    # Larger batches -> fewer transfers (Sec. IV-B tradeoff).
    assert kb[0] > kb[-1]


def bench_compression_ablation(benchmark):
    result = run_once(benchmark, lambda: run_compression_ablation())
    save_report("ablation_compression", format_ablation(result))
    fidelity = result.column("Decode hamming")
    bytes_per_query = result.column("Bytes/query")
    # More compression -> noisier decode but fewer bytes per query.
    assert fidelity[0] >= fidelity[-1]
    assert bytes_per_query[0] > bytes_per_query[-1]


def bench_sparsity_ablation(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_sparsity_ablation(scale=scale))
    save_report("ablation_sparsity", format_ablation(result))
    cycles = result.column("Encode cycles/sample")
    acc = result.column("Accuracy")
    # Sparsity slashes encoding cycles at modest accuracy cost.
    assert cycles[0] > cycles[-2]
    assert acc[-2] > acc[0] - 0.1  # s=0.8 stays close to dense


def bench_threshold_ablation(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_threshold_ablation(scale=scale))
    save_report("ablation_threshold", format_ablation(result))
    escalated = result.column("Escalated frac")
    # Higher threshold -> more escalation.
    assert escalated[-1] >= escalated[0]


def bench_quantization_ablation(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_quantization_ablation(scale=scale))
    save_report("ablation_quantization", format_ablation(result))
    acc = result.column("Accuracy")
    # 8-bit storage must match full precision within a point.
    bits = result.column("Bits")
    acc8 = acc[bits.index(8)]
    assert acc8 >= acc[0] - 0.01


def bench_dimension_ablation(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_dimension_ablation(scale=scale))
    save_report("ablation_dimension", format_ablation(result))
    acc = result.column("Accuracy")
    # Accuracy grows (then saturates) with D.
    assert acc[-1] > acc[0] - 0.02
    assert max(acc) == max(acc[1:] + [acc[1]]) or acc[0] < max(acc)
