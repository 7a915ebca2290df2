"""Fig. 12 — robustness to network/hardware failure (dimension loss).

Paper claims reproduced: under bursty in-flight loss the holographic
hierarchical encoding degrades most gracefully, the concatenation
ablation loses whole devices, and the DNN (losing raw features)
collapses fastest.
"""

from _common import active_scale, run_once, save_report

from repro.experiments.robustness import format_figure12, run_figure12


def bench_figure12(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_figure12(scale=scale))
    save_report("fig12_robustness", format_figure12(result))
    worst = result.losses[-1]
    holo = result.quality_drop("EdgeHD-holographic", worst)
    concat = result.quality_drop("EdgeHD-concat", worst)
    dnn = result.quality_drop("DNN", worst)
    assert holo < dnn, "holographic must beat the DNN under loss"
    assert holo < concat, "holographic must beat plain concatenation"
    # Concat usually sits between the two; allow seed noise.
    assert concat < dnn + 0.15
