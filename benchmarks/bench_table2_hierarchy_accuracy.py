"""Table II — classification accuracy at each hierarchy level.

Paper claims reproduced: accuracy rises from end nodes through gateways
to the central node, which approaches the centralized model.
"""

import numpy as np
from _common import active_scale, run_once, save_report

from repro.experiments.accuracy import format_table2, run_table2


def bench_table2(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_table2(scale=scale))
    save_report("table2_hierarchy_accuracy", format_table2(result))
    for name, levels in result.by_level.items():
        top = max(levels)
        # Central node beats the end nodes on every dataset.
        assert levels[top] > levels[1], f"{name}: no hierarchy gain"
    # Central node is close to centralized on average.
    gaps = [result.central_gap(ds) for ds in result.by_level]
    assert float(np.mean(gaps)) < 0.25
