"""Fig. 7 — classification accuracy: EdgeHD vs DNN/SVM/AdaBoost/linear-HD.

Paper claims reproduced: EdgeHD is comparable to DNN/SVM and beats the
linear-encoding HD baseline by several accuracy points on average
(paper: +4.7%).
"""

from _common import active_scale, run_once, save_report

from repro.experiments.accuracy import format_figure7, run_figure7


def bench_figure7(benchmark):
    scale = active_scale()
    result = run_once(
        benchmark,
        lambda: run_figure7(
            datasets=("ISOLET", "UCIHAR", "EXTRA", "PAMAP2", "APRI", "PDP"),
            scale=scale,
        ),
    )
    save_report("fig7_accuracy", format_figure7(result))
    # The reproduction must preserve the ordering claims.
    assert result.edgehd_gain_over_baseline_hd() > 0.0
    assert result.mean_accuracy("EdgeHD") > 0.7
