"""Fig. 9 — online accuracy across propagation steps (4 datasets).

Paper claim reproduced: online training lifts central-node accuracy
(paper average: +5.5%) and more steps help.
"""

from _common import active_scale, run_once, save_report

from repro.experiments.online import format_figure9, run_figure9


def bench_figure9(benchmark):
    scale = active_scale()
    result = run_once(
        benchmark,
        lambda: run_figure9(n_steps=10, scale=scale, drift_strength=1.5),
    )
    save_report("fig9_online_steps", format_figure9(result))
    assert result.mean_improvement() > 0.0
