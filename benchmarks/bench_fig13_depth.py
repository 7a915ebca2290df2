"""Fig. 13 — impact of hierarchy depth (3-7 levels, PECAN).

Paper claims reproduced: the EdgeHD-vs-centralized speedup grows with
depth (and is larger on slower media); the central node's accuracy
stays in the same band across depths, with a slight droop at the
deepest configurations.
"""

from _common import active_scale, run_once, save_report

from repro.experiments.depth import format_figure13, run_figure13


def bench_figure13(benchmark):
    scale = active_scale()
    result = run_once(benchmark, lambda: run_figure13(scale=scale))
    save_report("fig13_depth", format_figure13(result))
    for medium in result.media:
        assert result.speedup_growth(medium) > 1.0
        # EdgeHD wins at every depth.
        for depth in result.depths:
            assert result.speedup[(medium, depth)] > 1.0
    # Lower bandwidth -> larger absolute speedups.
    assert result.speedup[("wifi-802.11n", 7)] > result.speedup[("wired-1gbps", 7)]
