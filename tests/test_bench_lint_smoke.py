"""Tier-1 smoke for the lint ratchet benchmark.

Loads ``benchmarks/bench_lint.py`` and runs its timing-independent
checks: the src/ tree must be clean under ``repro lint --flow`` and
every pinned defect fixture must still be detected — the guard that a
refactor of the analyses can never silently blunt them.
"""

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module():
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        "bench_lint_smoke", BENCH_DIR / "bench_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_is_clean_and_counts_are_shaped():
    bench = _load_bench_module()
    tree = bench._lint_tree()
    assert tree["findings_total"] == 0
    assert set(tree["flow_rules"]) == {"REPRO111", "REPRO112", "REPRO113"}
    assert len(tree["findings_by_rule"]) == 10
    assert tree["files"] > 50


def test_fixture_detectors_stay_sharp():
    bench = _load_bench_module()
    fixtures = bench._fixture_results()
    assert fixtures["passed"] == fixtures["total"] > 0
    case = fixtures["cases"]["prefix-forward-race"]
    assert case["ok"] and case["flagged_lines"] == case["expected_lines"]
