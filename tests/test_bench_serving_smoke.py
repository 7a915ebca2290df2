"""Tier-1 smoke for the serving benchmark (its --smoke mode).

Loads ``benchmarks/bench_serving.py`` and runs its timing-independent
checks: the serving runtime must produce the exact answers and message
accounting of the offline hierarchical walk, and an overloaded
shed-policy run must terminate with counted sheds and bounded queues —
the guard that micro-batching can never silently change a decision and
overload can never grow memory without a test noticing.
"""

import importlib.util
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_serving_smoke", BENCH_DIR / "bench_serving.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_smoke_mode():
    bench = _load_bench_module()
    evidence = bench.check_equivalence()
    assert evidence["labels_equal"] is True
    assert evidence["bytes_equal"] is True
    assert evidence["overload_shed"] > 0
    assert evidence["overload_high_water"] <= 4


def test_bench_smoke_cli_entrypoint(capsys):
    bench = _load_bench_module()
    bench.main(["--smoke"])
    assert "serving smoke OK" in capsys.readouterr().out
