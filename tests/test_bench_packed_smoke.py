"""Tier-1 smoke for the packed-kernel benchmark (its --smoke mode).

Loads ``benchmarks/bench_packed_kernel.py`` and runs its
timing-independent checks: dense/packed label equivalence on a
binarized model and the ``core.similarity.packed_queries`` counter —
the guard that the packed backend cannot silently fall back to the
dense path without a test noticing.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module():
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        "bench_packed_kernel_smoke", BENCH_DIR / "bench_packed_kernel.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_smoke_mode():
    bench = _load_bench_module()
    evidence = bench.check_equivalence(dimension=512, batch=64)
    assert evidence["labels_equal_excl_ties"] is True
    assert evidence["packed_queries_counted"] == 64


def test_bench_smoke_cli_entrypoint(capsys):
    bench = _load_bench_module()
    bench.main(["--smoke"])
    assert "packed-kernel smoke OK" in capsys.readouterr().out


def test_saved_artifact_carries_provenance(tmp_path, monkeypatch):
    _load_bench_module()
    import _common

    monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
    saved = json.loads(_common.save_json("BENCH_x", {"cells": []}).read_text())
    assert saved["cells"] == []
    assert set(saved["provenance"]) == {
        "commit", "nproc", "python", "numpy", "wall_clock"
    }
