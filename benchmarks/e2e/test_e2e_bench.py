"""Drives ``run.py --smoke``, the benchmark's own code path at toy sizes.

Run with ``python -m pytest benchmarks/e2e -q``; tier-1
(``testpaths = tests``) does not collect it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
EXACT = ("accuracy", "wire_bytes_per_query")
HISTORY = HERE / "results" / "history.jsonl"


def smoke(*flags):
    """(exit code, last line of stdout parsed, stdout) of one smoke run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *flags],
        capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), done.stdout


def history_size():
    return HISTORY.stat().st_size if HISTORY.exists() else 0


def assert_declared(result, declared):
    """Every declared metric is there, with its unit and a real value."""
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.fixture(scope="module")
def seed0():
    before = history_size()
    code, summary, stdout = smoke("--seed", "0")
    assert code == 0, stdout
    assert history_size() == before, "--smoke must not write to the history"
    return summary["workloads"], stdout


def test_every_workload_reports_every_end_to_end_metric(seed0):
    results, stdout = seed0
    assert list(results) == WORKLOADS
    for name, result in results.items():
        assert_declared(result, CONTRACT["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert f"{name:<17} attempted {result['attempted']} failed 0" in stdout


def test_traced_run_reports_every_per_layer_metric():
    code, summary, stdout = smoke("--trace", "1")
    assert code == 0, stdout
    for name, result in summary["workloads"].items():
        assert_declared(result, CONTRACT["per_layer"])
        spans = json.loads(
            (HERE / "results" / f"trace_{name}_smoke.json").read_text()
        )
        names = {s["name"] for s in spans}
        assert {"setup.data", "setup.fit", "setup.start",
                "phase.unloaded"} <= names
        assert any(n.startswith("probe.") for n in names)
        assert all(
            s["workload"] == name and s["end"] >= s["start"]
            and {"id", "parent", "cycle"} <= set(s)
            for s in spans
        )
    learn = {s["name"] for s in spans if s["name"].startswith("learn.round.")}
    assert learn == {
        f"learn.round.{step}" for step in (
            "serve", "feedback", "propagate", "checkpoint", "join",
            "restore", "drain",
        )
    }
    metrics = summary["workloads"]["serve_learn"]["metrics"]
    assert metrics["hierarchy.online.feedback_events"]["value"] > 0
    assert metrics["hierarchy.checkpoint.restore_s"]["value"] > 0
    metrics = summary["workloads"]["cluster_escalate"]["metrics"]
    assert metrics["cluster.shared_mib"]["value"] > 0
    assert metrics["cluster.leaked_shm_segments"]["value"] == 0


def test_exact_metrics_repeat_for_a_seed_and_move_with_it(seed0):
    results, _ = seed0
    _, again, _ = smoke("--seed", "0")
    _, other, _ = smoke("--seed", "1")

    def exact(result):
        return tuple(result["metrics"][key]["value"] for key in EXACT)

    for name in WORKLOADS:
        assert exact(again["workloads"][name]) == exact(results[name])
        assert exact(other["workloads"][name]) != exact(results[name])


@pytest.mark.parametrize("workload", ["serve_escalate", "serve_learn"])
def test_a_corrupted_expected_label_fails_the_run(workload):
    code, result, stdout = smoke("--workload", workload, "--corrupt-expected")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED" in stdout
