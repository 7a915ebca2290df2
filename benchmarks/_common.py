"""Shared benchmark helpers: scale selection and report persistence.

Every benchmark regenerates one paper table/figure, prints it, and
writes the formatted text under ``benchmarks/results/`` so the
artifacts survive the pytest run. Set ``EDGEHD_BENCH_SCALE=quick`` to
shrink everything for smoke runs.

With observability enabled (``REPRO_OBS=1``), :func:`save_report` also
drops a metrics snapshot (``<name>.stats.json``, read by ``repro stats
--input``) next to the text report, so every benchmark run can double
as a profiling artifact.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.experiments.harness import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark scale: paper parameters (D=4000) with laptop sample counts.
BENCH = ExperimentScale(
    name="bench", data_scale=0.2, max_train=2500, max_test=700,
    dimension=4000, retrain_epochs=15, batch_size=10,
)

#: Smoke scale for CI-style runs.
SMOKE = ExperimentScale(
    name="smoke", data_scale=0.05, max_train=700, max_test=250,
    dimension=1024, retrain_epochs=5, batch_size=10,
)


def active_scale() -> ExperimentScale:
    """Active scale, controlled by EDGEHD_BENCH_SCALE."""
    if os.environ.get("EDGEHD_BENCH_SCALE", "").lower() in {"quick", "smoke"}:
        return SMOKE
    return BENCH


def save_report(name: str, text: str) -> None:
    """Print the report and persist it under benchmarks/results/.

    Under ``REPRO_OBS=1`` the metrics recorded since the last
    :func:`save_report` call are dumped alongside the report, then
    cleared so consecutive benchmarks don't bleed into each other.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/results/{name}.txt]")
    if obs.enabled():
        obs.dump_stats(RESULTS_DIR / f"{name}.stats.json")
        obs.reset()
        print(f"[obs] metrics -> {name}.stats.json")


def provenance() -> dict:
    """Where and when a result was measured (same keys as benchmarks/e2e)."""
    root = Path(__file__).resolve().parent.parent
    commit = "unknown"
    if (root / ".git").exists():  # else git would search the directories above
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_clock": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def save_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable report under benchmarks/results/.

    Companion to :func:`save_report` for benchmarks whose output is a
    structured measurement grid rather than a formatted table. Every
    file carries a ``provenance`` block (:func:`provenance`).
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    payload = {**payload, "provenance": provenance()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[saved to benchmarks/results/{name}.json]")
    return path


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
