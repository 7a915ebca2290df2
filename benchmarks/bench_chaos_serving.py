"""Chaos-serving benchmark: graceful degradation under faults (Sec. VI-F).

Drives a trained TREE federation through :mod:`repro.serve` with a
:class:`~repro.serve.faults.FaultPlan` across a grid of message-drop
rates x payload dimension loss x node-crash scenarios. Each cell
reports accuracy, exact latency percentiles, the degraded-answer rate,
and the retry/timeout volume — the live-system counterpart of the
paper's Fig. 12 robustness curves, with the extra liveness guarantee
that **every request receives exactly one terminal response** no
matter what the plan drops, corrupts or crashes.

Emits ``benchmarks/results/BENCH_chaos.json`` plus a human-readable
table. Run standalone with ``python benchmarks/bench_chaos_serving.py
[--smoke]``; ``--smoke`` skips the grid and only runs the
timing-independent checks (an inert plan serves identically to no plan
and to the offline walk; a chaos run is seed-deterministic; a crashed
non-root node loses no requests), which is also what
``tests/test_bench_chaos_smoke.py`` exercises.
"""

import math

import numpy as np
from _common import RESULTS_DIR, active_scale, save_json, save_report

import repro.obs as obs
from repro.config import EdgeHDConfig
from repro.data import DATASETS, load_dataset, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    build_tree,
)
from repro.network.medium import get_medium
from repro.serve import FaultPlan, ServeConfig, ServingRuntime, make_workload
from repro.serve.report import render_report

DATASET = "APRI"
MEDIUM = "wifi-802.11ac"

#: grid: escalation drop probability x payload dimension loss x crash.
DROP_RATES = (0.0, 0.1, 0.2, 0.3)
DIM_LOSSES = (0.0, 0.15)
CRASH_SCENARIOS = (False, True)
THRESHOLD = 0.8
MAX_BATCH = 32
RATE_RPS = 1500.0
FAULT_SEED = 42


def train_federation(scale=None):
    """One TREE federation on the benchmark dataset; reused per cell."""
    scale = scale or active_scale()
    spec = DATASETS[DATASET]
    data = load_dataset(
        DATASET, scale=scale.data_scale, max_train=scale.max_train,
        max_test=scale.max_test, seed=7,
    )
    partition = partition_features(data.n_features, spec.n_end_nodes)
    config = EdgeHDConfig(
        dimension=scale.dimension, retrain_epochs=scale.retrain_epochs,
        batch_size=scale.batch_size, seed=7,
    )
    federation = EdgeHDFederation(
        build_tree(spec.n_end_nodes), partition, data.n_classes, config
    )
    federation.fit_offline(data.train_x, data.train_y)
    return federation, data


def crash_plan_windows(hierarchy, seed=FAULT_SEED):
    """One reproducibly chosen non-root victim, dead the whole run."""
    candidates = sorted(
        nid for nid, node in hierarchy.nodes.items() if node.parent is not None
    )
    return FaultPlan.sample_crashes(
        seed, candidates, n_crashes=1, crash_duration_s=math.inf
    )


def run_cell(federation, data, drop, dim_loss, crash):
    inference = HierarchicalInference(
        federation, confidence_threshold=THRESHOLD
    )
    workload = make_workload(data.test_x, inference, seed=3, labels=data.test_y)
    windows = (
        crash_plan_windows(federation.hierarchy) if crash else {}
    )
    plan = FaultPlan(
        seed=FAULT_SEED,
        drop_probability=drop,
        dimension_loss=dim_loss,
        crash_windows=windows,
    )
    runtime = ServingRuntime(
        inference,
        get_medium(MEDIUM),
        ServeConfig(
            max_batch=MAX_BATCH,
            queue_depth=max(64, len(workload)),
        ),
        fault_plan=plan,
    )
    result = runtime.serve_open_loop(workload, rate_rps=RATE_RPS, seed=1)
    # Liveness: chaos may degrade answers but never lose requests.
    assert result.n_total == len(workload), (
        f"lost requests: {result.n_total}/{len(workload)} under "
        f"drop={drop} dim_loss={dim_loss} crash={crash}"
    )
    labels = np.asarray([r.label for r in result.responses])
    return {
        "drop_probability": drop,
        "dimension_loss": dim_loss,
        "crashed_nodes": sorted(windows),
        "n_requests": result.n_total,
        "accuracy": workload.accuracy(labels),
        "degraded_rate": result.degraded_rate,
        "n_degraded": result.n_degraded,
        "n_retries": result.n_retries,
        "n_timeouts": result.n_timeouts,
        "latency_ms": result.percentiles(),
        "throughput_rps": result.throughput_rps,
        "wire_bytes": result.wire_bytes,
        "energy_j": result.energy_j,
    }


def run_grid(scale=None) -> dict:
    federation, data = train_federation(scale)
    cells = [
        run_cell(federation, data, drop, dim_loss, crash)
        for crash in CRASH_SCENARIOS
        for dim_loss in DIM_LOSSES
        for drop in DROP_RATES
    ]
    return {
        "dataset": DATASET,
        "medium": MEDIUM,
        "rate_rps": RATE_RPS,
        "threshold": THRESHOLD,
        "fault_seed": FAULT_SEED,
        "note": (
            "open-loop Poisson arrivals under a deterministic FaultPlan; "
            "every cell asserts zero lost requests (answered or "
            "explicitly degraded, never hung)"
        ),
        "cells": cells,
    }


def run_traced_example(federation, data) -> dict:
    """One fully traced chaos run: the observability artifact set.

    Serves one representative faulted cell with tracing on, then drops
    the request trace (fault events included) and the rendered
    ``serve-report`` under ``benchmarks/results/`` — the end-to-end
    evidence that a degraded request's causal timeline is
    reconstructable offline.
    """
    inference = HierarchicalInference(
        federation, confidence_threshold=THRESHOLD
    )
    workload = make_workload(
        data.test_x, inference, seed=3, labels=data.test_y
    )
    plan = FaultPlan(
        seed=FAULT_SEED,
        drop_probability=0.3,
        crash_windows=crash_plan_windows(federation.hierarchy),
    )
    runtime = ServingRuntime(
        inference,
        get_medium(MEDIUM),
        ServeConfig(
            max_batch=MAX_BATCH,
            queue_depth=max(64, len(workload)),
        ),
        fault_plan=plan,
    )
    was_enabled = obs.enabled()
    obs.enable()
    try:
        result = runtime.serve_open_loop(workload, rate_rps=RATE_RPS, seed=1)
    finally:
        if not was_enabled:
            obs.disable()
    assert result.traces is not None and result.telemetry is not None
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = RESULTS_DIR / "BENCH_chaos_requests.trace.jsonl"
    n_events = result.traces.export_jsonl(trace_path)
    report = render_report(result.traces.by_request(), slo_ms=50.0)
    (RESULTS_DIR / "BENCH_chaos_serve_report.txt").write_text(report + "\n")
    print(f"[saved request trace ({n_events} events) and serve-report "
          f"to benchmarks/results/]")
    return {
        "trace_events": n_events,
        "traced_requests": result.traces.n_requests,
        "telemetry_samples": len(result.telemetry),
        "fault_events": len(result.traces.faults()),
        "degraded": result.n_degraded,
    }


def format_grid(payload: dict) -> str:
    lines = [
        f"Chaos serving {payload['dataset']} over {payload['medium']} at "
        f"{payload['rate_rps']:.0f} req/s (FaultPlan seed "
        f"{payload['fault_seed']})",
        f"{'drop':>5} {'dimloss':>7} {'crash':>5} {'acc':>6} "
        f"{'degr%':>6} {'retry':>5} {'tmout':>5} {'p50':>7} {'p99':>7}",
    ]
    for c in payload["cells"]:
        p = c["latency_ms"]
        crash = ",".join(map(str, c["crashed_nodes"])) or "-"
        lines.append(
            f"{c['drop_probability']:>5.2f} {c['dimension_loss']:>7.2f} "
            f"{crash:>5} {c['accuracy']:>6.3f} "
            f"{c['degraded_rate'] * 100:>6.1f} {c['n_retries']:>5d} "
            f"{c['n_timeouts']:>5d} {p['p50']:>7.2f} {p['p99']:>7.2f}"
        )
    lines.append(
        "(degr% = degraded-answer rate; every request still receives "
        "exactly one terminal response)"
    )
    return "\n".join(lines)


def check_chaos() -> dict:
    """Timing-independent smoke of the fault-tolerant serving path.

    Asserts (a) an inert FaultPlan serves bit-identically to no plan
    and to the offline walk, (b) a chaos run repeats its semantic
    fingerprint under the same seed, and (c) drop 0.3 plus one
    permanently crashed non-root node loses no requests. Returns the
    evidence so callers can report it.
    """
    data = load_dataset(DATASET, scale=0.05, max_train=600, max_test=200, seed=7)
    spec = DATASETS[DATASET]
    federation = EdgeHDFederation(
        build_tree(spec.n_end_nodes),
        partition_features(data.n_features, spec.n_end_nodes),
        data.n_classes,
        EdgeHDConfig(dimension=512, retrain_epochs=3, batch_size=10, seed=7),
    )
    federation.fit_offline(data.train_x, data.train_y)
    inference = HierarchicalInference(federation, confidence_threshold=0.8)
    workload = make_workload(data.test_x, inference, seed=3)
    offline = inference.run(data.test_x, seed=3)

    def serve(plan):
        runtime = ServingRuntime(
            inference,
            get_medium("wired-1gbps"),
            ServeConfig(max_batch=8, queue_depth=512),
            fault_plan=plan,
        )
        return runtime.serve_open_loop(workload, rate_rps=2000.0, seed=1)

    plain = serve(None)
    inert = serve(FaultPlan())
    if inert.fingerprint() != plain.fingerprint():
        raise AssertionError("an inert FaultPlan changed served answers")
    out = inert.to_outcome()
    if not np.array_equal(out.labels, offline.labels):
        raise AssertionError("inert-plan serving differs from offline walk")
    if out.total_bytes != offline.total_bytes:
        raise AssertionError("inert-plan message accounting differs")

    chaos_plan = FaultPlan(
        seed=FAULT_SEED,
        drop_probability=0.3,
        dimension_loss=0.15,
        crash_windows=crash_plan_windows(federation.hierarchy),
    )
    first = serve(chaos_plan)
    second = serve(chaos_plan)
    if first.fingerprint() != second.fingerprint():
        raise AssertionError("chaos run is not seed-deterministic")
    if first.escalations != second.escalations:
        raise AssertionError("chaos escalation map is not deterministic")
    if first.n_total != len(workload):
        raise AssertionError(
            f"chaos run lost requests: {first.n_total}/{len(workload)}"
        )
    indices = sorted(r.index for r in first.responses)
    if indices != list(range(len(workload))):
        raise AssertionError("chaos run duplicated or skipped an index")
    return {
        "n_queries": len(workload),
        "inert_plan_equal": True,
        "chaos_deterministic": True,
        "crashed_nodes": sorted(chaos_plan.crash_windows),
        "degraded": first.n_degraded,
        "retries": first.n_retries,
    }


def bench_chaos_serving(benchmark):
    """pytest-benchmark entry: full grid + the chaos smoke."""
    payload = benchmark.pedantic(
        run_grid, rounds=1, iterations=1, warmup_rounds=0
    )
    payload["smoke"] = check_chaos()
    federation, data = train_federation()
    payload["traced_example"] = run_traced_example(federation, data)
    save_json("BENCH_chaos", payload)
    save_report("bench_chaos_serving", format_grid(payload))
    for cell in payload["cells"]:
        assert cell["n_requests"] > 0


def main(argv=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip the fault grid; only run the timing-independent "
        "inert-plan equivalence + determinism + liveness checks",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        evidence = check_chaos()
        print(f"chaos smoke OK: {evidence}")
        return
    payload = run_grid()
    payload["smoke"] = check_chaos()
    federation, data = train_federation()
    payload["traced_example"] = run_traced_example(federation, data)
    save_json("BENCH_chaos", payload)
    save_report("bench_chaos_serving", format_grid(payload))


if __name__ == "__main__":
    main()
