"""Observability overhead guard: <5% when disabled, on both hot paths.

Two guarded surfaces:

* the **encode hot loop** — the instrumentation compiled into
  :meth:`repro.core.encoding.Encoder.encode` is timed against an
  uninstrumented re-implementation of its body;
* the **serving hot path** — request tracing reduces, when
  observability is off, to one ``req.trace is not None`` attribute
  check per emit site. The guard cost is measured directly (a real
  ``ServeRequest`` with ``trace=None``, the per-request number of emit
  sites a fully escalated request passes) and compared against the
  measured per-request serving cost of a real disabled-mode run; the
  end-to-end tracing-enabled run is also timed and reported so the
  *enabled* cost stays visible in CI logs.

Both disabled-mode overheads must stay under 5% — the promise every
later perf PR relies on. Runs standalone
(``python benchmarks/bench_obs_overhead.py [--smoke]``) or under
pytest; ``--smoke`` shrinks repeats so the tier-1 suite can afford it
(see ``tests/test_bench_obs_smoke.py``). Timing uses min-of-k so
scheduler noise biases both sides equally.
"""

from __future__ import annotations

import time

import numpy as np

import repro.obs as obs
from repro.config import EdgeHDConfig
from repro.core.encoding import RBFEncoder
from repro.core.hypervector import sign_binarize
from repro.data import DATASETS, load_dataset, partition_features
from repro.hierarchy import EdgeHDFederation, HierarchicalInference, build_tree
from repro.network.medium import get_medium
from repro.serve import ServeConfig, ServeRequest, ServingRuntime, make_workload
from repro.utils.validation import check_matrix

#: paper-ish shapes, small enough for CI: batch of 64, D=1024.
_N_FEATURES = 64
_DIMENSION = 1024
_BATCH = 64
_REPEATS = 200
_ROUNDS = 7
_THRESHOLD = 0.05

#: emit sites a fully escalated, retried request passes end to end
#: (admitted, hop x2, encode/search x2, decide x2, escalate x3,
#: transit, drop/timeout/backoff/retry, degraded, descend, done) — a
#: deliberately generous per-request guard count.
_GUARD_SITES = 20


def _min_time(fn, repeats: int = _REPEATS, rounds: int = _ROUNDS) -> float:
    """Best-of-``rounds`` wall time of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_encode_overhead() -> float:
    """Fractional slowdown of instrumented encode vs a bare baseline."""
    encoder = RBFEncoder(_N_FEATURES, _DIMENSION, seed=3)
    rng = np.random.default_rng(11)
    features = rng.standard_normal((_BATCH, _N_FEATURES))

    def baseline() -> np.ndarray:
        # encode() minus the obs call sites, validation included so the
        # comparison isolates exactly the instrumentation cost.
        mat = check_matrix("features", features, cols=encoder.n_features)
        return sign_binarize(encoder._transform(mat))

    def instrumented() -> np.ndarray:
        return encoder.encode(features)

    # Warm caches / BLAS threads on both paths before timing.
    baseline()
    instrumented()
    t_base = _min_time(baseline)
    t_inst = _min_time(instrumented)
    return (t_inst - t_base) / t_base


# ----------------------------------------------------------------------
# serving hot path
# ----------------------------------------------------------------------
def _serving_setup(max_test: int = 120):
    """A small trained TREE federation + workload for serve timing."""
    dataset = "APRI"
    spec = DATASETS[dataset]
    data = load_dataset(
        dataset, scale=0.05, max_train=500, max_test=max_test, seed=7
    )
    federation = EdgeHDFederation(
        build_tree(spec.n_end_nodes),
        partition_features(data.n_features, spec.n_end_nodes),
        data.n_classes,
        EdgeHDConfig(dimension=512, retrain_epochs=2, batch_size=10, seed=7),
    )
    federation.fit_offline(data.train_x, data.train_y)
    inference = HierarchicalInference(federation, confidence_threshold=0.8)
    workload = make_workload(data.test_x, inference, seed=3)
    return inference, workload


def _serve_once(inference, workload) -> float:
    """Wall seconds of one open-loop serve over the workload."""
    runtime = ServingRuntime(
        inference,
        get_medium("wired-1gbps"),
        ServeConfig(max_batch=16, queue_depth=512),
    )
    start = time.perf_counter()
    runtime.serve_open_loop(workload, rate_rps=20000.0, seed=1)
    return time.perf_counter() - start


def measure_trace_guard_s(repeats: int = 50_000) -> float:
    """Seconds of one request's worth of disabled-mode trace guards.

    This is exactly the code tracing adds to the disabled serving path:
    ``req.trace is not None`` on a real request object, evaluated once
    per emit site (:data:`_GUARD_SITES` sites per request).
    """
    req = ServeRequest(
        index=0, features=np.zeros(4), start_leaf=0, trace=None
    )
    sink = 0

    def guards() -> None:
        nonlocal sink
        for _ in range(_GUARD_SITES):
            if req.trace is not None:  # pragma: no cover - trace is None
                sink += 1

    best = _min_time(guards, repeats=repeats, rounds=5)
    return best / repeats


def measure_serving_overhead(n_serves: int = 3, max_test: int = 120) -> dict:
    """Disabled-mode guard share + enabled-mode end-to-end cost.

    Returns ``guard_overhead`` (the fraction of a disabled-mode run's
    per-request cost spent on trace guards — the quantity the <5%
    budget binds) and ``enabled_overhead`` (full request tracing,
    reported for visibility, asserted only loosely: chaos-free tracing
    should not multiply serving cost).
    """
    inference, workload = _serving_setup(max_test=max_test)
    obs.disable()
    _serve_once(inference, workload)  # warm caches on both paths
    t_disabled = min(_serve_once(inference, workload) for _ in range(n_serves))
    obs.enable()
    try:
        t_enabled = min(
            _serve_once(inference, workload) for _ in range(n_serves)
        )
    finally:
        obs.disable()
        obs.reset()
    per_request_s = t_disabled / len(workload)
    guard_s = measure_trace_guard_s()
    return {
        "n_requests": len(workload),
        "disabled_s": t_disabled,
        "enabled_s": t_enabled,
        "per_request_us": per_request_s * 1e6,
        "guard_per_request_us": guard_s * 1e6,
        "guard_overhead": guard_s / per_request_s,
        "enabled_overhead": (t_enabled - t_disabled) / t_disabled,
    }


def test_disabled_overhead_under_5_percent():
    was_enabled = obs.enabled()
    obs.disable()
    try:
        # Best-of-3: scheduler noise only ever inflates the measurement.
        overhead = min(measure_encode_overhead() for _ in range(3))
    finally:
        if was_enabled:
            obs.enable()
    print(f"\ndisabled-mode encode overhead: {overhead * 100:+.2f}%")
    assert overhead < _THRESHOLD, (
        f"instrumentation costs {overhead * 100:.2f}% on the encode hot "
        f"loop with observability disabled (budget {_THRESHOLD * 100:.0f}%)"
    )


def test_serving_disabled_overhead_under_5_percent():
    was_enabled = obs.enabled()
    obs.disable()
    try:
        evidence = measure_serving_overhead()
    finally:
        if was_enabled:
            obs.enable()
    print(
        f"\nserving: {evidence['per_request_us']:.1f} us/request disabled, "
        f"trace guards {evidence['guard_per_request_us']:.4f} us/request "
        f"({evidence['guard_overhead'] * 100:.3f}%), tracing enabled "
        f"{evidence['enabled_overhead'] * 100:+.1f}%"
    )
    assert evidence["guard_overhead"] < _THRESHOLD, (
        f"disabled-mode trace guards cost "
        f"{evidence['guard_overhead'] * 100:.2f}% of the per-request "
        f"serving budget (budget {_THRESHOLD * 100:.0f}%)"
    )
    # Enabled tracing records ~15 events per request;
    # it must stay the same order of magnitude as untraced serving.
    assert evidence["enabled_overhead"] < 1.0, (
        f"tracing-enabled serving costs "
        f"{evidence['enabled_overhead'] * 100:.0f}% over disabled — "
        "tracing is no longer cheap enough to leave on in benchmarks"
    )


def run_smoke() -> dict:
    """Scaled-down version of both guards for the tier-1 suite.

    Scheduler noise can only *inflate* a measured overhead, so each
    check retries a few times and passes on the best observation —
    keeping the tier-1 gate meaningful without making it flaky.
    """
    obs.disable()
    encoder_overhead = min(measure_encode_overhead() for _ in range(3))
    servings = [
        measure_serving_overhead(n_serves=2, max_test=60) for _ in range(3)
    ]
    guard_overhead = min(s["guard_overhead"] for s in servings)
    enabled_overhead = min(s["enabled_overhead"] for s in servings)
    assert encoder_overhead < _THRESHOLD, (
        f"encode overhead {encoder_overhead * 100:.2f}% over budget"
    )
    assert guard_overhead < _THRESHOLD, (
        f"trace-guard overhead {guard_overhead * 100:.2f}% over budget"
    )
    return {
        "encode_overhead": encoder_overhead,
        "guard_overhead": guard_overhead,
        "enabled_overhead": enabled_overhead,
    }


def main(argv=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down overhead checks only (what tier-1 runs)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        evidence = run_smoke()
        print(f"obs overhead smoke OK: {evidence}")
        return
    test_disabled_overhead_under_5_percent()
    test_serving_disabled_overhead_under_5_percent()
    print("ok")


if __name__ == "__main__":
    main()
