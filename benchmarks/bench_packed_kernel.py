"""Dense vs bit-packed associative search (paper Sec. V).

Times :meth:`HDClassifier.predict` under the two backends
:class:`~repro.core.search.SearchSpec` selects between — dense float
cosine and packed XOR+popcount — on a grid of dimensionalities and
batch sizes. Queries are noisy class members (a flip-noise fraction of
each class hypervector). Packed timings include query packing — the
end-to-end cost a deployment would pay.

Emits ``benchmarks/results/BENCH_packed.json`` with per-cell timings
and speedups, plus a human-readable table. Run standalone with
``python benchmarks/bench_packed_kernel.py [--smoke]``; ``--smoke``
skips the timing grid and only checks dense/packed label equivalence
and the packed-path observability counter (timing-independent, safe
for CI), which is also what ``tests/test_bench_packed_smoke.py``
exercises so the packed path cannot silently fall back to the dense
one.
"""

import time

import numpy as np
from _common import save_json, save_report

import repro.obs as obs
from repro.core.classifier import HDClassifier
from repro.core.hypervector import random_bipolar
from repro.core.kernels import pack_bits, packed_dot
from repro.core.search import SearchSpec

#: Timing grid: hypervector dimensionality x query batch size.
DIMENSIONS = (1000, 4000, 10000)
BATCH_SIZES = (64, 512, 2000)
N_CLASSES = 10
REPEATS = 5
#: Fraction of elements flipped to turn a class hypervector into a
#: query — the classification noise level of the timing grid.
QUERY_NOISE = 0.05

PACKED_SPEC = SearchSpec(backend="packed")


def make_classifier(dimension: int, seed: int) -> HDClassifier:
    """A binarized classifier with random bipolar class hypervectors."""
    clf = HDClassifier(N_CLASSES, dimension)
    clf.set_model(
        random_bipolar(dimension, count=N_CLASSES, seed=seed).astype(float)
    )
    clf.binarize_model()
    return clf


def make_queries(
    clf: HDClassifier, batch: int, seed: int, noise: float = QUERY_NOISE
) -> np.ndarray:
    """Noisy class-member queries: prototypes with ``noise`` flips."""
    rng = np.random.default_rng(seed)
    members = clf.class_hypervectors[
        rng.integers(0, clf.n_classes, size=batch)
    ]
    flips = rng.random((batch, clf.dimension)) < noise
    return np.where(flips, -members, members).astype(float)


def _untied_rows(clf: HDClassifier, queries: np.ndarray) -> np.ndarray:
    """Boolean mask of queries whose top dot product is unique.

    Computed with the exact integer kernel, so the mask is free of
    float rounding: on these rows dense and packed argmax MUST agree.
    """
    dots = packed_dot(pack_bits(queries), pack_bits(clf.class_hypervectors))
    top = dots.max(axis=1)
    return (dots == top[:, None]).sum(axis=1) == 1


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Best wall-clock seconds over ``repeats`` runs (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_grid() -> dict:
    """Measure the dense-vs-packed grid; returns the JSON payload.

    Both backends are timed end to end through ``predict`` (query
    packing included — the cost a deployment pays).
    """
    cells = []
    for dimension in DIMENSIONS:
        clf = make_classifier(dimension, seed=dimension)
        for batch in BATCH_SIZES:
            queries = make_queries(clf, batch, seed=dimension + batch)
            # Warm up both paths (lazy model packing, allocator).
            dense = clf.predict(queries, search=SearchSpec())
            packed = clf.predict(queries, search=PACKED_SPEC)
            untied = _untied_rows(clf, queries)
            t_dense = _best_of(
                lambda: clf.predict(queries, search=SearchSpec())
            )
            t_packed = _best_of(
                lambda: clf.predict(queries, search=PACKED_SPEC)
            )
            cells.append({
                "dimension": dimension,
                "batch": batch,
                "dense_ms": t_dense * 1e3,
                "packed_ms": t_packed * 1e3,
                "speedup_packed": t_dense / t_packed,
                "label_agreement_dense": float(
                    np.mean(dense.labels[untied] == packed.labels[untied])
                ),
            })
    return {
        "n_classes": N_CLASSES,
        "repeats": REPEATS,
        "query_noise": QUERY_NOISE,
        "search_specs": {
            "dense": SearchSpec().to_metadata(),
            "packed": PACKED_SPEC.to_metadata(),
        },
        "note": (
            "best-of-N wall clock; every cell times "
            "HDClassifier.predict end to end (query packing included)"
        ),
        "cells": cells,
    }


def format_grid(payload: dict) -> str:
    lines = [
        "Associative search backends (binarized model, noisy class members)",
        "speedup = dense/packed, HDClassifier.predict end to end",
        f"{'D':>6} {'batch':>6} {'dense ms':>9} {'packed ms':>9} "
        f"{'pack x':>7} {'agree':>6}",
    ]
    for c in payload["cells"]:
        lines.append(
            f"{c['dimension']:>6} {c['batch']:>6} {c['dense_ms']:>9.3f} "
            f"{c['packed_ms']:>9.3f} {c['speedup_packed']:>6.1f}x "
            f"{c['label_agreement_dense']:>6.3f}"
        )
    lines.append(
        "('agree' = dense-vs-packed label agreement outside exact "
        "similarity ties)"
    )
    return "\n".join(lines)


def check_equivalence(dimension: int = 1024, batch: int = 128) -> dict:
    """Timing-independent smoke checks for the packed path.

    Asserts (a) dense and packed backends return identical labels on a
    binarized model outside exact ties and a maximal class on ties, and
    (b) the packed path actually runs its kernel, witnessed by the
    ``core.similarity.packed_queries`` counter. Returns the evidence so
    callers can report it.
    """
    clf = make_classifier(dimension, seed=99)
    queries = make_queries(clf, batch, seed=7)
    def counter(name: str) -> int:
        entry = obs.snapshot().get(name)
        return int(entry["value"]) if entry else 0

    was_enabled = obs.enabled()
    obs.enable()
    try:
        packed_before = counter("core.similarity.packed_queries")
        dense = clf.predict(queries, search=SearchSpec())
        packed = clf.predict(queries, search=PACKED_SPEC)
        packed_after = counter("core.similarity.packed_queries")
    finally:
        if not was_enabled:
            obs.disable()
    untied = _untied_rows(clf, queries)
    if not np.array_equal(dense.labels[untied], packed.labels[untied]):
        raise AssertionError(
            "packed backend disagrees with dense on a binarized model "
            "outside exact similarity ties"
        )
    # On exact ties both backends must still pick *a* maximal class.
    dots = packed_dot(pack_bits(queries), pack_bits(clf.class_hypervectors))
    top = dots.max(axis=1)
    rows = np.arange(len(queries))
    if not (dots[rows, dense.labels] == top).all():
        raise AssertionError("dense argmax picked a non-maximal class")
    if not (dots[rows, packed.labels] == top).all():
        raise AssertionError("packed argmax picked a non-maximal class")
    if packed_after - packed_before != batch:
        raise AssertionError(
            "packed path did not increment core.similarity."
            f"packed_queries by {batch} (got "
            f"{packed_after - packed_before}) — did it silently "
            "fall back to the dense path?"
        )
    return {
        "dimension": dimension,
        "batch": batch,
        "labels_equal_excl_ties": True,
        "n_exact_ties": int((~untied).sum()),
        "packed_queries_counted": packed_after - packed_before,
    }


def bench_packed_kernel(benchmark):
    """pytest-benchmark entry: full grid + the acceptance bars."""
    payload = benchmark.pedantic(
        run_grid, rounds=1, iterations=1, warmup_rounds=0
    )
    payload["smoke"] = check_equivalence()
    save_json("BENCH_packed", payload)
    save_report("bench_packed_kernel", format_grid(payload))
    top = [c for c in payload["cells"] if c["dimension"] == 10000]
    assert max(c["speedup_packed"] for c in top) >= 3.0, (
        "packed kernel must be >=3x dense at D=10000"
    )


def main(argv=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip the timing grid; only run the timing-independent "
        "dense/packed equivalence and obs-counter checks",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        evidence = check_equivalence()
        print(f"packed-kernel smoke OK: {evidence}")
        return
    payload = run_grid()
    payload["smoke"] = check_equivalence()
    save_json("BENCH_packed", payload)
    save_report("bench_packed_kernel", format_grid(payload))
    print(format_grid(payload))


if __name__ == "__main__":
    main()
