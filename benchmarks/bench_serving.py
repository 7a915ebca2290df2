"""Serving-runtime smoke: served answers == the offline walk (Sec. IV-C).

The timing-independent contracts of :mod:`repro.serve` on one small
trained TREE federation: the served labels / deciding nodes / levels /
message accounting equal ``HierarchicalInference.run`` on the same
queries and seed; and an overloaded shed-policy run sheds instead of
growing its queues. The cluster's equivalence to the offline walk is
pinned by ``tests/test_serve_cluster.py`` and ``benchmarks/e2e``.

Run standalone with ``python benchmarks/bench_serving.py [--smoke]``;
``tests/test_bench_serving_smoke.py`` runs the same checks in tier-1.
Serving throughput and latency are measured by ``benchmarks/e2e`` (see
its README), not here.
"""

import numpy as np

from repro.config import EdgeHDConfig
from repro.data import DATASETS, load_dataset, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    build_tree,
)
from repro.network.medium import get_medium
from repro.serve import ServeConfig, ServingRuntime, make_workload

DATASET = "APRI"


def check_equivalence() -> dict:
    """Timing-independent smoke: serving == offline, overload sheds.

    Asserts (a) the served labels / deciding nodes / levels / message
    accounting match ``HierarchicalInference.run`` on the same queries
    and seed, and (b) an overloaded shed-policy run terminates with
    counted sheds and bounded queue high-water marks. Returns the
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

    runtime = ServingRuntime(
        inference,
        get_medium("wired-1gbps"),
        ServeConfig(max_batch=8, queue_depth=512),
    )
    served = runtime.serve_open_loop(workload, rate_rps=2000.0, seed=1)
    out = served.to_outcome()
    if not np.array_equal(out.labels, offline.labels):
        raise AssertionError("served labels differ from the offline walk")
    if not np.array_equal(out.deciding_node, offline.deciding_node):
        raise AssertionError("served deciding nodes differ from offline")
    if not np.array_equal(out.deciding_level, offline.deciding_level):
        raise AssertionError("served deciding levels differ from offline")
    if out.total_bytes != offline.total_bytes:
        raise AssertionError(
            f"served message accounting ({out.total_bytes} B) differs "
            f"from offline ({offline.total_bytes} B)"
        )

    depth = 4
    overload = ServingRuntime(
        inference,
        get_medium("bluetooth-4.0"),
        ServeConfig(
            max_batch=4, queue_depth=depth,
            policy="shed", service_time_base_s=0.004,
        ),
    )
    shed_run = overload.serve_open_loop(workload, rate_rps=5000.0, seed=1)
    if shed_run.n_shed == 0:
        raise AssertionError("overload run shed nothing — not overloaded?")
    high_water = max(shed_run.queue_high_water.values())
    if high_water > depth:
        raise AssertionError(
            f"queue high-water {high_water} exceeded bound {depth}"
        )
    if shed_run.n_total != len(workload):
        raise AssertionError(
            "overload run lost requests: "
            f"{shed_run.n_total}/{len(workload)} terminal responses"
        )
    return {
        "n_queries": len(workload),
        "labels_equal": True,
        "bytes_equal": True,
        "overload_shed": shed_run.n_shed,
        "overload_high_water": high_water,
    }


def main(argv=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the timing-independent serving-vs-offline equivalence "
        "+ overload shedding checks (all this script does)",
    )
    parser.parse_args(argv)
    evidence = check_equivalence()
    print(f"serving smoke OK: {evidence}")


if __name__ == "__main__":
    main()
