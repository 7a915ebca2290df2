"""The traced run: per-layer metrics from one cycle plus probes.

Sources, as the README's interaction table names them: (R) public
``ServeResult`` / ``ServeResponse.timings`` / ``runtime.n_batches`` /
``topology()`` fields, (P) timed calls into one public function on
rows of the workload's own queries, (C) computed from shapes and
counts, (O) the ``repro.obs`` registry. None of this runs, and
``repro.obs`` stays off, when the end-to-end metrics are measured.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
from typing import Callable, Dict, List

import numpy as np

import repro.obs as obs
from repro.core.compression import compressed_bundle_bytes
from repro.core.projection import concatenate_hypervectors
from repro.network.medium import get_medium
from repro.serve import ServeWorkload
from repro.serve.request import STAGES

from harness import MEDIUM, Hooks, Run, Stack, build_stack

_TICKS = os.sysconf("SC_CLK_TCK")


def _children() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()]


def process_cpu_s() -> float:
    """User + system CPU seconds of this process and its live children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    total = own.ru_utime + own.ru_stime
    for pid in _children():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def children_rss_mib() -> float:
    """Largest resident set among the live child processes."""
    page = os.sysconf("SC_PAGE_SIZE")
    sizes = [0.0]
    for pid in _children():
        try:
            with open(f"/proc/{pid}/statm") as handle:
                sizes.append(int(handle.read().split()[1]) * page / 2 ** 20)
        except OSError:
            continue
    return max(sizes)


class TraceHooks(Hooks):
    """Adds CPU accounting, a traced phase and the probes to a cycle."""

    def __init__(self, calls_b1: int, calls_b32: int) -> None:
        self.calls_b1 = calls_b1
        self.calls_b32 = calls_b32
        self.values: Dict[str, float] = {}

    def cpu_s(self) -> float:
        return process_cpu_s()

    def before_close(self, run: Run, stack: Stack) -> None:
        if run.workload.cluster:
            topology = stack.runtime.topology()
            self.values["cluster.shared_mib"] = (
                topology["shared_memory_bytes"] / 2 ** 20
            )
            self.values["cluster.evictions"] = float(topology["evictions"])
            self.values["cluster.worker_rss_mib"] = children_rss_mib()

    def after_cycle(
        self, run: Run, stack: Stack, queries: ServeWorkload
    ) -> None:
        self.values.update(_traced_phase(run, stack, queries))
        self.values.update(_probes(self, run, stack, queries))


# ----------------------------------------------------------------------
# (O) the same bursts with repro.obs enabled
# ----------------------------------------------------------------------
def _traced_phase(
    run: Run, stack: Stack, queries: ServeWorkload
) -> Dict[str, float]:
    """Two bursts with ``repro.obs`` on, best against best untraced.

    The cluster gets an instance of its own, so the workers' batch
    counters, which reach the registry at ``close()``, cover exactly
    these two bursts.
    """
    n = len(queries)
    untraced_rps = max(b.rps for b in run.bursts)
    traced_rps = 0.0
    obs.reset()
    obs.enable()
    try:
        traced = (
            build_stack(run.workload, stack.federation)
            if run.workload.cluster
            else stack
        )
        events = 0
        for _ in range(2):
            with run.spans.span("probe.traced_burst", n=n) as record:
                result = traced.runtime.serve_open_loop(
                    queries, rate_rps=1.0, arrivals=np.zeros(n)
                )
            traced_rps = max(
                traced_rps, n / (record["end"] - record["start"])
            )
            events += len(result.traces) if result.traces is not None else 0
        if run.workload.cluster:
            traced.runtime.close()
        events += len(obs.get_trace())
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    values = {
        "obs.enabled_overhead_share": 1.0 - traced_rps / untraced_rps,
        "obs.events_per_query": events / (2 * n),
    }
    if run.workload.cluster:
        batches = sum(
            series["value"]
            for key, series in snapshot.items()
            if obs.parse_series_key(key)[0] == "cluster.worker.batches"
        )
        values["serve.burst.batches"] = batches / 2
        values["serve.burst.mean_batch_size"] = 2 * n / max(batches, 1)
    return values


# ----------------------------------------------------------------------
# (P) probes and (C) computed
# ----------------------------------------------------------------------
def _median_s(
    run: Run, name: str, call: Callable[[int], object], calls: int
) -> float:
    samples = []
    with run.spans.span(f"probe.{name}", calls=calls):
        for i in range(calls):
            start = time.perf_counter()
            call(i)
            samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _probes(
    hooks: TraceHooks, run: Run, stack: Stack, queries: ServeWorkload
) -> Dict[str, float]:
    federation, inference = stack.federation, stack.inference
    hierarchy = federation.hierarchy
    root = hierarchy.root_id
    n = len(queries)
    b1, b32 = hooks.calls_b1, hooks.calls_b32
    rows = queries.features

    def one(i: int) -> np.ndarray:
        return np.arange(i % n, i % n + 1)

    def window(i: int) -> np.ndarray:
        return (32 * i + np.arange(32)) % n

    values: Dict[str, float] = {}
    walk_s = _median_s(
        run, "walk.burst",
        lambda i: inference.run(rows, start_leaves=queries.start_leaves), 3,
    )
    values["hierarchy.walk.qps"] = n / walk_s
    values["hierarchy.walk.single_ms_p50"] = 1e3 * _median_s(
        run, "walk.single",
        lambda i: inference.run(
            rows[one(i)], start_leaves=queries.start_leaves[one(i)]
        ),
        b1,
    )
    for batch, pick, calls in (("b1", one, b1), ("b32", window, b32)):
        values[f"hierarchy.encode_at_root.ms_{batch}"] = 1e3 * _median_s(
            run, f"encode_at_root.{batch}",
            lambda i, pick=pick: federation.encode_at(root, rows[pick(i)]),
            calls,
        )

    # Inputs of the root projection and the root search, built once.
    some = rows[:min(n, 32 * b32)]
    m = len(some)
    children = concatenate_hypervectors(
        [
            federation.encode_at(child, some, view="forward")
            for child in hierarchy.nodes[root].children
        ]
    )
    at_root = federation.encode_at(root, some)
    leaf = hierarchy.leaves()[0]
    local = federation.partition.restrict(
        some, hierarchy.nodes[leaf].leaf_index
    )
    projection = federation.projections[root]
    encoder = federation.encoders[leaf]
    classifier = federation.classifiers[root]
    for batch, pick, calls, size in (
        ("b1", one, b1, 1), ("b32", window, b32, 32)
    ):
        values[f"core.project.ms_{batch}"] = 1e3 * _median_s(
            run, f"project.{batch}",
            lambda i, pick=pick: projection.project(children[pick(i) % m]),
            calls,
        )
        values[f"core.encode.us_per_row_{batch}"] = 1e6 / size * _median_s(
            run, f"encode.{batch}",
            lambda i, pick=pick: encoder.encode(local[pick(i) % m]),
            calls,
        )
        values[f"core.search.us_per_row_{batch}"] = 1e6 / size * _median_s(
            run, f"search.{batch}",
            lambda i, pick=pick: classifier.predict(
                at_root[pick(i) % m], search=inference.search
            ),
            calls,
        )

    values["core.project.operand_mib"] = projection.matrix.size * 8 / 2 ** 20
    bundle = compressed_bundle_bytes(
        sum(hierarchy.nodes[c].dimension for c in hierarchy.nodes[root].children),
        inference.compression_count,
    )
    medium = get_medium(MEDIUM)
    values["network.sim_ms_per_hop"] = 1e3 * (
        medium.transfer_time(bundle) + medium.transfer_time(4)
    )
    return values


# ----------------------------------------------------------------------
# assembling every per-layer metric
# ----------------------------------------------------------------------
def per_layer(run: Run, hooks: TraceHooks, import_s: float) -> Dict[str, float]:
    """Every per-layer metric by name; units live in BENCHMARK.json.

    A metric of a layer the workload does not have (the cluster's on an
    in-process workload, the write path's on a read-only one) is 0.
    """
    spans = run.spans
    out = dict(hooks.values)

    def first(name: str) -> float:
        return (spans.seconds(name) or [0.0])[0]

    # (R) stage budget of the unloaded queries
    stages = {
        stage: run.unloaded_ms(stage) for stage in STAGES + ("total_ms",)
    }
    residual = stages["total_ms"] - sum(stages[s] for s in STAGES)
    for stage in STAGES:
        out[f"serve.unloaded.{stage}_p50"] = float(np.median(stages[stage]))
    out["serve.unloaded.residual_ms_p50"] = float(np.median(residual))
    out["serve.unloaded.residual_share"] = float(
        residual.sum() / stages["total_ms"].sum()
    )

    # (R/C) the untraced bursts
    bursts = run.bursts
    rates = np.array([b.rps for b in bursts])
    served = sum(b.n for b in bursts)
    escalations = sum(e.escalations for e in run.expected)
    queries = sum(len(e.labels) for e in run.expected)
    if not run.workload.cluster:
        batches = sum(b.batches for b in bursts)
        out["serve.burst.batches"] = batches / len(bursts)
        # every node a query visits batches it once
        out["serve.burst.mean_batch_size"] = (
            served * (1 + escalations / queries) / batches
        )
    out["serve.burst.queue_high_water"] = float(
        max(b.high_water for b in bursts)
    )
    out["serve.burst.overhead_ms_per_query"] = (
        1e3 / run.throughput_rps() - 1e3 / out["hierarchy.walk.qps"]
    )
    cpu_s = sum(b.cpu_s for b in bursts)
    out["serve.burst.cpu_ms_per_query"] = 1e3 * cpu_s / served
    out["serve.burst.cores_busy"] = cpu_s / sum(b.wall_s for b in bursts)
    out["serve.burst.throughput_rps_median"] = float(np.median(rates))
    out["serve.burst.throughput_rps_spread"] = float(
        (rates.max() - rates.min()) / np.median(rates)
    )
    out["serve.failed"] = float(run.tally.failed)

    cluster = run.workload.cluster
    out["cluster.start_s"] = first("setup.start") if cluster else 0.0
    out["cluster.close_s"] = first("cluster.close")
    for name in (
        "cluster.shared_mib", "cluster.worker_rss_mib", "cluster.evictions"
    ):
        out.setdefault(name, 0.0)
    out["cluster.leaked_shm_segments"] = float(run.leaked_shm_segments)

    out["hierarchy.fit_s"] = first("setup.fit")
    out["data.generate_s"] = first("setup.data")
    out["bench.import_s"] = import_s

    # (C) exact, from the offline walk of the burst queries
    levels = np.concatenate([e.levels for e in run.expected])
    out["hierarchy.escalations_per_query"] = escalations / queries
    for level in (1, 2, 3):
        out[f"hierarchy.decided_share_l{level}"] = float(
            np.mean(levels == level)
        )
    out["core.bundle_bytes_per_escalation"] = sum(
        e.uplink_bytes for e in run.expected
    ) / max(escalations, 1)

    # the write path, from the benchmark's own spans
    def seconds(step: str) -> List[float]:
        return spans.seconds(f"learn.round.{step}") or [0.0]

    marks = [s for s in spans.spans if s["name"].startswith("learn.round.")]
    events = sum(s.get("events", 0) for s in marks)
    round_s = sum(s["end"] - s["start"] for s in marks)
    out["hierarchy.online.feedback_events"] = float(events)
    out["hierarchy.online.feedback_us_per_event"] = (
        1e6 * sum(seconds("feedback")) / max(events, 1)
    )
    out["hierarchy.online.propagate_ms"] = 1e3 * float(
        np.median(seconds("propagate"))
    )
    out["hierarchy.checkpoint.save_ms"] = 1e3 * float(
        np.median(seconds("checkpoint"))
    )
    out["hierarchy.checkpoint.kib"] = float(
        np.median([s["bytes"] for s in marks if "bytes" in s] or [0.0])
    ) / 1024
    out["hierarchy.checkpoint.restore_s"] = sum(seconds("restore"))
    out["hierarchy.control.join_s"] = sum(seconds("join"))
    out["hierarchy.control.drain_s"] = sum(seconds("drain"))
    out["serve.learn.read_share"] = (
        sum(seconds("serve")) / round_s if marks else 0.0
    )
    return out
