"""Shared inputs, the cycle, the four workloads and the output check.

Everything here drives the program from outside through public
functions of ``repro.serve``, ``repro.hierarchy``, ``repro.network``
and ``repro.data``. A run is data generation once, then
``scale.cycles`` identical cycles (fresh federation -> fit -> runtime
-> warm-up -> unloaded segment -> bursts -> close), so every timed
metric rests on samples spread across the whole run.
"""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import resource
import shutil
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import EdgeHDConfig
from repro.data import load_dataset, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    OnlineLearner,
    TopologyController,
    build_tree,
)
from repro.network.medium import get_medium
from repro.network.message import MessageKind
from repro.serve import (
    ClusterConfig,
    ClusterRuntime,
    ServeConfig,
    ServeResult,
    ServeWorkload,
    ServingRuntime,
    make_workload,
    uniform_arrivals,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

DATASET = "PDP"
DATA_SEED = 7
N_LEAVES = 5
MEDIUM = "wifi-802.11ac"
#: one unloaded query every 40 ms: longer than the slowest leaf->root
#: answer (~33 ms p90), so exactly one request is in flight.
UNLOADED_RPS = 25.0
#: --seconds at which ``Workload.burst_n`` applies; it scales with it.
REF_SECONDS = 10
#: bursts per cycle (on ``serve_learn``, rounds with a write step each).
BURSTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    threshold: float
    #: queries per burst at ``REF_SECONDS``.
    burst_n: int
    cluster: bool = False
    learn: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("serve_escalate", 0.9, 400),
        Workload("serve_local", 0.52, 3000),
        Workload("cluster_escalate", 0.9, 400, cluster=True),
        Workload("serve_learn", 0.9, 400, learn=True),
    )
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one run, the same for every workload."""

    dimension: int
    max_train: int
    max_test: int
    cycles: int
    warmup_n: int
    unloaded_n: int
    #: queries per burst whatever the workload and ``--seconds``.
    fixed_n: Optional[int] = None

    def queries(self, workload: Workload, seconds: float) -> int:
        if self.fixed_n is not None:
            return self.fixed_n
        # the request pool (10/9 of a cycle's bursts) must leave the
        # probe rows
        cap = (self.max_test - self.unloaded_n) * 9 // (10 * BURSTS)
        n = round(workload.burst_n * seconds / REF_SECONDS)
        return int(min(max(n, 64), cap))


FULL = Scale(4000, 1250, 30000, cycles=3, warmup_n=128, unloaded_n=35)
SMOKE = Scale(512, 400, 2000, cycles=1, warmup_n=64, unloaded_n=20, fixed_n=75)


# ----------------------------------------------------------------------
# spans: the benchmark's only clock
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans around the calls into each layer.

    End-to-end numbers are read from these same spans, so the traced
    run and the untraced run time the program identically.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.cycle = -1
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "cycle": self.cycle,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> List[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    train_x: np.ndarray
    train_y: np.ndarray
    pool_x: np.ndarray
    pool_y: np.ndarray
    #: per pool row, the key of the end node it enters at (see ``pick``).
    leaf_keys: np.ndarray
    #: the pool in an order fixed by the data seed.
    order: np.ndarray
    n_classes: int
    config: EdgeHDConfig


def load_inputs(scale: Scale) -> Inputs:
    data = load_dataset(
        DATASET, scale=5.0, max_train=scale.max_train,
        max_test=scale.max_test, seed=DATA_SEED,
    )
    config = EdgeHDConfig(
        dimension=scale.dimension, retrain_epochs=15, batch_size=10,
        seed=DATA_SEED,
    )
    rng = np.random.default_rng(DATA_SEED)
    return Inputs(
        data.train_x, data.train_y, data.test_x, data.test_y,
        leaf_keys=rng.integers(0, 2 ** 31, size=len(data.test_x)),
        order=rng.permutation(len(data.test_x)),
        n_classes=data.n_classes, config=config,
    )


def fresh_federation(inputs: Inputs) -> EdgeHDFederation:
    partition = partition_features(inputs.train_x.shape[1], N_LEAVES)
    return EdgeHDFederation(
        build_tree(N_LEAVES), partition, inputs.n_classes, inputs.config
    )


def models_of(federation: EdgeHDFederation) -> Dict[int, np.ndarray]:
    return {
        nid: clf.class_hypervectors.copy()
        for nid, clf in federation.classifiers.items()
    }


def same_models(a: Dict[int, np.ndarray], b: Dict[int, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[nid], b[nid]) for nid in a
    )


# ----------------------------------------------------------------------
# the offline walk as oracle
# ----------------------------------------------------------------------
@dataclass
class Expected:
    labels: np.ndarray
    nodes: np.ndarray
    levels: np.ndarray
    total_bytes: int
    uplink_bytes: int
    escalations: int


def offline_walk(
    inference: HierarchicalInference, workload: ServeWorkload
) -> Expected:
    """``HierarchicalInference.run`` on the workload, in small chunks.

    Chunks keep the oracle's transient encodings out of the peak RSS
    the run reports; escalation counts are additive, so the byte total
    is charged once over the summed counts, as ``to_outcome`` does.
    """
    labels, nodes, levels = [], [], []
    counts: Dict[Tuple[int, int], int] = {}
    for lo in range(0, len(workload), 512):
        out = inference.run(
            workload.features[lo:lo + 512],
            start_leaves=workload.start_leaves[lo:lo + 512],
        )
        labels.append(out.labels)
        nodes.append(out.deciding_node)
        levels.append(out.deciding_level)
        for edge, count in out.escalations.items():
            counts[edge] = counts.get(edge, 0) + count
    messages = inference.escalation_messages(counts)
    return Expected(
        labels=np.concatenate(labels),
        nodes=np.concatenate(nodes),
        levels=np.concatenate(levels),
        total_bytes=sum(m.payload_bytes for m in messages),
        uplink_bytes=sum(
            m.payload_bytes
            for m in messages
            if m.kind is MessageKind.COMPRESSED_QUERY
        ),
        escalations=sum(counts.values()),
    )


@dataclass
class Tally:
    """Operations attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} x {note}")

    def check(
        self, result: ServeResult, expected: Expected, truth: np.ndarray
    ) -> Tuple[int, int]:
        """Count every answer that differs from the offline walk.

        Returns (answers equal to the true label, wire bytes charged).
        """
        n = len(expected.labels)
        self.attempted += n
        responses = result.responses
        if len(responses) != n:
            self.fail(n, f"{len(responses)} responses for {n} requests")
            return 0, 0
        refused = np.array(
            [r.shed or r.degraded or r.rejected for r in responses]
        )
        labels = np.array([r.label for r in responses])
        nodes = np.array([r.deciding_node for r in responses])
        self.fail(int(refused.sum()), "shed, rejected or degraded")
        differs = ~refused & (
            (labels != expected.labels) | (nodes != expected.nodes)
        )
        self.fail(int(differs.sum()), "label or deciding node off the walk")
        right = int(np.sum(~refused & (labels == truth)))
        if refused.any():
            return right, 0
        served_bytes = result.to_outcome().total_bytes
        self.fail(
            int(served_bytes != expected.total_bytes),
            f"byte total {served_bytes} != {expected.total_bytes}",
        )
        return right, served_bytes


# ----------------------------------------------------------------------
# process probes the leak check needs
# ----------------------------------------------------------------------
def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child_pids() -> List[int]:
    """Every direct child of this process, zombies too."""
    me, pids = os.getpid(), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = handle.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue  # gone between the listing and the read
        if int(parent) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> List[int]:
    """Stop every process this one started and wait until each has ended.

    ``close()`` joins the workers, but the first shared-memory block
    also starts multiprocessing's resource tracker, which nothing stops:
    it outlives the run as an orphan, or as a zombie where pid 1 reaps
    nothing. Workers of a run that raised before ``close()`` go first,
    as they hold the tracker's pipe open; closing our end then lets it
    unlink what that run leaked and exit. Whatever else is left is
    killed. Returns the pids that survived even that.
    """
    from multiprocessing import resource_tracker

    for worker in multiprocessing.active_children():
        worker.kill()
        worker.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # ended or reaped in the meantime
    return child_pids()


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap pages back to the kernel.

    Run between cycles: glibc keeps freed chunks under its (growing)
    mmap threshold on the heap, so what one cycle leaves behind sat
    under the next cycle's fit and moved the peak RSS by 50 MiB in two
    runs of ten.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return  # not glibc: nothing to trim
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@dataclass
class Burst:
    n: int
    wall_s: float
    answered: int
    batches: Optional[int]
    high_water: int
    cpu_s: Optional[float] = None

    @property
    def rps(self) -> float:
        return self.answered / self.wall_s


@dataclass
class Run:
    """The plan of one run of one workload, and everything it measured."""

    workload: Workload
    #: queries per burst.
    n: int
    inputs: Inputs
    spans: SpanLog
    burst_rows: np.ndarray
    warm_rows: np.ndarray
    probe_rows: np.ndarray
    corrupt_expected: bool = False
    tally: Tally = field(default_factory=Tally)
    #: ``serve_learn``: seconds of every step of the rounds, per cycle.
    cycle_round_s: List[List[float]] = field(default_factory=list)
    bursts: List[Burst] = field(default_factory=list)
    unloaded: List[ServeResult] = field(default_factory=list)
    #: cycle 0's fitted models and offline walks; later cycles must match.
    models: Optional[Dict[int, np.ndarray]] = None
    expected: List[Expected] = field(default_factory=list)
    #: (answers right, wire bytes, queries) of each cycle's bursts.
    cycle_exact: List[Tuple[int, int, int]] = field(default_factory=list)
    leaked_shm_segments: int = 0

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0

    def throughput_rps(self) -> float:
        """A cycle's queries over its timed steps, every step at its
        best over the cycles: the four bursts, on ``serve_learn`` every
        step of the four rounds.

        Other tenants of a shared host only ever slow a step down, for
        seconds at a time: in a five-minute series of 0.5 s bursts, cut
        into runs of twelve, the medians spread 11% and the bests 4%.
        All four bursts count, not the best one: on ``serve_local`` the
        few queries that reach the root set a burst's time, one burst of
        a seed is steadily 30% slower than another, and only the whole
        draw is alike from seed to seed (see ``run_workload``).
        """
        if self.workload.learn:
            steps = np.array(self.cycle_round_s)
        else:
            steps = np.array([b.wall_s for b in self.bursts]).reshape(
                -1, BURSTS
            )
        return BURSTS * self.n / float(steps.min(axis=0).sum())

    def setup_s(self, import_s: float) -> float:
        """Import, data generation, and fit, start and warm-up each at
        its best over the cycles.

        Not the median cycle: a fit is mostly first-touch page faults,
        which a busy host slows 2x for minutes. On ``serve_escalate``
        the median of three read 1.9 s in a calm hour and 3.2 s in a
        busy one, where this read 2.2 s.
        """
        return import_s + self.spans.seconds("setup.data")[0] + sum(
            min(self.spans.seconds(f"setup.{step}"))
            for step in ("fit", "start", "warmup")
        )

    def unloaded_ms(self, stage: str) -> np.ndarray:
        """Per probe query, the cycle in which it was answered fastest.

        Every cycle serves the same probe queries, and interference
        only ever adds to a latency.
        """

        def by_cycle(name: str) -> np.ndarray:
            return np.array(
                [
                    [getattr(r.timings, name) for r in result.responses]
                    for result in self.unloaded
                ]
            )

        fastest = np.argmin(by_cycle("total_ms"), axis=0)
        return by_cycle(stage)[fastest, np.arange(len(fastest))]

    def end_to_end(self, import_s: float) -> Dict[str, float]:
        """The seven metrics by name; units and bounds live in
        BENCHMARK.json."""
        total_ms = self.unloaded_ms("total_ms")
        right, wire, queries = self.cycle_exact[0]
        return {
            "setup_s": self.setup_s(import_s),
            "throughput_rps": self.throughput_rps(),
            "latency_unloaded_p50_ms": float(np.percentile(total_ms, 50)),
            "latency_unloaded_p90_ms": float(np.percentile(total_ms, 90)),
            "accuracy": right / queries,
            "wire_bytes_per_query": wire / queries,
            "peak_rss_mib": peak_rss_mib(),
        }


@dataclass
class Stack:
    """The trained tree and the runtime serving it."""

    federation: EdgeHDFederation
    inference: HierarchicalInference
    runtime: object


class Hooks:
    """What the traced run adds to a cycle; the untraced run adds nothing."""

    def cpu_s(self) -> Optional[float]:
        return None

    def before_close(self, run: Run, stack: Stack) -> None:
        pass

    def after_cycle(
        self, run: Run, stack: Stack, queries: ServeWorkload
    ) -> None:
        pass


def build_stack(workload: Workload, federation: EdgeHDFederation) -> Stack:
    inference = HierarchicalInference(
        federation, confidence_threshold=workload.threshold
    )
    medium = get_medium(MEDIUM)
    if workload.cluster:
        runtime = ClusterRuntime(
            inference, medium, ServeConfig(), ClusterConfig(workers=2)
        )
        runtime.start()
    else:
        runtime = ServingRuntime(inference, medium, ServeConfig())
    return Stack(federation, inference, runtime)


def pick(
    run: Run, inference: HierarchicalInference, rows: np.ndarray
) -> ServeWorkload:
    """The requests at pool ``rows``: features, entry leaf, true label.

    A pool row always enters at the same end node of a given tree (its
    key modulo the leaf count), as a reading belongs to the device that
    took it; after a join the new leaf gets its share.
    """
    leaves = np.asarray(inference.federation.hierarchy.leaves())
    return make_workload(
        run.inputs.pool_x[rows], inference, labels=run.inputs.pool_y[rows],
        start_leaves=leaves[run.inputs.leaf_keys[rows] % len(leaves)],
    )


def warm_up(run: Run, stack: Stack) -> None:
    warm = pick(run, stack.inference, run.warm_rows)
    stack.runtime.serve_open_loop(
        warm, rate_rps=1.0, arrivals=np.zeros(len(warm))
    )


def serve_burst(
    run: Run, runtime, workload: ServeWorkload, hooks: Hooks,
    span: str = "phase.burst",
) -> ServeResult:
    """All queries arrive at t=0; wall-clocked around the call."""
    cpu0 = hooks.cpu_s()
    with run.spans.span(span, n=len(workload)) as record:
        result = runtime.serve_open_loop(
            workload, rate_rps=1.0, arrivals=np.zeros(len(workload))
        )
    cpu1 = hooks.cpu_s()
    run.bursts.append(
        Burst(
            n=len(workload),
            wall_s=record["end"] - record["start"],
            answered=result.n_answered,
            batches=getattr(runtime, "n_batches", None),
            high_water=max(result.queue_high_water.values(), default=0),
            cpu_s=None if cpu0 is None else cpu1 - cpu0,
        )
    )
    return result


def serve_unloaded(run: Run, stack: Stack) -> None:
    """One request in flight; checked against the walk right away."""
    probe = pick(run, stack.inference, run.probe_rows)
    with run.spans.span("phase.unloaded", n=len(probe)):
        result = stack.runtime.serve_open_loop(
            probe, rate_rps=UNLOADED_RPS,
            arrivals=uniform_arrivals(len(probe), UNLOADED_RPS),
        )
    run.unloaded.append(result)
    run.tally.check(result, offline_walk(stack.inference, probe), probe.labels)


def check_models(run: Run, federation: EdgeHDFederation) -> None:
    """All fits must give ``array_equal`` models."""
    models = models_of(federation)
    if run.models is None:
        run.models = models
    else:
        run.tally.fail(
            int(not same_models(run.models, models)),
            f"fit of cycle {run.spans.cycle} differs from cycle 0",
        )


def expect(run: Run, index: int, stack: Stack, queries: ServeWorkload) -> Expected:
    """Cycle 0 walks offline; later cycles are held to the same answers,
    which the equal models guarantee."""
    if len(run.expected) == index:
        expected = offline_walk(stack.inference, queries)
        if run.corrupt_expected and index == 0:
            expected.labels[0] = (
                expected.labels[0] + 1
            ) % run.inputs.n_classes
        run.expected.append(expected)
    return run.expected[index]


def run_workload(
    workload: Workload,
    scale: Scale,
    seed: int,
    seconds: float,
    hooks: Optional[Hooks] = None,
    corrupt_expected: bool = False,
) -> Run:
    """Load the inputs once, then run ``scale.cycles`` identical cycles."""
    hooks = hooks or Hooks()
    spans = SpanLog(workload.name)
    with spans.span("setup.data"):
        inputs = load_inputs(scale)
    n = scale.queries(workload, seconds)
    # --seed draws the burst and warm-up requests from a request pool
    # only a ninth larger than the draw, and orders them. Escalated
    # queries cost 100x a leaf answer, so their count sets throughput;
    # drawn from the whole pool it swings 12% between seeds (7% of
    # throughput on serve_local), drawn from this one a third of that.
    # Any two seeds still differ in a tenth of their requests, in the
    # order of all of them, and so in every batch.
    served = BURSTS * n
    requests = inputs.order[:max(served * 10 // 9, served + scale.warmup_n)]
    drawn = requests[np.random.default_rng(seed).permutation(len(requests))]
    # The unloaded probe is the same for every seed and cycle. At
    # threshold 0.9 the latency distribution has four modes and the
    # median sits 3-6 points from a mode boundary, so a seed-drawn
    # sample this small would put p50 in another mode for 1 seed in 13
    # -- a 2x jump that says nothing about speed.
    run = Run(
        workload, n, inputs, spans,
        burst_rows=drawn[:served],
        warm_rows=drawn[served:served + scale.warmup_n],
        probe_rows=inputs.order[len(inputs.order) - scale.unloaded_n:],
        corrupt_expected=corrupt_expected,
    )
    cycle = run_learn_cycle if workload.learn else run_read_cycle
    try:
        for index in range(scale.cycles):
            spans.cycle = index
            cycle(run, hooks)
            release_freed_memory()
    finally:
        left_running = stop_children()
    run.tally.attempted += 1
    run.tally.fail(len(left_running), f"process left running: {left_running}")
    run.tally.fail(
        len(set(run.cycle_exact)) - 1,
        f"accuracy or wire bytes differ across cycles: {run.cycle_exact}",
    )
    return run


def run_read_cycle(run: Run, hooks: Hooks) -> None:
    """fit -> start -> warm-up -> unloaded -> the bursts -> close."""
    workload, spans, inputs = run.workload, run.spans, run.inputs
    segments_before = shm_segments()
    with spans.span("setup"):
        with spans.span("setup.fit"):
            federation = fresh_federation(inputs)
            federation.fit_offline(inputs.train_x, inputs.train_y)
        with spans.span("setup.start"):
            stack = build_stack(workload, federation)
        with spans.span("setup.warmup"):
            warm_up(run, stack)

    both = pick(run, stack.inference, run.burst_rows)
    bursts = [
        ServeWorkload(
            both.features[lo:lo + run.n], both.start_leaves[lo:lo + run.n],
            both.labels[lo:lo + run.n],
        )
        for lo in range(0, len(both), run.n)
    ]
    serve_unloaded(run, stack)
    served = [serve_burst(run, stack.runtime, w, hooks) for w in bursts]

    hooks.before_close(run, stack)
    if workload.cluster:
        with spans.span("cluster.close"):
            stack.runtime.close()
        run.tally.attempted += 1
        run.tally.fail(
            len(multiprocessing.active_children()),
            "worker process alive after close()",
        )
        leaked = shm_segments() - segments_before
        run.leaked_shm_segments += len(leaked)
        run.tally.fail(len(leaked), f"/dev/shm segment leaked: {leaked}")

    # Outside the timed windows: the offline walk on the same models.
    check_models(run, federation)
    right = wire = 0
    for index, (result, burst) in enumerate(zip(served, bursts)):
        checked = run.tally.check(
            result, expect(run, index, stack, burst), burst.labels
        )
        right, wire = right + checked[0], wire + checked[1]
    run.cycle_exact.append((right, wire, len(both)))
    hooks.after_cycle(run, stack, bursts[-1])


def run_learn_cycle(run: Run, hooks: Hooks) -> None:
    """The write path beside the read path.

    Four rounds of serve -> feedback for every wrong answer at its
    deciding node -> propagate -> checkpoint; round 2 ends with a join,
    round 3 with a restore the serving continues on, round 4 with the
    drain of the joined leaf.
    """
    workload, spans, inputs = run.workload, run.spans, run.inputs
    scratch = RESULTS_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "topology.npz"
    try:
        with spans.span("setup"):
            with spans.span("setup.fit"):
                federation = fresh_federation(inputs)
                controller = TopologyController(
                    federation, inputs.train_x, inputs.train_y,
                    learner=OnlineLearner(
                        federation, feedback_includes_label=True
                    ),
                )
                controller.fit()
            with spans.span("setup.start"):
                stack = build_stack(workload, federation)
            with spans.span("setup.warmup"):
                warm_up(run, stack)
            check_models(run, federation)
        serve_unloaded(run, stack)

        first_span = len(spans.spans)
        right = wire = 0
        joined = None
        for index in range(BURSTS):
            rows = run.burst_rows[index * run.n:(index + 1) * run.n]
            queries = pick(run, stack.inference, rows)
            # Untimed, and before the feedback changes the models.
            expected = expect(run, index, stack, queries)
            result = serve_burst(
                run, stack.runtime, queries, hooks, "learn.round.serve"
            )
            checked = run.tally.check(result, expected, queries.labels)
            right, wire = right + checked[0], wire + checked[1]

            with spans.span("learn.round.feedback") as record:
                labels = np.array([r.label for r in result.responses])
                nodes = np.array([r.deciding_node for r in result.responses])
                wrong = np.flatnonzero(labels != queries.labels)
                for node in np.unique(nodes[wrong]):
                    at_node = wrong[nodes[wrong] == node]
                    encoded = stack.federation.encode_at(
                        int(node), queries.features[at_node]
                    )
                    for hv, i in zip(encoded, at_node):
                        controller.record_feedback(
                            int(node), hv, int(labels[i]),
                            int(queries.labels[i]),
                        )
                record["events"] = int(wrong.size)
            with spans.span("learn.round.propagate"):
                controller.learner.propagate()
            with spans.span("learn.round.checkpoint") as record:
                controller.checkpoint(path)
                record["bytes"] = path.stat().st_size
            if index == 1:
                with spans.span("learn.round.join"):
                    joined = controller.join(
                        controller.federation.hierarchy.root_id
                    )
            elif index == 2:
                with spans.span("learn.round.restore"):
                    restored = TopologyController.restore(
                        path, inputs.train_x, inputs.train_y
                    )
                run.tally.attempted += 1
                run.tally.fail(
                    int(not same_models(
                        models_of(controller.federation),
                        models_of(restored.federation),
                    )),
                    "restored model differs from the live one",
                )
                controller = restored
            elif index == 3:
                with spans.span("learn.round.drain"):
                    controller.drain(joined.node_id)
            stack = build_stack(workload, controller.federation)
        run.cycle_exact.append((right, wire, BURSTS * run.n))
        # Throughput counts every write step; the offline checks fall
        # between the spans and are excluded.
        run.cycle_round_s.append(
            [
                s["end"] - s["start"]
                for s in spans.spans[first_span:]
                if s["name"].startswith("learn.round.")
            ]
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    hooks.after_cycle(run, stack, pick(run, stack.inference, rows))
