"""``repro.serve`` — async hierarchical inference serving (Sec. IV-C live).

Turns a trained :class:`~repro.hierarchy.inference.HierarchicalInference`
tree into a live service: requests arrive over time at end nodes, each
node micro-batches its bounded inbox (takes what is queued, up to
``max_batch``), classifies the cohort in one vectorized associative
search, and escalates low-confidence queries upward in compressed
``m``-query bundles whose transfer time and energy are charged through
the configured :class:`~repro.network.medium.Medium`. Bounded queues
apply backpressure under overload — block the producer or shed load,
policy-selectable.

The decision rule at every node is *identical* to the offline batch
walk of :meth:`HierarchicalInference.run`; on the same queries (same
seed) the served answers, escalation decisions and aggregate wire bytes
match the offline outcome exactly (verified by the serving benchmark's
smoke mode and tier-1 tests).

With a :class:`~repro.serve.faults.FaultPlan` the same tree serves
through deterministic chaos — message drops, latency jitter, payload
dimension/block loss, node crash windows — and the runtime answers
every request anyway via retry/backoff, per-hop timeouts, and degraded
local answers (see the chaos benchmark and ``tests/test_serve_faults``).

For throughput beyond one process, :class:`~repro.serve.cluster.
ClusterRuntime` serves the same contract over a fleet of OS worker
processes that attach read-only model replicas from a
:class:`~repro.serve.shard.SharedModelStore` (zero copies, zero
pickling): the router keeps one backlog and hands it to the
least-loaded idle replica, with heartbeat-based eviction
(:class:`~repro.serve.registry.ReplicaRegistry`).

Quickstart::

    from repro.serve import ServeConfig, ServingRuntime, make_workload
    from repro.network.medium import get_medium

    runtime = ServingRuntime(inference, get_medium("wifi-802.11ac"),
                             ServeConfig(max_batch=16))
    workload = make_workload(test_x, inference, seed=7)
    result = runtime.serve_open_loop(workload, rate_rps=500.0, seed=7)
    print(result.summary())
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.cluster import ClusterConfig, ClusterRuntime, WorkerSpec
from repro.serve.faults import FaultPlan
from repro.serve.registry import ReplicaInfo, ReplicaRegistry
from repro.serve.shard import NodeLayout, SharedModelStore
from repro.serve.queueing import (
    BoundedQueue,
    QueueTimeout,
    ShedError,
)
from repro.serve.report import (
    build_report,
    render_report,
    render_timeline,
    serve_report,
)
from repro.serve.request import (
    ServeRequest,
    ServeResponse,
    ServeResult,
    StageTimings,
)
from repro.serve.runtime import ServeConfig, ServingRuntime
from repro.serve.tracing import (
    RequestTraceLog,
    TraceContext,
    TraceEvent,
    load_request_trace,
    semantic_timeline,
)
from repro.serve.workload import (
    ServeWorkload,
    make_workload,
    poisson_arrivals,
    uniform_arrivals,
)

__all__ = [
    "BoundedQueue",
    "ClusterConfig",
    "ClusterRuntime",
    "FaultPlan",
    "MicroBatcher",
    "NodeLayout",
    "QueueTimeout",
    "ReplicaInfo",
    "ReplicaRegistry",
    "RequestTraceLog",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "ServeResult",
    "ServeWorkload",
    "ServingRuntime",
    "SharedModelStore",
    "ShedError",
    "StageTimings",
    "TraceContext",
    "WorkerSpec",
    "TraceEvent",
    "build_report",
    "load_request_trace",
    "make_workload",
    "poisson_arrivals",
    "render_report",
    "render_timeline",
    "semantic_timeline",
    "serve_report",
    "uniform_arrivals",
]
