"""Deterministic fault injection for the serving runtime (chaos harness).

The paper's robustness study (Sec. VI-F, Fig. 12) argues that the
holographic HD encoding degrades *gracefully* when dimensions are lost
in flight and messages are dropped. A :class:`FaultPlan` turns those
failure mechanisms into a reproducible chaos schedule for
:class:`~repro.serve.runtime.ServingRuntime`:

* **message drops** — every escalation attempt of every request flips a
  Bernoulli coin through the existing
  :class:`~repro.network.failure.FailureModel`;
* **payload corruption** — in-flight query bundles lose a fraction of
  their dimensions (:func:`~repro.network.failure.drop_dimensions`) or
  contiguous packet-sized blocks
  (:func:`~repro.network.failure.drop_blocks`) per hop;
* **latency jitter** — escalation transfers pay a uniform extra delay;
* **node crashes** — non-root nodes are unreachable during configured
  ``(start_s, end_s)`` windows (relative to serve start); senders
  detect the dead parent by timeout, retry with exponential backoff,
  and finally answer in degraded mode from their own model.

Every stochastic decision derives from ``(seed, structural tag)``
through :func:`~repro.utils.rng.derive_rng` — tags name the edge, the
request index and the attempt number, never wall-clock time or batch
composition. Two runs of the same workload under the same plan
therefore make *identical* fault decisions even though micro-batch
boundaries shift with host timing; this is what makes the chaos suite
in ``tests/test_serve_faults.py`` deterministic.

Modeling choices (kept deliberately one-sided so the "every request
completes" invariant is easy to reason about): only escalation uplinks
drop and corrupt — the 4-byte answer descent is treated as reliable
(an application-level ack), and a transmission toward a crashed parent
spends the detection timeout but is not charged wire bytes or energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.network.failure import FailureModel, drop_blocks, drop_dimensions
from repro.network.message import Message, MessageKind
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["FaultPlan"]

#: a directed (child, parent) escalation edge.
Edge = Tuple[int, int]

#: total transmission attempts per hop before degrading.
MAX_ATTEMPTS = 3
#: simulated loss-detection (ack) timeout per failed attempt.
TIMEOUT_S = 0.02
#: bound on how long a sender may block on a full downstream inbox
#: before answering in degraded mode (block policy only).
HOP_TIMEOUT_S = 5.0


def backoff_s(attempt: int) -> float:
    """Backoff before retry number ``attempt`` (0-based): 5 ms doubling."""
    return 0.005 * 2.0 ** attempt


@dataclass(frozen=True)
class FaultPlan:
    """A seed-deterministic fault schedule for one serving run.

    All knobs default to "off"; a plan with every knob at zero is
    :attr:`active` ``False`` and the runtime treats it exactly like no
    plan at all (pinned by tests — the PR 3 served-equals-offline
    invariant survives an inert plan bit for bit).
    """

    #: root of every derived fault stream.
    seed: int = 0
    #: per-attempt Bernoulli drop probability on escalation uplinks.
    drop_probability: float = 0.0
    #: maximum uniform extra delay per escalation transfer (seconds).
    latency_jitter_s: float = 0.0
    #: fraction of hypervector dimensions erased per traversed hop.
    dimension_loss: float = 0.0
    #: fraction of contiguous packet-sized blocks erased per hop.
    block_loss: float = 0.0
    #: dimensions per lost packet (see :func:`drop_blocks`).
    block_size: int = 256
    #: node id -> (start_s, end_s) unreachability window, relative to
    #: serve start. The root may never crash.
    crash_windows: Mapping[int, Tuple[float, float]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        check_probability("drop_probability", self.drop_probability)
        check_probability("dimension_loss", self.dimension_loss)
        check_probability("block_loss", self.block_loss)
        check_positive("latency_jitter_s", self.latency_jitter_s, allow_zero=True)
        if self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        windows: Dict[int, Tuple[float, float]] = {}
        for node_id, window in dict(self.crash_windows).items():
            start, end = float(window[0]), float(window[1])
            if not 0 <= start <= end:  # NaN fails too
                raise ValueError(
                    f"crash window for node {node_id} must satisfy "
                    f"0 <= start <= end, got ({start}, {end})"
                )
            windows[int(node_id)] = (start, end)
        object.__setattr__(self, "crash_windows", windows)

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when any fault mechanism is engaged."""
        return bool(
            self.drop_probability > 0.0
            or self.latency_jitter_s > 0.0
            or self.corrupts_payload
            or self.crash_windows
        )

    @property
    def corrupts_payload(self) -> bool:
        """True when in-flight bundles lose dimensions or blocks."""
        return self.dimension_loss > 0.0 or self.block_loss > 0.0

    # ------------------------------------------------------------------
    def crashed(self, node_id: int, elapsed_s: float) -> bool:
        """Is ``node_id`` inside its crash window at ``elapsed_s``?"""
        window = self.crash_windows.get(node_id)
        if window is None:
            return False
        start, end = window
        return start <= elapsed_s < end

    def message_dropped(
        self, edge: Edge, index: int, attempt: int, payload_bytes: int
    ) -> bool:
        """Does request ``index``'s ``attempt``-th send over ``edge`` drop?

        The decision is a :class:`FailureModel` draw whose stream is
        derived from ``(seed, edge, index, attempt)`` — the same
        request retried on the same hop sees independent coins, while
        two runs of the same plan see identical ones.
        """
        if self.drop_probability == 0.0:
            return False
        model = FailureModel(
            self.drop_probability,
            seed=derive_rng(
                self.seed, f"drop:{edge[0]}->{edge[1]}:{index}:{attempt}"
            ),
        )
        message = Message(
            edge[0], edge[1], MessageKind.COMPRESSED_QUERY, payload_bytes
        )
        return model.message_dropped(message)

    def jitter_s(self, edge: Edge, index: int, attempt: int) -> float:
        """Extra uplink delay for this transfer (uniform, derived)."""
        if self.latency_jitter_s == 0.0:
            return 0.0
        rng = derive_rng(
            self.seed, f"jitter:{edge[0]}->{edge[1]}:{index}:{attempt}"
        )
        return float(rng.uniform(0.0, self.latency_jitter_s))

    def corrupt(
        self, encoded_row: np.ndarray, node_id: int, index: int
    ) -> np.ndarray:
        """Dimension/block loss suffered by one in-flight query row.

        Applied at the receiving node: the runtime encodes from the
        undamaged forwards (deterministic, so batching cannot change an
        answer), so the loss the bundle suffered on the wire is
        replayed onto the row the node classifies. The damage pattern
        derives from ``(seed, node, request index)`` only.
        """
        out = encoded_row
        if self.block_loss > 0.0:
            out = drop_blocks(
                out,
                self.block_loss,
                block_size=self.block_size,
                seed=derive_rng(self.seed, f"chaos-block:{node_id}:{index}"),
            )
        if self.dimension_loss > 0.0:
            out = drop_dimensions(
                out,
                self.dimension_loss,
                seed=derive_rng(self.seed, f"chaos-dim:{node_id}:{index}"),
            )
        return out

    # ------------------------------------------------------------------
    def validate_for_cluster(self, n_replicas: int) -> None:
        """Check this plan is usable by the multi-process cluster.

        The cluster reinterprets :attr:`crash_windows` keys as *replica
        indices* (a killed worker process), not hierarchy node ids —
        the subsystem's first-class fault scenario. Only crash-style
        plans are supported there: drop / jitter / corruption model the
        wireless medium between simulated hierarchy nodes, which the
        cluster executes inside one worker per request, so those knobs
        would be silently meaningless. At least one replica must stay
        outside every crash window so the fleet can finish the run.
        """
        if (
            self.drop_probability > 0.0
            or self.latency_jitter_s > 0.0
            or self.corrupts_payload
        ):
            raise ValueError(
                "cluster serving supports crash-only fault plans; "
                "drop/jitter/corruption knobs apply to the single-process "
                "runtime's simulated medium"
            )
        bad = [r for r in self.crash_windows if not 0 <= r < n_replicas]
        if bad:
            raise ValueError(
                f"crash_windows names replica indices {bad} outside "
                f"[0, {n_replicas})"
            )
        if len(self.crash_windows) >= n_replicas:
            raise ValueError(
                f"plan crashes all {n_replicas} replicas; at least one "
                "must survive to drain the run"
            )

    # ------------------------------------------------------------------
    def respawn_times(self) -> Dict[int, float]:
        """Nodes whose crash window *ends* — i.e. replaced nodes.

        A finite window models the elastic control plane's replacement
        loop: the node is unreachable from ``start_s``, and at ``end_s``
        its respawned successor (restored from checkpoint and caught up
        via journal replay) starts answering again. Nodes with an
        infinite window are permanently lost and do not appear here.
        """
        return {
            node_id: end
            for node_id, (_, end) in self.crash_windows.items()
            if math.isfinite(end)
        }

    @classmethod
    def replacement(
        cls,
        node_id: int,
        crash_start_s: float,
        outage_s: float,
        *,
        seed: int = 0,
        **knobs: object,
    ) -> "FaultPlan":
        """Plan for one crash-and-replace cycle of ``node_id``.

        The node is down for exactly ``outage_s`` — the detection lag
        plus restore time of the replacement loop — then serves again.
        Contrast with a bare ``crash_windows={node: (t, inf)}`` plan,
        which models permanent loss. Extra keyword knobs pass through
        to the plan (e.g. ``drop_probability`` for ambient chaos).
        """
        if outage_s <= 0:
            raise ValueError(f"outage_s must be > 0, got {outage_s}")
        return cls(
            seed=seed,
            crash_windows={node_id: (crash_start_s, crash_start_s + outage_s)},
            **knobs,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    @staticmethod
    def sample_crashes(
        seed: SeedLike,
        candidates: Sequence[int],
        n_crashes: int = 1,
        crash_start_s: float = 0.0,
        crash_duration_s: float = math.inf,
    ) -> Dict[int, Tuple[float, float]]:
        """Draw crash windows for ``n_crashes`` of ``candidates``.

        The victims are chosen via ``derive_rng(seed,
        "crash-windows")`` so a chaos benchmark can crash "some
        non-root node" reproducibly. Pass the result as
        ``crash_windows=``; the runtime rejects plans that crash the
        root or unknown node ids.
        """
        pool = [int(c) for c in candidates]
        if n_crashes < 0:
            raise ValueError(f"n_crashes must be >= 0, got {n_crashes}")
        if n_crashes > len(pool):
            raise ValueError(
                f"cannot crash {n_crashes} of {len(pool)} candidate nodes"
            )
        rng = derive_rng(seed, "crash-windows")
        picked = rng.choice(len(pool), size=n_crashes, replace=False)
        end = crash_start_s + crash_duration_s
        return {pool[int(i)]: (crash_start_s, end) for i in picked}
