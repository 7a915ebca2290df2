"""Discrete-event network simulator (NS-3 substitute).

The paper drives EdgeHD "hardware-in-the-loop" under NS-3; here a
compact event-driven simulator replays the :class:`Message` lists that
the training / inference code produces, over a chosen medium, and
reports latency and energy. Two scheduling modes cover the paper's
workloads:

* :meth:`NetworkSimulator.simulate_upward_pass` — the federated
  training pattern: a node may transmit only after every message
  destined to it has arrived and its local compute finished (models the
  level-by-level dependency of the hierarchy). Links are half-duplex
  FIFO, so siblings sharing a parent link serialize while distinct
  links run in parallel.
* :meth:`NetworkSimulator.simulate_independent` — the inference
  pattern: transfers are mutually independent (per-query escalations)
  and only serialize on shared links.

A :class:`~repro.network.failure.FailureModel` may drop messages; a
dropped message is retransmitted up to ``max_retries`` times, charging
time and energy for every attempt (harsh-network behaviour, Sec. I).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import repro.obs as obs
from repro.hierarchy.topology import Hierarchy
from repro.network.failure import FailureModel
from repro.network.medium import Medium
from repro.network.message import Message, MessageKind

__all__ = ["NetworkSimulator", "SimulationResult"]

logger = logging.getLogger(__name__)


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated communication phase."""

    makespan_s: float
    busy_time_s: float
    energy_j: float
    total_bytes: int
    delivered: int
    dropped: int
    retransmissions: int
    bytes_by_kind: Dict[MessageKind, int] = field(default_factory=dict)
    #: per-delivered-message latency (seconds): queueing on the shared
    #: link plus every transmission attempt, i.e. delivery − ready.
    latencies_s: List[float] = field(default_factory=list)

    def merge(self, other: "SimulationResult") -> "SimulationResult":
        """Combine two sequential phases (times add, counters add)."""
        kinds = dict(self.bytes_by_kind)
        for kind, value in other.bytes_by_kind.items():
            kinds[kind] = kinds.get(kind, 0) + value
        return SimulationResult(
            makespan_s=self.makespan_s + other.makespan_s,
            busy_time_s=self.busy_time_s + other.busy_time_s,
            energy_j=self.energy_j + other.energy_j,
            total_bytes=self.total_bytes + other.total_bytes,
            delivered=self.delivered + other.delivered,
            dropped=self.dropped + other.dropped,
            retransmissions=self.retransmissions + other.retransmissions,
            bytes_by_kind=kinds,
            latencies_s=list(self.latencies_s) + list(other.latencies_s),
        )

    def latency_percentiles(
        self, qs: Tuple[float, ...] = (50, 95, 99)
    ) -> Dict[str, float]:
        """Exact per-message latency percentiles in **milliseconds**.

        Computed over delivered messages only (a dropped message has no
        delivery time); all-zero when nothing was delivered.
        """
        if not self.latencies_s:
            return {f"p{q:g}": 0.0 for q in qs}
        import numpy as np

        lat_ms = np.asarray(self.latencies_s, dtype=np.float64) * 1e3
        return {f"p{q:g}": float(np.percentile(lat_ms, q)) for q in qs}


#: pseudo-link used when the whole network is one contention domain.
_SHARED_CHANNEL: Tuple[int, int] = (-1, -1)


def _link_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


class NetworkSimulator:
    """Replay message lists over a hierarchy with a single medium."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        medium: Medium,
        failure_model: Optional[FailureModel] = None,
        max_retries: int = 3,
        shared_medium: bool = False,
    ) -> None:
        """``shared_medium=True`` models a single contention domain
        (one wireless channel): every transfer in the network
        serializes, as on co-located WiFi/Bluetooth cells. The default
        treats each parent-child link as independent (switched
        wiring)."""
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.hierarchy = hierarchy
        self.medium = medium
        self.failure_model = failure_model
        self.max_retries = int(max_retries)
        self.shared_medium = bool(shared_medium)

    # ------------------------------------------------------------------
    def _validate(self, message: Message) -> None:
        nodes = self.hierarchy.nodes
        if message.source not in nodes or message.destination not in nodes:
            raise KeyError(
                f"message references unknown node(s): "
                f"{message.source} -> {message.destination}"
            )
        src = nodes[message.source]
        if message.destination != src.parent and (
            message.source != nodes[message.destination].parent
        ):
            raise ValueError(
                f"no hierarchy link between {message.source} and "
                f"{message.destination}"
            )

    def _attempts(self, message: Message) -> Tuple[int, bool]:
        """(number of transmission attempts, delivered?)."""
        if self.failure_model is None:
            return 1, True
        attempts = 1
        while self.failure_model.message_dropped(message):
            if attempts > self.max_retries:
                return attempts, False
            attempts += 1
        return attempts, True

    # ------------------------------------------------------------------
    @obs.traced("simulate_independent")
    def simulate_independent(self, transfers: Iterable[Message]) -> SimulationResult:
        """Schedule independent transfers; shared links serialize."""
        return self._run(transfers, ready_times=None)

    @obs.traced("simulate_upward_pass")
    def simulate_upward_pass(
        self,
        transfers: Iterable[Message],
        compute_time: Optional[Dict[int, float]] = None,
    ) -> SimulationResult:
        """Schedule a bottom-up pass with level dependencies.

        A node's outgoing messages become ready once all messages
        *destined to it* have been delivered and its own compute
        (``compute_time[node]`` seconds, default 0) has run.
        """
        messages = list(transfers)
        compute = compute_time or {}
        # Process nodes in postorder: children deliver before parents send.
        ready: Dict[int, float] = {}
        arrivals: Dict[int, float] = {}
        link_free: Dict[Tuple[int, int], float] = {}
        total = _Totals()
        for node_id in self.hierarchy.postorder():
            ready[node_id] = arrivals.get(node_id, 0.0) + float(
                compute.get(node_id, 0.0)
            )
            for message in messages:
                if message.source != node_id:
                    continue
                self._validate(message)
                end = self._transmit(message, ready[node_id], link_free, total)
                if end is not None:
                    arrivals[message.destination] = max(
                        arrivals.get(message.destination, 0.0), end
                    )
        # Root compute (e.g. central training) extends the makespan.
        root = self.hierarchy.root_id
        if root is not None:
            root_done = arrivals.get(root, 0.0) + float(compute.get(root, 0.0))
            total.makespan = max(total.makespan, root_done)
        return total.result()

    # ------------------------------------------------------------------
    def _run(
        self,
        transfers: Iterable[Message],
        ready_times: Optional[Dict[int, float]],
    ) -> SimulationResult:
        total = _Totals()
        link_free: Dict[Tuple[int, int], float] = {}
        # Heap keyed by (ready, sequence, tiebreak) for deterministic order.
        heap: List[Tuple[float, int, int, Message]] = []
        for i, message in enumerate(transfers):
            self._validate(message)
            ready = 0.0 if ready_times is None else ready_times.get(message.source, 0.0)
            heapq.heappush(heap, (ready, message.sequence, i, message))
        while heap:
            ready, _, _, message = heapq.heappop(heap)
            self._transmit(message, ready, link_free, total)
        return total.result()

    def _transmit(
        self,
        message: Message,
        ready: float,
        link_free: Dict[Tuple[int, int], float],
        total: "_Totals",
    ) -> Optional[float]:
        """Send one message; returns delivery time or None if dropped."""
        attempts, delivered = self._attempts(message)
        if self.shared_medium:
            key = _SHARED_CHANNEL
        else:
            key = _link_key(message.source, message.destination)
        start = max(ready, link_free.get(key, 0.0))
        duration = attempts * self.medium.transfer_time(message.payload_bytes)
        end = start + duration
        link_free[key] = end
        total.busy += duration
        total.energy += attempts * self.medium.transfer_energy(message.payload_bytes)
        total.makespan = max(total.makespan, end)
        total.retransmissions += attempts - 1
        total.bytes_by_kind[message.kind] = (
            total.bytes_by_kind.get(message.kind, 0)
            + attempts * message.payload_bytes
        )
        total.total_bytes += attempts * message.payload_bytes
        if attempts > 1:
            obs.incr("network.retransmissions", attempts - 1)
        obs.gauge_add(
            f"network.bytes.{message.kind.value}",
            attempts * message.payload_bytes,
        )
        if delivered:
            total.delivered += 1
            total.latencies.append(end - ready)
            obs.incr("network.delivered")
            return end
        total.dropped += 1
        obs.incr("network.dropped")
        logger.debug(
            "dropped %s message %d -> %d after %d attempts",
            message.kind.value, message.source, message.destination, attempts,
        )
        return None


class _Totals:
    """Mutable accumulator for a simulation run."""

    def __init__(self) -> None:
        self.makespan = 0.0
        self.busy = 0.0
        self.energy = 0.0
        self.total_bytes = 0
        self.delivered = 0
        self.dropped = 0
        self.retransmissions = 0
        self.bytes_by_kind: Dict[MessageKind, int] = {}
        self.latencies: List[float] = []

    def result(self) -> SimulationResult:
        return SimulationResult(
            makespan_s=self.makespan,
            busy_time_s=self.busy,
            energy_j=self.energy,
            total_bytes=self.total_bytes,
            delivered=self.delivered,
            dropped=self.dropped,
            retransmissions=self.retransmissions,
            bytes_by_kind=self.bytes_by_kind,
            latencies_s=self.latencies,
        )
