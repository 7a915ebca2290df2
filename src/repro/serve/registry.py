"""Heartbeat-based replica registry for the serving cluster.

The router tracks every worker replica here: how many requests it has
in flight, and when it last sent a heartbeat. The
registry is a pure in-process data structure — no sockets, no threads —
so replica-selection and eviction policy are unit-testable without
spawning a single process. :mod:`repro.serve.cluster` feeds it wall
-clock timestamps from the router loop.

Selection policy: :meth:`ReplicaRegistry.pick` returns the
least-loaded *healthy* replica (every worker attaches the full
:class:`~repro.serve.shard.SharedModelStore`, so any replica can answer
any request). Replicas that miss heartbeats for longer than
``heartbeat_timeout_s`` are evicted by :meth:`evict_stale`; their
outstanding work is re-dispatched by the router, composing with
:class:`repro.serve.faults.FaultPlan` worker-kill scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["ReplicaInfo", "ReplicaRegistry"]


@dataclass
class ReplicaInfo:
    """Mutable registry record for one worker replica."""

    replica_id: int
    healthy: bool = True
    last_beat_s: float = 0.0
    in_flight: int = 0
    n_dispatched: int = 0
    n_completed: int = 0
    n_beats: int = 0


class ReplicaRegistry:
    """Health and load bookkeeping over a fleet of replicas."""

    def __init__(self, heartbeat_timeout_s: float = 1.0) -> None:
        if heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be positive, got {heartbeat_timeout_s}"
            )
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self._replicas: Dict[int, ReplicaInfo] = {}
        self.n_evicted = 0
        self.n_resurrected = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, replica_id: int, now: float) -> ReplicaInfo:
        if replica_id in self._replicas:
            raise ValueError(f"replica {replica_id} already registered")
        info = ReplicaInfo(replica_id=replica_id, last_beat_s=now)
        self._replicas[replica_id] = info
        return info

    def __contains__(self, replica_id: int) -> bool:
        return replica_id in self._replicas

    def __len__(self) -> int:
        return len(self._replicas)

    def get(self, replica_id: int) -> ReplicaInfo:
        return self._replicas[replica_id]

    def replicas(self) -> List[ReplicaInfo]:
        return list(self._replicas.values())

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def beat(self, replica_id: int, now: float) -> bool:
        """Record a heartbeat (or any sign of life) from a replica.

        A beat from an evicted replica *resurrects* it: the worker was
        slow, not dead (a genuinely crashed process never beats again).
        Its stranded batches were already re-dispatched at eviction, so
        it comes back with an empty in-flight count and immediately
        rejoins the selection pool — without this, one slow spell under
        CPU contention permanently shrinks the fleet. Returns ``True``
        when the beat resurrected the replica.
        """
        info = self._replicas.get(replica_id)
        if info is None:
            return False
        resurrected = not info.healthy
        if resurrected:
            info.healthy = True
            info.in_flight = 0
            self.n_resurrected += 1
        info.last_beat_s = now
        info.n_beats += 1
        return resurrected

    def evict_stale(self, now: float) -> List[ReplicaInfo]:
        """Mark replicas whose last beat is too old; return newly evicted."""
        evicted = []
        for info in self._replicas.values():
            if info.healthy and now - info.last_beat_s > self.heartbeat_timeout_s:
                info.healthy = False
                self.n_evicted += 1
                evicted.append(info)
        return evicted

    def deregister(self, replica_id: int) -> Optional[ReplicaInfo]:
        """Remove a replica's record entirely (planned drain).

        Unlike eviction — which keeps the record so a late heartbeat
        can resurrect it — deregistration is for nodes
        leaving on purpose: a later beat from the removed id is ignored
        and its id is free for the control plane to never reuse.
        Returns the removed record, or ``None`` if it was not tracked.
        """
        return self._replicas.pop(replica_id, None)

    def lease_remaining(self, replica_id: int, now: float) -> float:
        """Seconds until the replica's lease expires (<= 0: expired).

        The lease is ``heartbeat_timeout_s`` past the last beat — the
        contract :meth:`evict_stale` enforces. Exposed so control-plane
        monitors can schedule detection sweeps instead of polling.
        """
        info = self._replicas[replica_id]
        return info.last_beat_s + self.heartbeat_timeout_s - now

    # ------------------------------------------------------------------
    # load accounting
    # ------------------------------------------------------------------
    def dispatch(self, replica_id: int, n_requests: int = 1) -> None:
        info = self._replicas[replica_id]
        info.in_flight += n_requests
        info.n_dispatched += n_requests

    def complete(self, replica_id: int, n_requests: int = 1) -> None:
        info = self._replicas[replica_id]
        info.in_flight = max(0, info.in_flight - n_requests)
        info.n_completed += n_requests

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def healthy_replicas(self) -> List[ReplicaInfo]:
        return [info for info in self._replicas.values() if info.healthy]

    def pick(self) -> Optional[ReplicaInfo]:
        """Least-loaded healthy replica.

        Returns ``None`` when the whole fleet is down; the router then
        answers locally and marks responses degraded. Ties break on
        lowest replica id so replaying the same trace picks the same
        replicas.
        """
        candidates = self.healthy_replicas()
        if not candidates:
            return None
        return min(candidates, key=lambda info: (info.in_flight, info.replica_id))
