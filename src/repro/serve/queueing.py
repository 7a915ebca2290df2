"""Bounded request queues with selectable backpressure policy.

Every node in the serving tree owns one :class:`BoundedQueue`. Under
overload the queue never grows past ``maxsize``; what happens to the
excess is the *policy*:

* ``"block"`` — the producer awaits until space frees up. Backpressure
  propagates: a slow parent stalls its children's escalations, which
  fills their inboxes, which eventually stalls admission. Memory stays
  bounded and no request is lost, at the cost of rising admission
  delay.
* ``"shed"`` — ``put`` fails immediately when full and the caller
  decides how to degrade (reject at admission, answer with the current
  low-confidence decision at escalation). Latency stays bounded at the
  cost of lost work, which the caller counts.

Each queue keeps one tally, :attr:`BoundedQueue.high_water`: the
deepest occupancy it reached, the bounded-memory witness.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

__all__ = ["BoundedQueue", "QueueTimeout", "ShedError", "POLICIES"]

POLICIES = ("block", "shed")


class ShedError(Exception):
    """Raised by :meth:`BoundedQueue.put` (and ``try_put``) when a full
    ``"shed"`` queue sheds."""


class QueueTimeout(Exception):
    """Raised by :meth:`BoundedQueue.put` when a bounded blocking wait
    (``timeout_s``) expires with the queue still full. The item was
    *not* enqueued; the caller decides how to degrade."""


class _Landing(asyncio.Queue):
    """An ``asyncio.Queue`` that calls ``on_put(item)`` from its insert
    hook: at the instant the item became gettable, not when a blocked
    producer resumes (under ``wait_for`` a consumer may have it by then).
    """

    def __init__(self, maxsize: int, on_put: Callable[[Any], None]) -> None:
        super().__init__(maxsize=maxsize)
        self._on_put = on_put

    def _put(self, item: Any) -> None:
        super()._put(item)
        self._on_put(item)


class BoundedQueue:
    """An ``asyncio.Queue`` wrapper enforcing one backpressure policy.

    ``on_put``, when given, sees each item the instant it enters.
    """

    def __init__(
        self,
        maxsize: int,
        policy: str = "block",
        on_put: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        self.maxsize = int(maxsize)
        self.policy = policy
        #: deepest occupancy ever observed (bounded-memory witness).
        self.high_water = 0
        self._queue: asyncio.Queue = (
            asyncio.Queue(maxsize=self.maxsize)
            if on_put is None
            else _Landing(self.maxsize, on_put)
        )

    def try_put(self, item: Any) -> bool:
        """Enqueue without waiting while there is room.

        When the queue is full, ``"shed"`` raises :class:`ShedError`;
        ``"block"`` returns False, and the caller awaits :meth:`put`
        for the room.
        """
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            if self.policy == "block":
                return False
            raise ShedError(
                f"queue full ({self.maxsize}), item shed"
            ) from None
        self._mark_depth()
        return True

    async def put(self, item: Any, timeout_s: Optional[float] = None) -> None:
        """Enqueue under the configured policy.

        Returns without suspending while there is room. When full it
        blocks under ``"block"`` and raises :class:`ShedError` under
        ``"shed"``. ``timeout_s`` bounds the blocking wait: when it
        expires with the queue still full, :class:`QueueTimeout` is
        raised and the item is not enqueued — the fault-injected
        serving path uses this as its per-hop timeout so a stalled or
        crashed consumer can never wedge a producer forever.
        """
        if self.try_put(item):
            return
        if timeout_s is None:
            await self._queue.put(item)
        else:
            try:
                await asyncio.wait_for(self._queue.put(item), timeout=timeout_s)
            except asyncio.TimeoutError:
                raise QueueTimeout(
                    f"queue full ({self.maxsize}) for {timeout_s} s"
                ) from None
        self._mark_depth()

    def _mark_depth(self) -> None:
        depth = self._queue.qsize()
        if depth > self.high_water:
            self.high_water = depth

    async def get(self) -> Any:
        return await self._queue.get()

    def get_nowait(self) -> Any:
        return self._queue.get_nowait()
