"""Micro-batching: amortize one associative search over a cohort.

HD inference cost is nearly flat in batch size (one vectorized
popcount/cosine per node), so serving everything that is queued in
one flush is almost free throughput. The flush rule is
work-conserving: wait for one request, take whatever else is already
queued up to ``max_batch``, and flush. A lone request never waits for
company, and under load the batch grows with the backlog — no timer.
"""

from __future__ import annotations

import asyncio
from typing import Any, List

from repro.serve.queueing import BoundedQueue

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Pull micro-batches off a :class:`BoundedQueue`."""

    def __init__(self, queue: BoundedQueue, max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.queue = queue
        self.max_batch = int(max_batch)
        #: flush accounting: batches emitted and their size total.
        self.n_batches = 0
        self.n_items = 0

    async def next_batch(self) -> List[Any]:
        """Wait for one item, then take what is queued (never empty)."""
        batch: List[Any] = [await self.queue.get()]
        try:
            while len(batch) < self.max_batch:
                batch.append(self.queue.get_nowait())
        except asyncio.QueueEmpty:
            pass
        self.n_batches += 1
        self.n_items += len(batch)
        return batch

    @property
    def mean_batch_size(self) -> float:
        return self.n_items / self.n_batches if self.n_batches else 0.0
