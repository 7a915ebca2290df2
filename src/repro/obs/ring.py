"""The one bounded ring of the obs streams, and the JSONL reader.

Spans (:class:`~repro.obs.spans.TraceBuffer`), telemetry samples
(:class:`~repro.obs.telemetry.TelemetryLog`) and request-trace events
(:class:`~repro.serve.tracing.RequestTraceLog`) keep their own record
types, but how a long run stays bounded in memory and how truncation
is made visible is decided here once. Only the request trace is
written to disk (``serve-bench --trace``); :func:`read_jsonl` reads it
back.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Generic,
    Iterator,
    List,
    Optional,
    TypeVar,
    Union,
)

__all__ = ["Ring", "read_jsonl"]

T = TypeVar("T")
R = TypeVar("R")


class Ring(Generic[T]):
    """Bounded ring of records (oldest dropped first).

    Backed by a bounded ``deque`` so eviction is O(1) — a long serving
    run cycling millions of records pays constant time and constant
    memory. Evictions are counted in :attr:`dropped` so a truncated
    export is visible rather than silently shorter.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: Deque[T] = deque(maxlen=self.capacity)
        #: records evicted because the ring was full.
        self.dropped = 0

    def append(self, item: T) -> None:
        if len(self._items) == self.capacity:
            self.dropped += 1
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def clear(self) -> None:
        self._items.clear()
        self.dropped = 0


def read_jsonl(
    path: Union[str, Path], parse: Callable[[Any], Optional[R]]
) -> List[R]:
    """Read an exported stream back: ``parse`` of every non-blank line.

    ``parse`` is a record type's ``from_dict``; returning ``None``
    skips the line (a record of another stream sharing the file). A
    line that is not UTF-8 JSON (a file cut mid-line when the run was
    killed) or a record without its required fields raises
    ``ValueError`` naming the file and line.
    """
    records: List[R] = []
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                record = parse(json.loads(line)) if line else None
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: unreadable record "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
            if record is not None:
                records.append(record)
    return records
