"""The one bounded ring and the one JSONL reader of the obs streams.

Spans (:class:`~repro.obs.spans.TraceBuffer`), telemetry samples
(:class:`~repro.obs.telemetry.TelemetryLog`) and request-trace events
(:class:`~repro.serve.tracing.RequestTraceLog`) keep their own record
types, but how a long run stays bounded in memory, how truncation is
made visible, and how a stream is written to and read back from disk
is decided here once.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Protocol,
    TypeVar,
    Union,
)

__all__ = ["Ring", "read_jsonl"]


class _Record(Protocol):
    def to_dict(self) -> Dict[str, Any]: ...


T = TypeVar("T", bound=_Record)
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

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write one JSON object per line; returns records written."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as fh:
            for item in self._items:
                fh.write(json.dumps(item.to_dict()) + "\n")
        return len(self._items)


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
