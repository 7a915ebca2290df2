"""Span tracing: nested wall-time measurement.

A *span* is one timed region — ``with span("encode", n=512): ...`` —
recorded with nanosecond wall time (``time.perf_counter_ns``), its
nesting depth, its parent span, and arbitrary scalar attributes. Closed
spans land in an in-memory :class:`~repro.obs.ring.Ring`, and every
span also feeds a ``span.<name>.ms`` histogram in the metrics registry,
which is how ``repro stats`` summarises timings.

When observability is disabled (:mod:`repro.obs.runtime`),
:func:`span` returns a shared do-nothing context manager — the cost is
one attribute check and one allocation-free call.

The span stack is process-global and not thread-aware by design: the
reproduction's hot paths are single-threaded numpy code, and keeping
the stack a plain list keeps the enabled-mode overhead at a few
hundred nanoseconds per span.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs import runtime
from repro.obs.registry import get_registry
from repro.obs.ring import Ring

__all__ = [
    "SpanRecord",
    "TraceBuffer",
    "get_trace",
    "span",
    "traced",
]


@dataclass
class SpanRecord:
    """One closed span."""

    name: str
    start_ns: int
    duration_ns: int
    depth: int
    parent: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class TraceBuffer(Ring[SpanRecord]):
    """Bounded ring of closed spans (oldest dropped first)."""

    def __init__(self, capacity: int = 100_000) -> None:
        super().__init__(capacity)


_TRACE = TraceBuffer()
#: Stack of (name, start_ns, attrs) for currently-open spans.
_STACK: List["_Span"] = []


def get_trace() -> TraceBuffer:
    """The process-wide trace buffer."""
    return _TRACE


class _Span:
    """Live (recording) span context manager."""

    __slots__ = ("name", "attrs", "start_ns", "depth", "parent")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.depth = 0
        self.parent: Optional[str] = None

    def __enter__(self) -> "_Span":
        self.depth = len(_STACK)
        self.parent = _STACK[-1].name if _STACK else None
        _STACK.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        duration = time.perf_counter_ns() - self.start_ns
        if _STACK and _STACK[-1] is self:
            _STACK.pop()
        record = SpanRecord(
            name=self.name,
            start_ns=self.start_ns,
            duration_ns=duration,
            depth=self.depth,
            parent=self.parent,
            attrs=self.attrs,
        )
        _TRACE.append(record)
        get_registry().histogram(f"span.{self.name}.ms").observe(duration / 1e6)

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the open span (e.g. a computed count)."""
        self.attrs.update(attrs)


class _NullSpan:
    """Shared no-op stand-in returned when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> Union[_Span, _NullSpan]:
    """Open a timed region: ``with span("encode", n=batch): ...``."""
    if not runtime.active:
        return _NULL_SPAN
    return _Span(name, attrs)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span`; defaults to the function name."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not runtime.active:
                return fn(*args, **kwargs)
            with _Span(span_name, {}):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
