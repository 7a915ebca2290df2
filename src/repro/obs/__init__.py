"""Observability for the EdgeHD reproduction: metrics, spans, traces.

Everything here is **off by default**. Enable with::

    import repro.obs as obs
    obs.enable()                 # or: REPRO_OBS=1 in the environment

and the instrumented hot paths (encoding, retraining, escalation,
online feedback, the network simulator) start recording into a
process-local :class:`~repro.obs.registry.MetricsRegistry` and a span
:class:`~repro.obs.spans.TraceBuffer`. When disabled, every call site
reduces to a flag check — the overhead budget is enforced by
``benchmarks/bench_obs_overhead.py`` (<5% on the encode hot loop).

Fast-path helpers
-----------------
:func:`incr`, :func:`gauge_add`, :func:`observe`
mutate named, unlabelled instruments and no-op when disabled; labelled
series are written through the registry, as
:class:`~repro.obs.telemetry.TelemetryLog` does. :func:`span` /
:func:`traced` time regions; closed spans also feed a
``span.<name>.ms`` histogram so timings show up in ``repro stats``.

Inspection
----------
:func:`snapshot` / :func:`render_stats` read the registry;
:func:`dump_stats` / :func:`load_stats` persist it across processes
(how ``repro federate`` hands metrics to ``repro stats``).
"""

from __future__ import annotations

import logging
from typing import Optional, Sequence, Union

from repro.obs import runtime
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS_MS,
    UNIT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_series_key,
    get_registry,
    parse_series_key,
)
from repro.obs.runtime import disable as _runtime_disable
from repro.obs.runtime import enable as _runtime_enable
from repro.obs.runtime import enabled
from repro.obs.spans import SpanRecord, TraceBuffer, get_trace, span, traced
from repro.obs.stats import (
    default_stats_path,
    dump_stats,
    load_stats,
    render_stats,
)
from repro.obs.telemetry import TelemetryLog, TelemetrySample

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "incr",
    "gauge_add",
    "observe",
    "span",
    "traced",
    "get_registry",
    "get_trace",
    "snapshot",
    "render_stats",
    "dump_stats",
    "load_stats",
    "default_stats_path",
    "render_openmetrics",
    "parse_openmetrics",
    "format_series_key",
    "parse_series_key",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "TraceBuffer",
    "TelemetryLog",
    "TelemetrySample",
    "DEFAULT_TIME_BUCKETS_MS",
    "UNIT_BUCKETS",
]

_log = logging.getLogger(__name__)


def enable() -> None:
    """Start recording metrics and spans in this process."""
    _runtime_enable()
    _log.debug("observability enabled")


def disable() -> None:
    """Stop recording; already-recorded data survives until reset()."""
    _runtime_disable()
    _log.debug("observability disabled")


def reset() -> None:
    """Clear the global registry and trace buffer."""
    get_registry().reset()
    get_trace().clear()


# ----------------------------------------------------------------------
# fast-path helpers — one flag check, then a dict lookup + arithmetic
# ----------------------------------------------------------------------
def incr(name: str, amount: Union[int, float] = 1) -> None:
    """Increment counter ``name`` (no-op when disabled)."""
    if runtime.active:
        get_registry().counter(name).inc(amount)


def gauge_add(name: str, amount: Union[int, float]) -> None:
    """Add to gauge ``name`` (no-op when disabled)."""
    if runtime.active:
        get_registry().gauge(name).add(amount)


def observe(
    name: str, value: float, bounds: Optional[Sequence[float]] = None
) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled)."""
    if runtime.active:
        get_registry().histogram(name, bounds).observe(value)


def snapshot() -> dict:
    """JSON-safe dump of the global registry."""
    return get_registry().snapshot()
