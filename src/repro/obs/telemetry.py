"""Runtime telemetry: labeled time-series records.

:class:`TelemetryLog` holds *labeled* time-series points — queue depth,
in-flight count, batch size and retry/timeout/degraded counters per
node, each stamped with seconds-since-run-start. The serving runtime
does not sample them: they are a view
over its request trace
(:meth:`repro.serve.tracing.RequestTraceLog.telemetry`), one point at
every instant a series changes, so a series is exact rather than a
reading every few milliseconds. :meth:`TelemetryLog.publish` mirrors
each series' final value into a labeled gauge of the
:class:`~repro.obs.registry.MetricsRegistry`, so ``repro stats`` can
answer "how many requests degraded at node 3?" after the run, and the
OpenMetrics exposition carries them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.obs.registry import Labels, MetricsRegistry, get_registry
from repro.obs.ring import Ring

__all__ = ["TelemetrySample", "TelemetryLog"]


def _freeze(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class TelemetrySample:
    """One labeled time-series point."""

    t_s: float
    name: str
    value: float
    labels: Labels = ()


class TelemetryLog(Ring[TelemetrySample]):
    """Bounded ring of :class:`TelemetrySample` (oldest dropped first)."""

    def __init__(self, capacity: int = 200_000) -> None:
        super().__init__(capacity)

    def record(
        self,
        name: str,
        value: float,
        t_s: float,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> TelemetrySample:
        sample = TelemetrySample(
            t_s=float(t_s),
            name=name,
            value=float(value),
            labels=_freeze(labels or {}),
        )
        self.append(sample)
        return sample

    def publish(self, registry: Optional[MetricsRegistry] = None) -> int:
        """Set one labeled gauge per series to its final value.

        ``registry`` defaults to the process-global one; returns the
        number of series published.
        """
        final = {(s.name, s.labels): s.value for s in self}
        registry = registry if registry is not None else get_registry()
        for (name, labels), value in final.items():
            registry.gauge(name, labels=dict(labels)).set(value)
        return len(final)
