"""Runtime telemetry: labeled time-series sampling.

:class:`TelemetryLog` + :class:`TelemetrySampler` — a periodic sampler
(an asyncio task inside ``ServingRuntime``) records *labeled*
time-series: queue depth, in-flight count, batch size and
retry/timeout/degraded counters per node, each sample stamped with
seconds-since-run-start. Samples land both in the log (exportable as
JSONL for plotting) and in labeled gauges of the
:class:`~repro.obs.registry.MetricsRegistry`, so ``repro stats`` can
answer "what was queue depth at node 3?" after the run.

The log is a :class:`~repro.obs.ring.Ring` — long serving runs stay
bounded in memory and truncation is counted, never silent. *Why* a
request degraded is in its request trace
(:meth:`repro.serve.tracing.RequestTraceLog.faults`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Mapping, Optional, Tuple

from repro.obs.registry import Labels, MetricsRegistry, get_registry
from repro.obs.ring import Ring

__all__ = [
    "TelemetrySample",
    "TelemetryLog",
    "TelemetrySampler",
    "Probe",
]

#: One probe reading: ``(metric name, labels, value)``.
Reading = Tuple[str, Mapping[str, Any], float]

#: A probe produces the readings of one sampling tick.
Probe = Callable[[], Iterable[Reading]]


def _freeze(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class TelemetrySample:
    """One labeled time-series point."""

    t_s: float
    name: str
    value: float
    labels: Labels = ()

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "name": self.name,
            "value": self.value,
            "labels": dict(self.labels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySample":
        return cls(
            t_s=float(data["t_s"]),
            name=str(data["name"]),
            value=float(data["value"]),
            labels=_freeze(data.get("labels") or {}),
        )


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

    def names(self) -> List[str]:
        return sorted({s.name for s in self})

    def series(
        self, name: str, **labels: Any
    ) -> List[Tuple[float, float]]:
        """``(t_s, value)`` points of one series, filtered by labels."""
        want = _freeze(labels)
        return [
            (s.t_s, s.value)
            for s in self
            if s.name == name and all(item in s.labels for item in want)
        ]


class TelemetrySampler:
    """Periodic probe runner: one asyncio task, many labeled series.

    ``probe`` is called once per tick and yields ``(name, labels,
    value)`` readings; each reading is appended to the log and mirrored
    into a labeled gauge of ``registry``. ``clock`` supplies the sample
    timestamp (the serving runtime passes seconds-since-run-start so
    exported series align with request traces).
    """

    def __init__(
        self,
        probe: Probe,
        interval_s: float = 0.025,
        log: Optional[TelemetryLog] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.probe = probe
        self.interval_s = float(interval_s)
        self.log = log if log is not None else TelemetryLog()
        self._registry = registry
        self._clock = clock
        #: completed sampling ticks.
        self.n_ticks = 0

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return time.monotonic()

    def sample_once(self, t_s: Optional[float] = None) -> int:
        """Run the probe once; returns readings recorded."""
        now = self._now() if t_s is None else float(t_s)
        registry = self._registry if self._registry is not None else get_registry()
        n = 0
        for name, labels, value in self.probe():
            self.log.record(name, value, now, labels)
            registry.gauge(name, labels=labels).set(value)
            n += 1
        self.n_ticks += 1
        return n

    async def run(self) -> None:
        """Sample forever at ``interval_s``; cancel to stop."""
        while True:
            self.sample_once()
            await asyncio.sleep(self.interval_s)
