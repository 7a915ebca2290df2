"""Process-local metrics registry: counters, gauges, histograms.

Designed for hot loops: instruments are plain-attribute objects with no
locks (CPython attribute stores are atomic enough for the single-writer
pattern used here), and a fixed-bucket histogram observation is one
``bisect`` plus two adds. Callers normally go through the fast-path
helpers in :mod:`repro.obs` which skip all work when observability is
disabled.

Naming convention: dotted lowercase paths mirroring the package that
emits them, e.g. ``core.encode.samples``, ``hierarchy.escalations.l2``,
``network.bytes.class_model``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "format_series_key",
    "parse_series_key",
    "DEFAULT_TIME_BUCKETS_MS",
    "UNIT_BUCKETS",
]

#: Geometric latency buckets (milliseconds), ~1 µs to ~100 s.
DEFAULT_TIME_BUCKETS_MS: Tuple[float, ...] = tuple(
    round(base * 10.0 ** exp, 6)
    for exp in range(-3, 5)
    for base in (1.0, 2.5, 5.0)
)

#: Linear buckets over [0, 1] for probabilities / confidences.
UNIT_BUCKETS: Tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 21))

#: A frozen, sorted label set, e.g. ``(("node", "3"), ("stage", "encode"))``.
Labels = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Mapping[str, Any]]) -> Labels:
    """Canonicalize a label mapping: sorted keys, string values."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_series_key(name: str, labels: Optional[Mapping[str, Any]] = None) -> str:
    """Canonical registry key: ``name`` or ``name{k="v",...}``."""
    frozen = labels if isinstance(labels, tuple) else _freeze_labels(labels)
    if not frozen:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in frozen)
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`format_series_key` (for snapshot round-trips)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels[k] = v.strip('"')
    return name, labels


class Counter:
    """Monotonically non-decreasing count."""

    __slots__ = ("name", "value", "labels")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self.labels: Labels = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "value": self.value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Gauge:
    """Last-written value; may move in either direction."""

    __slots__ = ("name", "value", "labels")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self.labels: Labels = ()

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def add(self, amount: Union[int, float]) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "value": self.value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in an implicit overflow bucket. Bounds are frozen at
    creation — no re-bucketing on the fast path.
    """

    __slots__ = (
        "name", "bounds", "counts", "count", "total", "vmin", "vmax", "labels",
    )
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name!r} bounds must be increasing")
        self.name = name
        self.bounds = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.labels: Labels = ()

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper edges."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= target:
                return self.bounds[i] if i < len(self.bounds) else self.vmax
        return self.vmax

    def to_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Series-key -> instrument map with get-or-create semantics.

    Plain metrics are keyed by name; *labeled* metrics (the per-node
    telemetry gauges use these) are keyed by
    ``name{k="v",...}`` with sorted label keys, so one metric name can
    carry many label combinations without losing greppability — the
    name prefix stays a source-literal string.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # -- get-or-create -------------------------------------------------
    def _get(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]],
        cls: Type[Any],
        *args: Any,
    ) -> Instrument:
        frozen = _freeze_labels(labels)
        key = format_series_key(name, frozen)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, *args)
            inst.labels = frozen
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {key!r} already registered as {inst.kind}, "
                f"requested {cls.kind}"
            )
        return inst

    def counter(
        self, name: str, labels: Optional[Mapping[str, Any]] = None
    ) -> Counter:
        inst = self._get(name, labels, Counter)
        assert isinstance(inst, Counter)
        return inst

    def gauge(
        self, name: str, labels: Optional[Mapping[str, Any]] = None
    ) -> Gauge:
        inst = self._get(name, labels, Gauge)
        assert isinstance(inst, Gauge)
        return inst

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> Histogram:
        inst = self._get(
            name, labels, Histogram, bounds or DEFAULT_TIME_BUCKETS_MS
        )
        assert isinstance(inst, Histogram)
        return inst

    # -- introspection -------------------------------------------------
    def items(self) -> Iterable[Tuple[str, Instrument]]:
        return sorted(self._instruments.items())

    def reset(self) -> None:
        """Drop every instrument (fresh registry)."""
        self._instruments.clear()

    # -- snapshot / restore --------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe dump of every instrument's current state."""
        return {name: inst.to_dict() for name, inst in self.items()}

    def load_snapshot(self, data: Dict[str, dict]) -> None:
        """Restore instruments from :meth:`snapshot` output.

        Used by ``repro stats`` to render a dump written by an earlier
        process. Existing same-named instruments are replaced.
        """
        for key, payload in data.items():
            name, _ = parse_series_key(key)
            kind = payload.get("kind")
            if kind == "counter":
                inst: Instrument = Counter(name)
                inst.value = payload["value"]
            elif kind == "gauge":
                inst = Gauge(name)
                inst.value = payload["value"]
            elif kind == "histogram":
                inst = Histogram(name, payload["bounds"])
                inst.counts = list(payload["counts"])
                inst.count = payload["count"]
                inst.total = payload["sum"]
                inst.vmin = payload["min"] if payload["min"] is not None else float("inf")
                inst.vmax = payload["max"] if payload["max"] is not None else float("-inf")
            else:
                raise ValueError(f"unknown instrument kind {kind!r} for {key!r}")
            inst.labels = _freeze_labels(payload.get("labels"))
            self._instruments[format_series_key(name, inst.labels)] = inst

    # -- merging (multi-process runs) ----------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry, in place.

        Combination rules (per series key): **counters add**, **gauges
        take the last writer** (``other`` wins), **histogram buckets
        sum** — which requires identical bounds; a bounds or kind
        mismatch for the same key raises. Used by ``repro stats
        --merge`` to combine per-worker snapshots of a multi-process
        serving run. Returns ``self`` for chaining.
        """
        for key, theirs in other._instruments.items():
            mine = self._instruments.get(key)
            if mine is None:
                clone_data = {key: theirs.to_dict()}
                self.load_snapshot(clone_data)
                continue
            if mine.kind != theirs.kind:
                raise TypeError(
                    f"cannot merge {key!r}: {mine.kind} vs {theirs.kind}"
                )
            if isinstance(mine, Counter) and isinstance(theirs, Counter):
                mine.value += theirs.value
            elif isinstance(mine, Gauge) and isinstance(theirs, Gauge):
                mine.value = theirs.value
            elif isinstance(mine, Histogram) and isinstance(theirs, Histogram):
                if mine.bounds != theirs.bounds:
                    raise ValueError(
                        f"cannot merge histogram {key!r}: bucket bounds "
                        f"differ ({len(mine.bounds)} vs {len(theirs.bounds)} "
                        "edges or unequal values)"
                    )
                mine.counts = [
                    a + b for a, b in zip(mine.counts, theirs.counts)
                ]
                mine.count += theirs.count
                mine.total += theirs.total
                mine.vmin = min(mine.vmin, theirs.vmin)
                mine.vmax = max(mine.vmax, theirs.vmax)
        return self

    # -- rendering -----------------------------------------------------
    def render_table(self) -> str:
        """Human-readable dump, one instrument per line."""
        if not self._instruments:
            return "(no metrics recorded)"
        rows = []
        for name, inst in self.items():
            if isinstance(inst, Histogram):
                detail = (
                    f"count={inst.count} mean={inst.mean:.4g} "
                    f"p50={inst.quantile(0.5):.4g} p95={inst.quantile(0.95):.4g} "
                    f"max={(inst.vmax if inst.count else 0.0):.4g}"
                )
            else:
                value = inst.value
                detail = f"{value:.4g}" if isinstance(value, float) else str(value)
            rows.append((name, inst.kind, detail))
        width = max(len(r[0]) for r in rows)
        lines = [f"{'metric':<{width}}  {'type':<9}  value"]
        lines += [f"{n:<{width}}  {k:<9}  {d}" for n, k, d in rows]
        return "\n".join(lines)


#: The process-wide registry used by the fast-path helpers.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The global registry all instrumented repro code writes into."""
    return _REGISTRY
