"""OpenMetrics / Prometheus text exposition for the metrics registry.

:func:`render_openmetrics` serializes a
:class:`~repro.obs.registry.MetricsRegistry` — including the labeled
per-node ``serve.telemetry.*`` gauges — into the OpenMetrics
text format (the ``# TYPE`` / ``# EOF`` dialect Prometheus scrapes), so
a serving run's metrics can be dropped straight into any standard
dashboard stack. Dotted repro names become underscore names
(``serve.latency.total_ms`` → ``serve_latency_total_ms``); the original
dotted name is preserved in the ``# HELP`` line so the exposition stays
greppable back to source.

:func:`parse_openmetrics` is the minimal inverse used by the round-trip
tests and ``repro stats``: it reads an exposition back into
``{metric_family: {"type": ..., "samples": [(name, labels, value)]}}``.

Histograms follow the Prometheus convention: cumulative ``_bucket``
series with an ``le`` label (``+Inf`` last), plus ``_sum`` and
``_count``. Counters gain the ``_total`` suffix.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = ["render_openmetrics", "parse_openmetrics"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: one exposition sample: ``(sample name, labels, value)``.
Sample = Tuple[str, Dict[str, str], float]


def sanitize_name(name: str) -> str:
    """Map a dotted repro metric name onto the OpenMetrics charset."""
    out = _NAME_OK.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_name(k)}="{_escape(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_openmetrics(registry: Optional[MetricsRegistry] = None) -> str:
    """Serialize the registry as OpenMetrics text (ends with ``# EOF``)."""
    reg = registry if registry is not None else get_registry()
    # Group instruments by family so TYPE lines are emitted once even
    # when one name carries many label sets.
    families: Dict[str, List[object]] = {}
    order: List[str] = []
    for _, inst in reg.items():
        name = inst.name  # type: ignore[attr-defined]
        if name not in families:
            families[name] = []
            order.append(name)
        families[name].append(inst)
    lines: List[str] = []
    for name in order:
        instruments = families[name]
        kind = instruments[0].kind  # type: ignore[attr-defined]
        base = sanitize_name(name)
        lines.append(f"# TYPE {base} {kind}")
        lines.append(f"# HELP {base} source metric {name}")
        for inst in instruments:
            labels = dict(inst.labels)  # type: ignore[attr-defined]
            if isinstance(inst, Counter):
                lines.append(
                    f"{base}_total{_fmt_labels(labels)} "
                    f"{_fmt_value(inst.value)}"
                )
            elif isinstance(inst, Gauge):
                lines.append(
                    f"{base}{_fmt_labels(labels)} {_fmt_value(inst.value)}"
                )
            elif isinstance(inst, Histogram):
                running = 0
                for edge, count in zip(inst.bounds, inst.counts):
                    running += count
                    bucket = dict(labels)
                    bucket["le"] = _fmt_value(float(edge))
                    lines.append(
                        f"{base}_bucket{_fmt_labels(bucket)} {running}"
                    )
                bucket = dict(labels)
                bucket["le"] = "+Inf"
                lines.append(
                    f"{base}_bucket{_fmt_labels(bucket)} {inst.count}"
                )
                lines.append(
                    f"{base}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(inst.total)}"
                )
                lines.append(f"{base}_count{_fmt_labels(labels)} {inst.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_KEY, _VAL = r"[a-zA-Z_][a-zA-Z0-9_]*", r'(?:\\.|[^"\\])*'
_LABEL_RE = re.compile(rf'(?P<key>{_KEY})="(?P<val>{_VAL})"')
#: a whole label set: pairs separated by commas, one trailing comma allowed.
_LABELS_RE = re.compile(rf'{_KEY}="{_VAL}"(?:,{_KEY}="{_VAL}")*,?')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(raw: str, lineno: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {lineno}: malformed value {raw!r}") from None


def parse_openmetrics(text: str) -> Dict[str, Dict[str, object]]:
    """Parse an exposition back into families (round-trip inverse).

    Returns ``{family: {"type": kind, "help": str, "samples":
    [(sample_name, labels, value), ...]}}``. Raises ``ValueError`` on a
    malformed line or a missing ``# EOF`` terminator — the strictness
    the round-trip test relies on.
    """
    families: Dict[str, Dict[str, object]] = {}
    current: Optional[str] = None
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            fam, _, kind = rest.partition(" ")
            families[fam] = {"type": kind.strip(), "help": "", "samples": []}
            current = fam
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            fam, _, help_text = rest.partition(" ")
            if fam in families:
                families[fam]["help"] = help_text
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            if _LABELS_RE.fullmatch(raw_labels) is None:
                raise ValueError(f"line {lineno}: malformed labels {raw_labels!r}")
            for lm in _LABEL_RE.finditer(raw_labels):
                labels[lm.group("key")] = _unescape(lm.group("val"))
        value = _parse_value(match.group("value"), lineno)
        family = current
        # A sample may belong to the family by suffix (counter _total,
        # histogram _bucket/_sum/_count) rather than exact name.
        if family is None or not name.startswith(family):
            candidates = [f for f in families if name.startswith(f)]
            family = max(candidates, key=len) if candidates else None
        if family is None:
            family = name
            families[family] = {"type": "untyped", "help": "", "samples": []}
        samples = families[family]["samples"]
        assert isinstance(samples, list)
        samples.append((name, labels, value))
    if not saw_eof:
        raise ValueError(
            f"line {len(text.splitlines()) + 1}: "
            "exposition is missing the # EOF terminator"
        )
    return families
