"""Tests for the repro.obs observability subsystem."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import TelemetryLog, TelemetrySample
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.ring import read_jsonl
from repro.obs.spans import SpanRecord, TraceBuffer
from repro.serve.tracing import RequestTraceLog, TraceEvent


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts disabled with empty registry/trace."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestCounter:
    def test_monotonic_accumulation(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        c.inc(0)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_float_amounts(self):
        c = Counter("x")
        c.inc(0.5)
        c.inc(0.25)
        assert c.value == pytest.approx(0.75)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(10)
        g.add(-3)
        assert g.value == 7


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # bounds are inclusive upper edges; 100 overflows.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.total == pytest.approx(106.0)
        assert h.vmin == 0.5 and h.vmax == 100.0
        assert h.mean == pytest.approx(106.0 / 5)

    def test_quantile_approximation(self):
        h = Histogram("h", bounds=tuple(float(b) for b in range(1, 11)))
        for v in range(1, 11):
            h.observe(v - 0.5)
        assert h.quantile(0.5) == pytest.approx(5.0)
        # quantiles resolve to bucket upper edges (10.0 covers the max).
        assert h.quantile(1.0) == pytest.approx(10.0)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg.items()) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(1.0, 2.0)).observe(1.7)
        restored = MetricsRegistry()
        restored.load_snapshot(json.loads(json.dumps(reg.snapshot())))
        assert restored.snapshot() == reg.snapshot()

    def test_render_table_lists_everything(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.histogram("lat", bounds=(1.0,)).observe(0.5)
        table = reg.render_table()
        assert "hits" in table and "lat" in table and "p95" in table

    def test_empty_table(self):
        assert "no metrics" in MetricsRegistry().render_table()


class TestEnableDisable:
    def test_disabled_helpers_record_nothing(self):
        obs.incr("c")
        obs.gauge_add("g", 1)
        obs.observe("h", 0.5)
        with obs.span("s"):
            pass
        assert obs.snapshot() == {}
        assert len(obs.get_trace()) == 0

    def test_disabled_span_is_shared_noop(self):
        a, b = obs.span("x"), obs.span("y", n=2)
        assert a is b  # allocation-free fast path

    def test_enable_records(self):
        obs.enable()
        obs.incr("c", 2)
        obs.incr("c")
        assert obs.get_registry().counter("c").value == 3

    def test_disable_freezes_but_keeps_data(self):
        obs.enable()
        obs.incr("c")
        obs.disable()
        obs.incr("c")
        assert obs.get_registry().counter("c").value == 1


class TestSpans:
    def test_nesting_depth_and_parent(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner", step=1):
                pass
        records = list(obs.get_trace())
        assert [r.name for r in records] == ["inner", "outer"]  # close order
        inner, outer = records
        assert inner.depth == 1 and inner.parent == "outer"
        assert outer.depth == 0 and outer.parent is None
        assert inner.attrs == {"step": 1}
        assert 0 <= inner.duration_ns <= outer.duration_ns

    def test_span_feeds_registry_histogram(self):
        obs.enable()
        with obs.span("work"):
            pass
        hist = dict(obs.get_registry().items()).get("span.work.ms")
        assert hist is not None and hist.count == 1

    def test_set_attaches_attributes(self):
        obs.enable()
        with obs.span("work") as sp:
            sp.set(found=7)
        assert list(obs.get_trace())[0].attrs == {"found": 7}

    def test_traced_decorator(self):
        obs.enable()

        @obs.traced()
        def compute():
            return 42

        assert compute() == 42
        assert [r.name for r in obs.get_trace()] == ["compute"]

    def test_traced_noop_when_disabled(self):
        @obs.traced("quiet")
        def compute():
            return 1

        assert compute() == 1
        assert len(obs.get_trace()) == 0


def _span(i):
    return SpanRecord(name=f"s{i}", start_ns=i, duration_ns=1, depth=0)


def _sample(i):
    return TelemetrySample(
        t_s=float(i), name="q.depth", value=float(i), labels=(("node", "2"),)
    )


def _event(i):
    return TraceEvent(
        request_id=0, seq=i, t_ms=float(i), event="hop", attrs={"batch": i}
    )


class _RingKind:
    """One user of the ring: its class and a record factory; for the
    stream written to disk also the record's ``from_dict`` and a record
    line with a required key missing."""

    def __init__(self, cls, make, parse=None, keyless=None, missing=None):
        self.cls, self.make, self.parse = cls, make, parse
        self.keyless, self.missing = keyless, missing


_EVENTS = _RingKind(
    RequestTraceLog, _event, TraceEvent.from_dict,
    '{"event": "done", "request": 4, "t_ms": 1.5}', "'seq'",
)


@pytest.fixture(
    params=[
        _RingKind(TraceBuffer, _span),
        _RingKind(TelemetryLog, _sample),
        _EVENTS,
    ],
    ids=lambda kind: kind.cls.__name__,
)
def kind(request):
    return request.param


@pytest.fixture(params=[_EVENTS], ids=lambda kind: kind.cls.__name__)
def exported(request):
    """The rings whose records go to disk: only the request trace."""
    return request.param


class TestRing:
    """The one ring (``repro.obs.ring``) under each of its three users."""

    def test_drops_oldest_and_counts(self, kind):
        ring = kind.cls(capacity=2)
        records = [kind.make(i) for i in range(5)]
        for record in records:
            ring.append(record)
        assert len(ring) == 2
        assert ring.dropped == 3
        assert list(ring) == records[3:]
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 0

    def test_invalid_capacity_rejected(self, kind):
        with pytest.raises(ValueError, match="capacity"):
            kind.cls(capacity=0)

    def test_jsonl_round_trip(self, exported, tmp_path):
        kind = exported
        ring = kind.cls()
        for i in range(3):
            ring.append(kind.make(i))
        path = tmp_path / "deep" / "stream.jsonl"
        assert ring.export_jsonl(path) == 3
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            r.to_dict() for r in ring
        ]
        assert read_jsonl(path, kind.parse) == list(ring)

    @pytest.mark.parametrize("torn", [True, False], ids=["torn-line", "no-key"])
    def test_load_names_file_and_line_of_a_bad_record(
        self, exported, torn, tmp_path
    ):
        kind = exported
        ring = kind.cls()
        ring.append(kind.make(0))
        ring.append(kind.make(1))
        path = tmp_path / "stream.jsonl"
        ring.export_jsonl(path)
        with path.open("a") as fh:
            fh.write("\n" + (kind.keyless[:-7] if torn else kind.keyless))
        with pytest.raises(ValueError) as excinfo:
            read_jsonl(path, kind.parse)
        assert str(excinfo.value).startswith(f"{path}:4: ")
        expected = "JSONDecodeError" if torn else kind.missing
        assert expected in str(excinfo.value)


class TestJsonl:
    def test_stats_dump_load(self, tmp_path):
        obs.enable()
        obs.incr("c", 4)
        obs.observe("h", 1.25, bounds=(1.0, 2.0))
        path = tmp_path / "stats.json"
        obs.dump_stats(path)
        restored = obs.load_stats(path)
        assert restored.snapshot() == obs.snapshot()


class TestInstrumentedPaths:
    def test_encode_and_predict_record(self, small_split):
        from repro.core.model import EdgeHDModel

        obs.enable()
        train_x, train_y, test_x, test_y = small_split
        model = EdgeHDModel(train_x.shape[1], 3, dimension=128, seed=0)
        model.fit(train_x, train_y, retrain_epochs=2)
        model.accuracy(test_x, test_y)
        reg = obs.get_registry()
        assert reg.counter("core.encode.calls").value >= 2
        assert reg.counter("core.encode.samples").value >= len(train_x)
        assert reg.counter("core.similarity.calls").value >= 1
        instruments = dict(reg.items())
        assert instruments["span.encode.ms"].count >= 2
        assert instruments["span.retrain.ms"].count >= 1

    def test_hierarchy_and_network_record(self, trained_federation):
        from repro.hierarchy import HierarchicalInference
        from repro.network.medium import get_medium
        from repro.network.simulator import NetworkSimulator

        obs.enable()
        fed, report, data = trained_federation
        outcome = HierarchicalInference(fed).run(data.test_x)
        result = NetworkSimulator(
            fed.hierarchy, get_medium("wifi-802.11ac")
        ).simulate_independent(outcome.messages)
        reg = obs.get_registry()
        assert reg.counter("hierarchy.inference.queries").value == len(
            data.test_x
        )
        instruments = dict(reg.items())
        assert instruments["hierarchy.confidence"].count == len(data.test_x)
        assert reg.counter("network.delivered").value == result.delivered > 0
        total_gauge_bytes = sum(
            inst.value
            for name, inst in instruments.items()
            if name.startswith("network.bytes.")
        )
        assert total_gauge_bytes == result.total_bytes


class TestEnvVar:
    def test_repro_obs_env_enables(self):
        import subprocess
        import sys

        code = (
            "import repro.obs as obs; "
            "raise SystemExit(0 if obs.enabled() else 1)"
        )
        for env_value, expected in (("1", 0), ("true", 0), ("0", 1), ("", 1)):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env={"REPRO_OBS": env_value, "PYTHONPATH": "src"},
            )
            assert proc.returncode == expected, f"REPRO_OBS={env_value!r}"


class TestLevelFrequencyValidation:
    def _outcome(self, levels):
        from repro.hierarchy.inference import InferenceOutcome

        n = len(levels)
        return InferenceOutcome(
            labels=np.zeros(n, dtype=np.int64),
            deciding_node=np.zeros(n, dtype=np.int64),
            deciding_level=np.asarray(levels, dtype=np.int64),
            confidence=np.ones(n),
        )

    def test_matching_depth_ok(self):
        freq = self._outcome([1, 2, 2, 3]).level_frequency(3)
        assert freq == {1: 0.25, 2: 0.5, 3: 0.25}
        assert sum(freq.values()) == pytest.approx(1.0)

    def test_depth_too_shallow_raises(self):
        with pytest.raises(ValueError, match="outside"):
            self._outcome([1, 2, 3]).level_frequency(2)

    def test_invalid_depth_raises(self):
        with pytest.raises(ValueError, match="depth"):
            self._outcome([1]).level_frequency(0)
