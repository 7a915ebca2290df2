"""Labeled metrics, registry merge, OpenMetrics, telemetry.

The observability surfaces added for the serving stack: series-key
labeled instruments and :meth:`MetricsRegistry.merge` (what ``repro
stats --merge`` folds per-worker dumps with), the OpenMetrics text
round trip and the :class:`TelemetryLog` record type. The ring under
:class:`TelemetryLog` is tested in ``test_obs`` (``TestRing``); the
series the serving runtime's trace replays into it live in
``test_serve_tracing``.
"""

from __future__ import annotations

import math

import pytest

import repro.obs as obs
from repro.obs import (
    MetricsRegistry,
    TelemetryLog,
    format_series_key,
    parse_openmetrics,
    parse_series_key,
    render_openmetrics,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSeriesKeys:
    def test_plain_name_unchanged(self):
        assert format_series_key("serve.queue") == "serve.queue"
        assert parse_series_key("serve.queue") == ("serve.queue", {})

    def test_labels_sorted_and_stringified(self):
        key = format_series_key("q.depth", {"node": 3, "az": "west"})
        assert key == 'q.depth{az="west",node="3"}'

    def test_parse_inverts_format(self):
        labels = {"node": "7", "stage": "encode"}
        name, parsed = parse_series_key(format_series_key("m.x", labels))
        assert name == "m.x"
        assert parsed == labels

    def test_label_order_is_canonical(self):
        a = format_series_key("m", {"b": 1, "a": 2})
        b = format_series_key("m", {"a": 2, "b": 1})
        assert a == b


class TestLabeledRegistry:
    def test_label_sets_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"node": 0}).inc(2)
        reg.counter("hits", labels={"node": 1}).inc(5)
        reg.counter("hits").inc(1)
        assert len(reg.items()) == 3
        assert reg.counter("hits", labels={"node": 0}).value == 2
        assert reg.counter("hits", labels={"node": 1}).value == 5
        assert reg.counter("hits").value == 1

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        first = reg.gauge("depth", labels={"node": 2, "kind": "q"})
        second = reg.gauge("depth", labels={"kind": "q", "node": 2})
        assert first is second

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", labels={"node": 1})
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("m", labels={"node": 1})

    def test_snapshot_round_trips_labels(self):
        reg = MetricsRegistry()
        reg.counter("c", labels={"node": 4}).inc(9)
        reg.gauge("g", labels={"node": 4}).set(1.5)
        reg.histogram("h", bounds=(1.0, 2.0), labels={"node": 4}).observe(1.2)
        restored = MetricsRegistry()
        restored.load_snapshot(reg.snapshot())
        assert restored.snapshot() == reg.snapshot()
        assert restored.counter("c", labels={"node": 4}).value == 9


class TestRegistryMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", labels={"node": 1}).inc(3)
        b.counter("n", labels={"node": 1}).inc(4)
        assert a.merge(b) is a
        assert a.counter("n", labels={"node": 1}).value == 7

    def test_gauges_last_writer_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(10)
        b.gauge("depth").set(2)
        a.merge(b)
        assert a.gauge("depth").value == 2

    def test_histogram_buckets_sum(self):
        bounds = (1.0, 2.0, 4.0)
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.5, 1.5):
            a.histogram("lat", bounds=bounds).observe(value)
        for value in (3.0, 9.0):
            b.histogram("lat", bounds=bounds).observe(value)
        a.merge(b)
        merged = a.histogram("lat", bounds=bounds)
        assert merged.count == 4
        assert merged.total == pytest.approx(14.0)
        assert merged.counts == [1, 1, 1, 1]
        assert merged.vmin == 0.5
        assert merged.vmax == 9.0

    def test_disjoint_keys_are_copied_independently(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("only.b").inc(5)
        a.merge(b)
        a.counter("only.b").inc(1)
        assert a.counter("only.b").value == 6
        assert b.counter("only.b").value == 5

    def test_kind_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m")
        b.gauge("m")
        with pytest.raises(TypeError, match="cannot merge"):
            a.merge(b)

    def test_bounds_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0))
        b.histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge(b)


class TestOpenMetrics:
    def test_counter_gets_total_suffix(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests", labels={"node": 2}).inc(7)
        text = render_openmetrics(reg)
        assert "# TYPE serve_requests counter" in text
        assert "# HELP serve_requests source metric serve.requests" in text
        assert 'serve_requests_total{node="2"} 7' in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat.ms", bounds=(1.0, 2.0))
        for value in (0.5, 0.7, 1.5, 9.0):
            hist.observe(value)
        families = parse_openmetrics(render_openmetrics(reg))
        samples = {
            (name, labels.get("le")): value
            for name, labels, value in families["lat_ms"]["samples"]
        }
        assert samples[("lat_ms_bucket", "1.0")] == 2
        assert samples[("lat_ms_bucket", "2.0")] == 3
        assert samples[("lat_ms_bucket", "+Inf")] == 4
        assert samples[("lat_ms_count", None)] == 4
        assert samples[("lat_ms_sum", None)] == pytest.approx(11.7)

    def test_round_trip_preserves_families_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("a.count", labels={"node": 1}).inc(2)
        reg.counter("a.count", labels={"node": 2}).inc(3)
        reg.gauge("b.depth", labels={"node": 1}).set(4.5)
        reg.histogram("c.ms", bounds=(1.0,)).observe(0.5)
        families = parse_openmetrics(render_openmetrics(reg))
        assert set(families) == {"a_count", "b_depth", "c_ms"}
        assert families["a_count"]["type"] == "counter"
        assert families["b_depth"]["type"] == "gauge"
        assert families["c_ms"]["type"] == "histogram"
        counter_samples = families["a_count"]["samples"]
        assert ("a_count_total", {"node": "1"}, 2.0) in counter_samples
        assert ("a_count_total", {"node": "2"}, 3.0) in counter_samples

    def test_label_value_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'quote " slash \\ newline \n end'
        reg.gauge("g", labels={"path": tricky}).set(1)
        families = parse_openmetrics(render_openmetrics(reg))
        ((_, labels, _),) = families["g"]["samples"]
        assert labels["path"] == tricky

    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE x gauge\nx 1\n")

    def test_content_after_eof_rejected(self):
        with pytest.raises(ValueError, match="after # EOF"):
            parse_openmetrics("# EOF\nx 1\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_openmetrics("# TYPE x gauge\n??? nope\n# EOF\n")

    @pytest.mark.parametrize(
        "text, what",
        [("a 1x\n# EOF", "value"), ("a{b=c} 1\n# EOF", "labels"),
         ('# TYPE a gauge\na{b="c"d="e"} 1\n# EOF', "labels")],
        ids=["value", "unquoted-label", "unseparated-labels"],
    )
    def test_malformed_value_or_labels_name_the_line(self, text, what):
        with pytest.raises(ValueError, match=rf"^line {text.count(chr(10))}: malformed {what}"):
            parse_openmetrics(text)

    def test_infinities_render_and_parse(self):
        reg = MetricsRegistry()
        reg.gauge("inf.up").set(math.inf)
        families = parse_openmetrics(render_openmetrics(reg))
        ((_, _, value),) = families["inf_up"]["samples"]
        assert value == math.inf


class TestTelemetryLog:
    def test_publish_sets_each_series_final_value(self):
        log = TelemetryLog()
        log.record("t.depth", 3.0, t_s=0.1, labels={"node": 1})
        log.record("t.depth", 7.0, t_s=0.2, labels={"node": 1})
        log.record("t.depth", 2.0, t_s=0.2, labels={"node": 0})
        log.record("t.inflight", 2.0, t_s=1.25)
        reg = MetricsRegistry()
        assert log.publish(reg) == 3
        assert reg.gauge("t.depth", labels={"node": 1}).value == 7.0
        assert reg.gauge("t.depth", labels={"node": 0}).value == 2.0
        assert reg.gauge("t.inflight").value == 2.0
        log.publish()
        assert 't.depth{node="1"}' in dict(obs.get_registry().items())
