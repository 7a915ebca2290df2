"""Request tracing through the serving runtime, and the serve-report.

The tentpole property under test: a :class:`TraceContext` rides on each
request through queues and escalation bundles, so after a chaos run
(message drops + a crashed internal node) a degraded request's full
causal timeline — admission, hops, escalation attempts, timeouts,
retries, the degraded answer — is reconstructable from the trace log
alone, with the run's fault evidence a view over that same log
(``traces.faults()``), totals that agree with the telemetry stream,
and a seed-deterministic semantic skeleton across two same-seed runs.
The report module and the ``repro serve-report`` CLI are tested on the
same traces.
"""

from __future__ import annotations

import math

import pytest

import repro.obs as obs
from repro.cli import main
from repro.hierarchy import HierarchicalInference
from repro.obs.ring import read_jsonl
from repro.network.medium import get_medium
from repro.serve import (
    FaultPlan,
    ServeConfig,
    ServingRuntime,
    make_workload,
)
from repro.serve.report import (
    build_report,
    render_report,
    render_timeline,
    serve_report,
    summarize_request,
)
from repro.serve.tracing import (
    FAULT_EVENTS,
    SEMANTIC_EVENTS,
    RequestTraceLog,
    TraceContext,
    TraceEvent,
    load_request_trace,
    semantic_timeline,
)

MEDIUM = get_medium("wired-1gbps")
CONFIG = ServeConfig(max_batch=16, queue_depth=512)

#: the causal skeleton a retried-then-degraded request must show.
_DEGRADED_KINDS = {"retry", "timeout", "degraded", "done"}


@pytest.fixture(scope="module")
def chaos_traced(trained_federation):
    """Two same-seed traced chaos runs (drops + one crashed internal)."""
    federation, _, data = trained_federation
    inference = HierarchicalInference(federation, confidence_threshold=0.7)
    workload = make_workload(
        data.test_x, inference, seed=3, labels=data.test_y
    )
    nodes = federation.hierarchy.nodes
    victim = next(
        nid for nid, n in nodes.items()
        if n.parent is not None and n.children
    )
    plan = FaultPlan(
        seed=7, drop_probability=0.35,
        crash_windows={victim: (0.0, math.inf)},
    )

    def run():
        obs.reset()
        obs.enable()
        try:
            runtime = ServingRuntime(
                inference, MEDIUM, CONFIG, fault_plan=plan
            )
            return runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)
        finally:
            obs.disable()
            obs.reset()

    first, second = run(), run()
    return first, second, inference, workload


def _series(telemetry, name, **labels):
    """``(t_s, value)`` points of one telemetry series, by labels."""
    want = {(key, str(value)) for key, value in labels.items()}
    return [
        (s.t_s, s.value) for s in telemetry
        if s.name == name and want <= set(s.labels)
    ]


def _degraded_target(result):
    """A degraded request whose trace shows retry + timeout + degraded."""
    by_req = result.traces.by_request()
    for resp in result.responses:
        if not resp.degraded or resp.deciding_node < 0:
            continue
        kinds = {e.event for e in by_req.get(resp.index, [])}
        if _DEGRADED_KINDS <= kinds:
            return resp.index, by_req[resp.index]
    raise AssertionError("no degraded request with retry+timeout traced")


class TestTracePropagation:
    def test_all_evidence_streams_present(self, chaos_traced):
        first, _, _, workload = chaos_traced
        assert first.traces is not None
        assert first.telemetry is not None
        assert first.traces.faults()
        assert first.traces.n_requests == len(workload)
        assert first.n_degraded > 0 and first.n_retries > 0

    def test_every_request_has_one_complete_timeline(self, chaos_traced):
        first, _, _, workload = chaos_traced
        by_req = first.traces.by_request()
        assert sorted(by_req) == list(range(len(workload)))
        for request_id, events in by_req.items():
            assert all(e.request_id == request_id for e in events)
            seqs = [e.seq for e in events]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            assert events[0].event == "admitted"
            assert [e.event for e in events].count("done") == 1
            assert events[-1].event == "done"

    def test_timestamps_share_one_monotonic_clock(self, chaos_traced):
        first, _, _, _ = chaos_traced
        for events in first.traces.by_request().values():
            times = [e.t_ms for e in events]
            assert all(
                later >= earlier - 1e-6
                for earlier, later in zip(times, times[1:])
            )

    def test_degraded_request_timeline_reconstructable(self, chaos_traced):
        """The acceptance walk: one degraded request, end to end."""
        first, _, _, _ = chaos_traced
        request_id, events = _degraded_target(first)
        assert all(e.request_id == request_id for e in events)
        done = events[-1]
        assert done.attrs["outcome"] == "degraded"
        degraded = next(e for e in events if e.event == "degraded")
        assert degraded.attrs["reason"] in (
            "retries_exhausted", "hop_timeout"
        )
        timeline = semantic_timeline(events)
        assert timeline[0].startswith("admitted@")
        assert timeline[-1].endswith("=degraded")
        assert any(tag.startswith("retry@") for tag in timeline)
        assert any(tag.startswith("timeout@") for tag in timeline)
        # escalation attempts carry the (child->parent) edge
        assert any(
            tag.startswith("escalate@") and ":" in tag for tag in timeline
        )

    def test_attempt_and_hop_accounting(self, chaos_traced):
        first, _, _, _ = chaos_traced
        _, events = _degraded_target(first)
        done = events[-1]
        n_escalate = sum(1 for e in events if e.event == "escalate")
        assert done.attrs["attempts"] == n_escalate >= 2
        assert done.attrs["hops"] >= 1

    def test_fault_view_shares_request_ids(self, chaos_traced):
        first, _, _, _ = chaos_traced
        request_id, _ = _degraded_target(first)
        kinds = {
            e.event for e in first.traces.faults()
            if e.request_id == request_id
        }
        assert {"drop", "timeout", "degraded"} <= kinds

    def test_faults_view_is_the_fault_record(self, chaos_traced):
        first, _, _, workload = chaos_traced
        faults = first.traces.faults()
        by_req = first.traces.by_request()
        assert {e.event for e in faults} <= set(FAULT_EVENTS)
        assert faults == [e for e in first.traces if e.event in FAULT_EVENTS]
        for event in faults:
            timeline = by_req[event.request_id]
            assert event in timeline
            assert timeline[0].event == "admitted"
            assert timeline[-1].event == "done"
        degraded = [e for e in faults if e.event == "degraded"]
        assert len(degraded) == first.n_degraded > 0
        assert len({e.request_id for e in degraded}) == first.n_degraded

    def test_telemetry_sampled_per_node_series(self, chaos_traced):
        first, _, _, _ = chaos_traced
        telemetry = first.telemetry
        for name in (
            "inflight", "queue_depth", "batch_size", "batches",
            "retries", "timeouts", "degraded",
        ):
            assert f"serve.telemetry.{name}" in {s.name for s in telemetry}
        final = {(s.name, s.labels): s.value for s in telemetry}

        def total(name):
            return sum(
                value for (series, _), value in final.items()
                if series == f"serve.telemetry.{name}"
            )

        # the per-node counters, replayed from the trace, end on the
        # run's own totals
        assert total("degraded") == first.n_degraded > 0
        assert total("retries") == first.n_retries > 0
        assert total("timeouts") == first.n_timeouts > 0
        assert final[("serve.telemetry.inflight", ())] == 0

    def test_semantic_timelines_deterministic_across_runs(self, chaos_traced):
        first, second, _, _ = chaos_traced
        t1 = {
            rid: semantic_timeline(evs)
            for rid, evs in first.traces.by_request().items()
        }
        t2 = {
            rid: semantic_timeline(evs)
            for rid, evs in second.traces.by_request().items()
        }
        assert t1 == t2

    def test_disabled_mode_attaches_no_trace(self, chaos_traced):
        _, _, inference, workload = chaos_traced
        assert not obs.enabled()
        runtime = ServingRuntime(inference, MEDIUM, CONFIG)
        result = runtime.serve_open_loop(workload, rate_rps=3000.0, seed=1)
        # no trace, hence no fault view: result.traces.faults() is all
        # the fault evidence a run keeps
        assert result.traces is None
        assert result.telemetry is None


class TestTelemetryView:
    def test_series_replay_a_hand_built_trace(self):
        """Counts step at their events, a cohort counts once, and every
        instant gets one point per series it changed."""
        log = RequestTraceLog()
        for rid, admitted, landed, done, outcome, at in (
            (0, 0.0, 0.0, 3.0, "degraded", 2),
            (1, 0.5, 0.5, 4.0, "ok", 0),
        ):
            ctx = TraceContext(rid)
            ctx.emit("admitted", admitted, node=2)
            ctx.emit("hop", 1.0, node=2, batch=2, landed_ms=landed)
            ctx.emit("encode", 1.5, node=2, ms=0.4, batch=2)
            ctx.emit("timeout", 2.0, node=2, edge="2->0", attempt=1)
            ctx.emit("retry", 2.0, node=2, edge="2->0", attempt=2)
            ctx.emit("done", done, node=at, outcome=outcome)
            log.extend(ctx.events)
        telemetry = log.telemetry()

        def series(name, **labels):
            return _series(telemetry, f"serve.telemetry.{name}", **labels)

        assert series("inflight") == [
            (0.0, 1.0), (0.0005, 2.0), (0.003, 1.0), (0.004, 0.0),
        ]
        assert series("queue_depth", node=2) == [
            (0.0, 1.0), (0.0005, 2.0), (0.001, 0.0),
        ]
        assert series("batch_size", node=2) == [(0.001, 2.0)]
        assert series("batches") == [(0.0015, 1.0)]
        assert series("timeouts", node=2) == [(0.002, 1.0)]
        assert series("retries", node=2) == [(0.002, 2.0)]
        assert series("degraded", node=2) == [(0.003, 1.0)]
        assert series("degraded", node=0) == []

    def test_queue_depth_and_batches_exact_under_blocking(
        self, trained_federation
    ):
        """A full ``block`` inbox keeps producers at the door: the
        replayed depth peaks at the queue's own high-water mark, and
        every flush is one batch-size point."""
        federation, _, data = trained_federation
        inference = HierarchicalInference(federation, confidence_threshold=0.7)
        workload = make_workload(data.test_x, inference, seed=3)
        runtime = ServingRuntime(
            inference, MEDIUM,
            ServeConfig(max_batch=4, queue_depth=4, service_time_base_s=0.002),
        )
        obs.reset()
        obs.enable()
        try:
            result = runtime.serve_open_loop(workload, rate_rps=5000.0, seed=1)
        finally:
            obs.disable()
            obs.reset()
        assert max(result.queue_high_water.values()) == 4  # it blocked
        telemetry = result.telemetry
        for nid, server in runtime.nodes.items():
            depth = [
                v for _, v in
                _series(telemetry, "serve.telemetry.queue_depth", node=nid)
            ]
            assert max(depth, default=0.0) == result.queue_high_water[nid]
            assert depth[-1:] in ([], [0.0])
            sizes = _series(telemetry, "serve.telemetry.batch_size", node=nid)
            assert len(sizes) == server.batcher.n_batches
            assert sum(v for _, v in sizes) == server.batcher.n_items
        batches = _series(telemetry, "serve.telemetry.batches")
        assert batches[-1][1] == runtime.n_batches
        inflight = _series(telemetry, "serve.telemetry.inflight")
        assert [t for t, _ in inflight] == sorted(t for t, _ in inflight)
        assert min(v for _, v in inflight) >= 0 and inflight[-1][1] == 0

    def test_view_replays_from_the_exported_trace(self, chaos_traced, tmp_path):
        first, _, _, _ = chaos_traced
        path = tmp_path / "t.jsonl"
        first.traces.export_jsonl(path)
        reloaded = RequestTraceLog()
        reloaded.extend(read_jsonl(path, TraceEvent.from_dict))
        assert list(reloaded.telemetry()) == list(first.telemetry)


class TestRequestTraceLog:
    def _event(self, request_id, seq, event="hop"):
        return TraceEvent(
            request_id=request_id, seq=seq, t_ms=float(seq), event=event
        )

    def test_ring_drops_oldest_and_counts(self):
        """A flushed request counts even when the ring evicts its head."""
        log = RequestTraceLog(capacity=3)
        log.extend([self._event(0, s) for s in range(5)])
        assert len(log) == 3
        assert log.dropped == 2
        assert log.n_requests == 1
        assert [e.seq for e in log] == [2, 3, 4]

    def test_faults_keeps_ring_order_and_only_fault_kinds(self):
        log = RequestTraceLog()
        log.extend([
            self._event(1, 0, "admitted"), self._event(1, 1, "shed"),
            self._event(1, 2, "done"),
        ])
        log.extend([
            self._event(0, 0, "admitted"), self._event(0, 1, "corrupt"),
            self._event(0, 2, "retry"), self._event(0, 3, "degraded"),
        ])
        assert [(e.request_id, e.event) for e in log.faults()] == [
            (1, "shed"), (0, "corrupt"), (0, "degraded"),
        ]

    def test_by_request_groups_and_sorts(self):
        log = RequestTraceLog()
        log.extend([self._event(1, 1), self._event(1, 0)])
        log.extend([self._event(0, 0)])
        grouped = log.by_request()
        assert sorted(grouped) == [0, 1]
        assert [e.seq for e in grouped[1]] == [0, 1]
        assert log.n_requests == 2

    def test_empty_extend_counts_no_request(self):
        log = RequestTraceLog()
        log.extend([])
        assert log.n_requests == 0

    def test_export_load_round_trip_skips_foreign_lines(self, tmp_path):
        log = RequestTraceLog()
        log.extend([self._event(4, 0, "admitted"), self._event(4, 1, "done")])
        path = tmp_path / "trace.jsonl"
        assert log.export_jsonl(path) == 2
        # span records and blank lines may share the file; both skipped
        with path.open("a") as fh:
            fh.write('{"name": "span.encode", "duration_ns": 12}\n\n')
        loaded = load_request_trace(path)
        assert sorted(loaded) == [4]
        assert [e.event for e in loaded[4]] == ["admitted", "done"]

    @pytest.mark.parametrize(
        "bad_line, reason",
        [
            ('{"request": 4, "seq": 2, "t_ms": 1.5, "eve', "JSONDecodeError"),
            ('{"event": "done", "seq": 2, "t_ms": 1.5}', "'request'"),
            ('{"event": "done", "request": 4, "t_ms": 1.5}', "'seq'"),
            ('{"event": "done", "request": 4, "seq": 2}', "'t_ms'"),
        ],
        ids=["torn-line", "no-request", "no-seq", "no-t_ms"],
    )
    def test_load_names_file_and_line_of_a_bad_record(
        self, tmp_path, bad_line, reason
    ):
        log = RequestTraceLog()
        log.extend([self._event(4, 0, "admitted"), self._event(4, 1, "done")])
        path = tmp_path / "trace.jsonl"
        log.export_jsonl(path)
        with path.open("a") as fh:
            fh.write(bad_line)
        with pytest.raises(ValueError) as excinfo:
            load_request_trace(path)
        assert str(excinfo.value).startswith(f"{path}:3: ")
        assert reason in str(excinfo.value)


class TestTraceContext:
    def test_emit_assigns_sequential_seq(self):
        ctx = TraceContext(3)
        first = ctx.emit("admitted", 0.0, node=1)
        second = ctx.emit("hop", 1.0, node=1, batch=4)
        assert (first.seq, second.seq) == (0, 1)
        assert second.attrs == {"batch": 4}
        assert all(e.request_id == 3 for e in ctx.events)

    def test_visit_deduplicates_immediate_repeats(self):
        ctx = TraceContext(0)
        for node in (2, 2, 5, 2):
            ctx.visit(node)
        assert ctx.hop_path == [2, 5, 2]

    def test_semantic_timeline_filters_timing_events(self):
        ctx = TraceContext(1)
        ctx.emit("admitted", 0.0, node=2)
        ctx.emit("encode", 0.5, node=2, ms=0.4)
        ctx.emit("escalate", 1.0, node=2, edge="2->0", attempt=1)
        ctx.emit("done", 2.0, node=0, outcome="ok")
        timeline = semantic_timeline(ctx.events)
        assert timeline == ["admitted@2", "escalate@2:2->0#a1", "done@0=ok"]
        assert "encode" not in SEMANTIC_EVENTS


class TestServeReport:
    def test_build_report_sections(self, chaos_traced):
        first, _, _, workload = chaos_traced
        traces = first.traces.by_request()
        report = build_report(traces, slo_ms=50.0)
        assert report["n_requests"] == len(workload)
        assert report["n_finished"] == len(workload)
        assert sum(report["outcomes"].values()) == len(workload)
        assert report["outcomes"].get("degraded", 0) == first.n_degraded
        breakdown = report["stage_breakdown"]
        for stage in (
            "queue_wait_ms", "encode_ms", "search_ms",
            "escalation_rtt_ms", "total_ms",
        ):
            pct = breakdown[stage]
            assert pct["p50"] <= pct["p95"] <= pct["p99"]
        assert sum(b.get("n", 0) for b in report["bands"]) == len(workload)
        assert report["root_causes"]
        for entry in report["root_causes"].values():
            example = entry["example"]
            assert traces[example][-1].attrs["outcome"] == "degraded"
        slo = report["slo"]
        assert 0.0 <= slo["attainment"] <= 1.0
        assert slo["n_within"] + sum(
            slo["violations_by_outcome"].values()
        ) == slo["n_total"]

    def test_render_report_names_every_section(self, chaos_traced):
        first, _, _, _ = chaos_traced
        text = render_report(first.traces.by_request(), slo_ms=50.0)
        assert "serve-report:" in text
        assert "per-stage latency breakdown" in text
        assert "critical-path attribution" in text
        assert "degradation root causes:" in text
        assert "SLO attainment" in text
        assert "timeline" in text

    def test_render_report_explicit_request(self, chaos_traced):
        first, _, _, _ = chaos_traced
        request_id, events = _degraded_target(first)
        traces = first.traces.by_request()
        text = render_report(traces, request_id=request_id)
        assert f"request #{request_id} timeline" in text
        missing = render_report(traces, request_id=10**6)
        assert f"request #{10**6}: not found" in missing

    def test_render_timeline_one_line_per_event(self, chaos_traced):
        first, _, _, _ = chaos_traced
        _, events = _degraded_target(first)
        lines = render_timeline(events).splitlines()
        assert len(lines) == len(events) + 1  # header row

    def test_unfinished_request_summarizes_to_none(self):
        ctx = TraceContext(0)
        ctx.emit("admitted", 0.0, node=1)
        assert summarize_request(ctx.events) is None

    def test_serve_report_from_exported_file(self, chaos_traced, tmp_path):
        first, _, _, _ = chaos_traced
        path = tmp_path / "requests.trace.jsonl"
        written = first.traces.export_jsonl(path)
        assert written == len(first.traces)
        text = serve_report(path, slo_ms=50.0)
        assert "serve-report:" in text and "SLO attainment" in text


class TestServeReportCLI:
    def test_renders_report_with_slo(self, chaos_traced, tmp_path, capsys):
        first, _, _, _ = chaos_traced
        path = tmp_path / "t.jsonl"
        first.traces.export_jsonl(path)
        assert main(["serve-report", str(path), "--slo-ms", "50"]) == 0
        out = capsys.readouterr().out
        assert "serve-report:" in out
        assert "SLO attainment (<= 50 ms)" in out
        assert "degradation root causes:" in out

    def test_request_flag_selects_timeline(self, chaos_traced, tmp_path, capsys):
        first, _, _, _ = chaos_traced
        request_id, _ = _degraded_target(first)
        path = tmp_path / "t.jsonl"
        first.traces.export_jsonl(path)
        code = main(["serve-report", str(path), "--request", str(request_id)])
        assert code == 0
        assert f"request #{request_id} timeline" in capsys.readouterr().out

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        code = main(["serve-report", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err
