"""The tracing core: spans, sampling, buffers, histograms, and the CLI.

Everything here runs without the serving stack — pure unit coverage of
:mod:`repro.observability`.  The end-to-end propagation paths (client →
HTTP → engine → batcher, lifecycle cycles) live in
``test_observability_integration.py``.
"""

import json
import threading
import time

import pytest

from repro.observability import (
    DEFAULT_BUCKETS,
    PARENT_SPAN_HEADER,
    REQUEST_ID_HEADER,
    STATUS_ERROR,
    STATUS_OK,
    TRACE_ID_HEADER,
    JsonlSpanExporter,
    LatencyHistogram,
    Span,
    TraceBuffer,
    Tracer,
    epoch_span_hook,
)
from repro.observability.cli import (
    format_summary_table,
    main as trace_cli_main,
    render_span_tree,
    stage_summary,
)
from repro.observability.trace import NOOP_SPAN
from repro.serving.metrics import ServingMetrics


class TestSpanBasics:
    def test_nesting_follows_the_call_stack(self):
        tracer = Tracer(seed=0)
        with tracer.start_span("outer") as outer:
            with tracer.start_span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None

    def test_attributes_and_status(self):
        tracer = Tracer(seed=0)
        span = tracer.start_span("work", attributes={"a": 1})
        span.set_attribute("b", 2)
        span.end()
        recorded = tracer.buffer.get(span.trace_id)[0]
        assert recorded["attributes"] == {"a": 1, "b": 2}
        assert recorded["status"] == STATUS_OK
        assert recorded["duration_s"] >= 0

    def test_context_manager_records_exceptions(self):
        tracer = Tracer(seed=0)
        with pytest.raises(ValueError):
            with tracer.start_span("boom") as span:
                raise ValueError("broken")
        recorded = tracer.buffer.get(span.trace_id)[0]
        assert recorded["status"] == STATUS_ERROR
        assert "ValueError" in recorded["error"]
        assert "broken" in recorded["error"]

    def test_end_is_idempotent(self):
        tracer = Tracer(seed=0)
        span = tracer.start_span("once")
        span.end()
        duration = span.duration_s
        span.end()
        assert span.duration_s == duration
        assert len(tracer.buffer.get(span.trace_id)) == 1

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer(seed=0)
        with tracer.start_span("root") as root:
            a = tracer.start_span("a")
            a.end()
            b = tracer.start_span("b")
            b.end()
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_seeded_tracer_is_reproducible(self):
        ids = [Tracer(seed=7).new_trace_id() for _ in range(2)]
        assert ids[0] == ids[1]


class TestSampling:
    def test_verdict_is_deterministic_per_trace_id(self):
        tracer = Tracer(sample_rate=0.5)
        trace_id = "7fffffffffffffffffffffffffffffff"
        verdicts = {tracer.should_sample(trace_id) for _ in range(10)}
        assert len(verdicts) == 1

    def test_two_processes_agree_on_the_same_id(self):
        a, b = Tracer(sample_rate=0.37), Tracer(sample_rate=0.37)
        for _ in range(50):
            trace_id = a.new_trace_id()
            assert a.should_sample(trace_id) == b.should_sample(trace_id)

    def test_sampled_out_interior_spans_are_the_noop_singleton(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=10.0, seed=0)
        root = tracer.start_span("root")
        assert root is not NOOP_SPAN  # real: the slow override needs it
        child = tracer.start_span("child")
        assert child is NOOP_SPAN
        child.end()
        root.end()
        assert tracer.buffer.span_count == 0

    def test_no_slow_threshold_means_noop_roots_too(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None, seed=0)
        assert tracer.start_span("root") is NOOP_SPAN

    def test_slow_spans_survive_sampling(self, caplog):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=0.0, seed=0)
        with caplog.at_level("WARNING", logger="repro.observability.slow"):
            span = tracer.start_span("slow-root")
            span.end()
        recorded = tracer.buffer.get(span.trace_id)[0]
        assert recorded["attributes"]["slow"] is True
        assert tracer.slow_spans()[-1]["name"] == "slow-root"
        assert any("slow span" in r.message for r in caplog.records)

    def test_fast_spans_of_sampled_traces_are_not_flagged(self):
        tracer = Tracer(sample_rate=1.0, slow_threshold_s=10.0, seed=0)
        span = tracer.start_span("fast")
        span.end()
        recorded = tracer.buffer.get(span.trace_id)[0]
        assert "slow" not in recorded["attributes"]
        assert tracer.slow_spans() == []


class TestRecordSpan:
    def test_retrospective_span_attaches_to_parent(self):
        tracer = Tracer(seed=0)
        with tracer.start_span("root") as root:
            tracer.record_span(
                "stage", duration_s=0.25, attributes={"k": "v"}
            )
        spans = {s["name"]: s for s in tracer.buffer.get(root.trace_id)}
        stage = spans["stage"]
        assert stage["parent_id"] == root.span_id
        assert stage["duration_s"] == 0.25
        assert stage["attributes"] == {"k": "v"}

    def test_noop_without_a_sampled_parent(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_s=None, seed=0)
        assert tracer.record_span("orphan", duration_s=0.1) is None
        assert tracer.buffer.span_count == 0

    def test_error_status_round_trips(self):
        tracer = Tracer(seed=0)
        with tracer.start_span("root") as root:
            tracer.record_span(
                "failed", duration_s=0.0,
                status=STATUS_ERROR, error="RuntimeError: nope",
            )
        spans = {s["name"]: s for s in tracer.buffer.get(root.trace_id)}
        assert spans["failed"]["status"] == STATUS_ERROR
        assert spans["failed"]["error"] == "RuntimeError: nope"


class TestPropagation:
    def test_inject_extract_round_trip(self):
        tracer = Tracer(seed=0)
        span = tracer.start_span("client")
        headers = tracer.inject_context(span, {})
        assert headers[TRACE_ID_HEADER] == span.trace_id
        assert headers[PARENT_SPAN_HEADER] == span.span_id
        context = tracer.extract_context(headers)
        assert context.trace_id == span.trace_id
        assert context.span_id == span.span_id
        span.end()

    def test_extract_returns_none_without_headers(self):
        assert Tracer(seed=0).extract_context({}) is None

    def test_server_span_joins_the_propagated_trace(self):
        client_tracer = Tracer(seed=1)
        server_tracer = Tracer(seed=2)
        client_span = client_tracer.start_span("client.request")
        headers = client_tracer.inject_context(client_span, {})
        context = server_tracer.extract_context(headers)
        server_span = server_tracer.start_span("http.request", context=context)
        assert server_span.trace_id == client_span.trace_id
        assert server_span.parent_id == client_span.span_id
        server_span.end()
        client_span.end()

    def test_header_names_are_the_documented_ones(self):
        assert TRACE_ID_HEADER == "X-Trace-Id"
        assert PARENT_SPAN_HEADER == "X-Parent-Span-Id"
        assert REQUEST_ID_HEADER == "X-Request-Id"


def _span_dict(trace_id, name="s", duration=0.001, **overrides):
    span = {
        "trace_id": trace_id,
        "span_id": f"{hash((trace_id, name, id(overrides))) & 0xFFFF:04x}",
        "parent_id": None,
        "name": name,
        "start_time": 0.0,
        "duration_s": duration,
        "status": STATUS_OK,
        "error": None,
        "attributes": {},
    }
    span.update(overrides)
    return span


class TestTraceBuffer:
    def test_oldest_trace_is_evicted_whole(self):
        buffer = TraceBuffer(max_traces=2)
        for trace_id in ("t1", "t2", "t3"):
            buffer.add(_span_dict(trace_id))
            buffer.add(_span_dict(trace_id, name="child"))
        assert buffer.get("t1") is None
        assert buffer.get("t2") is not None
        assert buffer.evicted_traces == 1
        assert buffer.dropped_spans == 2

    def test_per_trace_span_bound(self):
        buffer = TraceBuffer(max_traces=4, max_spans_per_trace=3)
        for i in range(5):
            buffer.add(_span_dict("t", name=f"s{i}"))
        assert len(buffer.get("t")) == 3
        assert buffer.dropped_spans == 2

    def test_traces_filters_by_duration_and_status(self):
        buffer = TraceBuffer()
        buffer.add(_span_dict("fast", duration=0.001))
        buffer.add(_span_dict("slow", duration=0.5))
        buffer.add(
            _span_dict("bad", duration=0.01, status=STATUS_ERROR)
        )
        assert [t["trace_id"] for t in buffer.traces(min_duration_s=0.1)] == [
            "slow"
        ]
        assert [t["trace_id"] for t in buffer.traces(status=STATUS_ERROR)] == [
            "bad"
        ]
        assert len(buffer.traces(limit=2)) == 2

    def test_newest_first_ordering(self):
        buffer = TraceBuffer()
        buffer.add(_span_dict("older"))
        buffer.add(_span_dict("newer"))
        assert [t["trace_id"] for t in buffer.traces()] == ["newer", "older"]

    def test_no_spans_lost_below_capacity_under_concurrency(self):
        buffer = TraceBuffer(max_traces=1024, max_spans_per_trace=1024)
        threads, per_thread = 8, 50

        def storm(worker):
            for i in range(per_thread):
                buffer.add(
                    _span_dict(f"w{worker}-{i}", name=f"span{i}")
                )

        workers = [
            threading.Thread(target=storm, args=(w,)) for w in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert buffer.span_count == threads * per_thread
        assert buffer.dropped_spans == 0
        assert buffer.evicted_traces == 0

    def test_memory_stays_bounded_under_concurrent_storm(self):
        max_traces, max_spans = 16, 8
        buffer = TraceBuffer(
            max_traces=max_traces, max_spans_per_trace=max_spans
        )
        threads, per_thread = 8, 200

        def storm(worker):
            for i in range(per_thread):
                trace_id = f"w{worker}-t{i % 40}"
                buffer.add(_span_dict(trace_id, name=f"s{i}"))

        workers = [
            threading.Thread(target=storm, args=(w,)) for w in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert len(buffer) <= max_traces
        assert buffer.span_count <= max_traces * max_spans
        # Everything offered was either stored, dropped, or evicted.
        assert (
            buffer.span_count + buffer.dropped_spans
            == threads * per_thread
        )


class TestLatencyHistogram:
    def test_observations_land_in_the_right_buckets(self):
        hist = LatencyHistogram(buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            hist.observe(value)
        cumulative = dict(hist.cumulative())
        assert cumulative[0.001] == 1
        assert cumulative[0.01] == 2
        assert cumulative[0.1] == 3
        assert cumulative[float("inf")] == 4
        assert hist.count == 4

    def test_quantiles_are_conservative_upper_bounds(self):
        hist = LatencyHistogram(buckets=(0.001, 0.01, 0.1))
        for _ in range(100):
            hist.observe(0.005)
        quantiles = hist.quantiles()
        assert quantiles["p50"] == 0.01
        assert quantiles["p95"] == 0.01
        assert quantiles["p99"] == 0.01

    def test_empty_histogram_reports_zeros(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0

    def test_prometheus_lines_shape(self):
        hist = LatencyHistogram(buckets=(0.01, 0.1))
        hist.observe(0.05)
        lines = hist.prometheus_lines("stage_seconds", 'stage="predict"')
        assert 'stage_seconds_bucket{stage="predict",le="0.01"} 0' in lines
        assert 'stage_seconds_bucket{stage="predict",le="0.1"} 1' in lines
        assert 'stage_seconds_bucket{stage="predict",le="+Inf"} 1' in lines
        assert any(
            line.startswith("stage_seconds_sum{") for line in lines
        )
        assert 'stage_seconds_count{stage="predict"} 1' in lines

    def test_default_buckets_cover_micro_to_ten_seconds(self):
        assert DEFAULT_BUCKETS[0] <= 1e-4
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_thread_safety_no_lost_observations(self):
        hist = LatencyHistogram()
        threads, per_thread = 8, 500

        def storm():
            for _ in range(per_thread):
                hist.observe(0.001)

        workers = [threading.Thread(target=storm) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert hist.count == threads * per_thread


class TestMetricsBridge:
    def test_span_observer_feeds_stage_histograms(self):
        metrics = ServingMetrics()
        tracer = Tracer(seed=0, on_span_end=metrics.span_observer())
        with tracer.start_span("engine.predict"):
            pass
        stages = metrics.stage_latencies()
        assert "engine.predict" in stages
        assert stages["engine.predict"]["count"] == 1
        text = metrics.to_prometheus()
        assert "repro_serving_stage_latency_seconds_bucket" in text
        assert 'stage="engine.predict"' in text

    def test_dict_snapshot_includes_stage_latencies(self):
        metrics = ServingMetrics()
        metrics.span_observer()({"name": "cache.lookup", "duration_s": 0.002})
        snapshot = metrics.to_dict()
        assert "cache.lookup" in snapshot["stage_latency_seconds"]


class TestExporter:
    def test_jsonl_lines_are_parseable(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(seed=0, exporter=JsonlSpanExporter(path))
        with tracer.start_span("a"):
            with tracer.start_span("b"):
                pass
        tracer.exporter.close()
        lines = path.read_text().strip().splitlines()
        spans = [json.loads(line) for line in lines]
        assert {s["name"] for s in spans} == {"a", "b"}
        assert len({s["trace_id"] for s in spans}) == 1

    def test_write_after_close_is_a_noop(self, tmp_path):
        exporter = JsonlSpanExporter(tmp_path / "spans.jsonl")
        exporter.close()
        exporter.write({"trace_id": "t"})  # must not raise


class TestEpochSpanHook:
    def test_records_one_span_per_interval(self):
        tracer = Tracer(seed=0)

        class History:
            final_train_loss = 0.5

        with tracer.start_span("lifecycle.retrain") as root:
            hook = epoch_span_hook(tracer, every=2)
            for epoch in range(6):
                hook(epoch, History())
        spans = [
            s
            for s in tracer.buffer.get(root.trace_id)
            if s["name"] == "lifecycle.retrain.epoch"
        ]
        assert len(spans) == 3
        assert [s["attributes"]["epoch"] for s in spans] == [1, 3, 5]
        assert all(s["parent_id"] == root.span_id for s in spans)
        assert all(s["attributes"]["train_loss"] == 0.5 for s in spans)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            epoch_span_hook(Tracer(seed=0), every=0)


# ----------------------------------------------------------------------
# repro trace CLI
# ----------------------------------------------------------------------


@pytest.fixture
def span_file(tmp_path):
    """A JSONL export of two traces (one nested, one slow + error)."""
    tracer = Tracer(
        seed=42, exporter=JsonlSpanExporter(tmp_path / "spans.jsonl")
    )
    with tracer.start_span("http.request"):
        with tracer.start_span("engine.predict"):
            with tracer.start_span("cache.lookup"):
                pass
    with pytest.raises(RuntimeError):
        with tracer.start_span("http.request") as second:
            second.set_attribute("slow", True)
            raise RuntimeError("model exploded")
    tracer.exporter.close()
    return tmp_path / "spans.jsonl"


class TestTraceCli:
    def test_summary_aggregates_per_stage(self, span_file, capsys):
        assert trace_cli_main(["summary", "--file", str(span_file)]) == 0
        out = capsys.readouterr().out
        assert "http.request" in out
        assert "cache.lookup" in out
        assert "p95 ms" in out

    def test_tail_prints_recent_spans(self, span_file, capsys):
        assert trace_cli_main(["tail", "--file", str(span_file), "-n", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2

    def test_tail_slow_only_filters(self, span_file, capsys):
        assert (
            trace_cli_main(
                ["tail", "--file", str(span_file), "--slow-only"]
            )
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "http.request" in out[0]

    def test_show_renders_the_tree_by_prefix(self, span_file, capsys):
        spans = [
            json.loads(line)
            for line in span_file.read_text().strip().splitlines()
        ]
        nested = next(
            s["trace_id"] for s in spans if s["name"] == "cache.lookup"
        )
        assert (
            trace_cli_main(["show", nested[:8], "--file", str(span_file)])
            == 0
        )
        out = capsys.readouterr().out
        assert "http.request" in out
        assert "  engine.predict" in out  # indented child
        assert "    cache.lookup" in out  # grandchild
        assert "self" in out

    def test_show_unknown_prefix_fails(self, span_file, capsys):
        from repro.cli import main

        assert (
            main(
                ["trace", "show", "ffffffffffff", "--file", str(span_file)]
            )
            == 1
        )
        assert (
            capsys.readouterr().err
            == "error: no trace matching 'ffffffffffff'\n"
        )

    def test_missing_file_is_an_error_not_a_crash(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                ["trace", "summary", "--file", str(tmp_path / "nope.jsonl")]
            )
            == 1
        )
        assert "error" in capsys.readouterr().err

    def test_unparseable_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        good = _span_dict("abcd1234", name="ok")
        path.write_text("not json\n" + json.dumps(good) + "\n{}\n")
        assert trace_cli_main(["summary", "--file", str(path)]) == 0
        assert "ok" in capsys.readouterr().out


class TestRenderHelpers:
    def test_orphans_are_promoted_to_roots(self):
        spans = [
            _span_dict("t", name="orphan", parent_id="missing-parent"),
        ]
        tree = render_span_tree(spans)
        assert "orphan" in tree

    def test_self_time_subtracts_children(self):
        parent = _span_dict("t", name="parent", duration=0.010)
        parent["span_id"] = "p1"
        child = _span_dict(
            "t", name="child", duration=0.008, parent_id="p1",
            start_time=0.001,
        )
        tree = render_span_tree([parent, child])
        parent_line = next(l for l in tree.splitlines() if "parent" in l)
        assert "self    2.000 ms" in parent_line

    def test_stage_summary_counts_errors(self):
        spans = [
            _span_dict("t1", name="s", duration=0.001),
            _span_dict(
                "t2", name="s", duration=0.002, status=STATUS_ERROR
            ),
        ]
        summary = stage_summary(spans)
        assert summary["s"]["count"] == 2
        assert summary["s"]["errors"] == 1
        table = format_summary_table(summary)
        assert "s" in table.splitlines()[2]
