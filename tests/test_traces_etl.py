"""ETL stage: streaming parsers, skip-and-count, windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import etl
from repro.traces.etl import (
    CSV_HEADER,
    IngestedTrace,
    IngestStats,
    TraceRecord,
    ingest,
    iter_clf,
    iter_csv,
    parse_clf_line,
)

CLF_LINE = (
    '10.0.0.7 - - [14/Nov/2023:22:13:20 +0000] '
    '"GET /browse/item42 HTTP/1.1" 200 1234 0.042'
)
CLF_COMBINED = (
    '10.0.0.7 - frank [14/Nov/2023:22:13:21 +0000] '
    '"POST /checkout HTTP/1.1" 302 512 '
    '"http://example.com/cart" "Mozilla/5.0" 0.118'
)
CLF_NO_DURATION = (
    '10.0.0.8 - - [14/Nov/2023:22:13:22 +0000] '
    '"GET /manage HTTP/1.1" 200 99'
)


class TestClfParsing:
    def test_basic_line(self):
        record = parse_clf_line(CLF_LINE)
        assert record is not None
        assert record.class_name == "browse"
        assert record.service_time == pytest.approx(0.042)
        assert record.timestamp == pytest.approx(1_700_000_000.0)

    def test_combined_format_with_trailing_duration(self):
        record = parse_clf_line(CLF_COMBINED)
        assert record is not None
        assert record.class_name == "checkout"
        assert record.service_time == pytest.approx(0.118)

    def test_plain_clf_has_no_service_time(self):
        record = parse_clf_line(CLF_NO_DURATION)
        assert record is not None
        assert record.service_time is None

    def test_malformed_lines_return_none(self):
        for line in (
            "",
            "garbage",
            CLF_LINE[: len(CLF_LINE) // 2],  # truncated mid-line
            '10.0.0.1 - - [not-a-date] "GET / HTTP/1.1" 200 1',
        ):
            assert parse_clf_line(line) is None

    def test_iter_clf_skips_and_counts(self):
        stats = IngestStats()
        lines = [CLF_LINE, "truncated junk", "", CLF_COMBINED]
        records = list(iter_clf(lines, stats))
        assert len(records) == 2
        assert stats.parsed == 2
        assert stats.skipped.get("malformed") == 1
        assert stats.skipped.get("blank") == 1


class TestCsvParsing:
    def test_header_and_rows(self):
        stats = IngestStats()
        lines = [
            ",".join(CSV_HEADER),
            "100.0,browse,0.05",
            "100.5,purchase,0.10",
        ]
        records = list(iter_csv(lines, stats))
        assert [r.class_name for r in records] == ["browse", "purchase"]
        assert stats.parsed == 2

    def test_malformed_rows_skipped_never_raise(self):
        stats = IngestStats()
        lines = [
            "timestamp,class,service_time",
            "not-a-number,browse,0.05",  # bad timestamp
            "101.0",  # truncated row
            "",  # blank
            "102.0,browse,oops",  # bad duration: arrival kept
            "103.0,,0.02",  # empty class name
        ]
        records = list(iter_csv(lines, stats))
        assert len(records) == 2
        assert stats.skipped.get("malformed") == 2
        assert stats.skipped.get("blank") == 1
        assert stats.skipped.get("bad_service_time") == 1
        assert records[0].service_time is None
        assert records[-1].class_name == "unknown"


class TestIngestedTrace:
    def make(self, rows):
        return IngestedTrace(TraceRecord(*row) for row in rows)

    def test_normalizes_to_first_arrival(self):
        trace = self.make([(100.0, "a", 0.1), (101.5, "a", 0.2)])
        np.testing.assert_allclose(trace.arrivals, [0.0, 1.5])
        assert trace.origin == 100.0

    def test_out_of_order_dropped_and_counted(self):
        trace = self.make(
            [(10.0, "a", None), (12.0, "a", None), (11.0, "a", None),
             (13.0, "a", None)]
        )
        assert len(trace) == 3
        assert trace.stats.skipped.get("out_of_order") == 1

    def test_negative_service_time_keeps_arrival(self):
        trace = self.make([(0.0, "a", -1.0), (1.0, "a", 0.5)])
        assert len(trace) == 2
        assert trace.service_samples.tolist() == [0.5]
        assert trace.stats.skipped.get("bad_service_time") == 1

    def test_zero_gap_fraction(self):
        trace = self.make([(0.0, "a", None)] * 3 + [(1.0, "a", None)])
        assert trace.zero_gap_fraction() == pytest.approx(2 / 3)

    def test_class_service_samples_grouping(self):
        trace = self.make(
            [(0.0, "a", 0.1), (1.0, "b", None), (2.0, "a", 0.3),
             (3.0, "b", 0.7)]
        )
        grouped = trace.class_service_samples()
        np.testing.assert_allclose(grouped["a"], [0.1, 0.3])
        np.testing.assert_allclose(grouped["b"], [0.7])


class TestWindows:
    def make(self, times):
        return IngestedTrace(TraceRecord(t, "a", None) for t in times)

    def test_empty_trace_yields_no_windows(self):
        assert self.make([]).windows(1.0) == []

    def test_zero_duration_trace_yields_one_window(self):
        windows = self.make([5.0, 5.0, 5.0]).windows(10.0)
        assert len(windows) == 1
        assert windows[0].count == 3
        assert windows[0].rate > 0

    def test_interior_empty_window_kept_trailing_dropped(self):
        # Arrivals in [0, 1) and [2, 3); window 2 ([2,3)) holds the last
        # arrival exactly so nothing trails; gap window [1,2) must stay.
        windows = self.make([0.1, 0.5, 2.2, 2.4]).windows(1.0)
        counts = [w.count for w in windows]
        assert counts == [2, 0, 2]
        assert windows[1].rate == 0.0

    def test_window_interarrivals(self):
        windows = self.make([0.0, 0.25, 0.75]).windows(1.0)
        np.testing.assert_allclose(windows[0].interarrivals(), [0.25, 0.5])

    def test_invalid_window_width(self):
        with pytest.raises(ValueError):
            self.make([0.0, 1.0]).windows(0.0)

    def test_far_future_timestamp_is_refused_not_windowed(self, tmp_path):
        """One far-future line keeps its arrival and drops the later lines
        (arrivals never run backwards); windowing the 10^12 s span it
        leaves is a ValueError naming count, width and duration."""
        path = tmp_path / "far.csv"
        path.write_text(
            "timestamp,class,service_time\n"
            "0,a,0.1\n1,a,0.1\n1000000000000,a,0.1\n2,a,0.1\n3,a,0.1\n"
        )
        trace = ingest(path)
        np.testing.assert_array_equal(trace.arrivals, [0.0, 1.0, 1e12])
        assert trace.stats.skipped == {"out_of_order": 2}
        with pytest.raises(ValueError) as refused:
            trace.windows(3600.0)
        message = str(refused.value)
        assert "277777778 windows" in message
        assert "3600 s" in message and "1e+12 s" in message

    def test_window_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(etl, "MAX_WINDOWS", 10)
        trace = self.make([0.0, 9.5])
        assert len(trace.windows(1.0)) == 10
        with pytest.raises(ValueError, match="11 windows"):
            trace.windows(0.95)


class TestIngestFile:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        trace = ingest(path)
        assert len(trace) == 0
        assert trace.windows(1.0) == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.csv")

    def test_format_sniffing(self, tmp_path):
        clf = tmp_path / "a.log"
        clf.write_text(CLF_LINE + "\n" + CLF_COMBINED + "\n")
        csv_file = tmp_path / "a.csv"
        csv_file.write_text("timestamp,class,service_time\n1.0,x,0.1\n")
        assert len(ingest(clf)) == 2
        assert len(ingest(csv_file)) == 1
        assert ingest(clf).classes == ["browse", "checkout"]

    def test_explicit_bad_format_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("timestamp,class,service_time\n")
        with pytest.raises(ValueError):
            ingest(path, fmt="xml")

    def test_garbage_heavy_file_never_raises(self, tmp_path):
        path = tmp_path / "noisy.csv"
        rows = ["timestamp,class,service_time"]
        for i in range(50):
            rows.append(f"{float(i)},c{i % 3},0.0{i % 9 + 1}")
            rows.append(f"corrupt line {i}")
        path.write_text("\n".join(rows) + "\n")
        trace = ingest(path)
        assert len(trace) == 50
        assert trace.stats.skipped.get("malformed") == 50


class TestDirtyLines:
    """One dirty line is skipped and counted; it never aborts the ingest
    or takes the lines after it down with it."""

    @pytest.mark.parametrize("n_lines, quote_line", [(20_000, 6), (300, 4)])
    def test_stray_quote_costs_only_its_own_line(
        self, tmp_path, n_lines, quote_line
    ):
        rows = [f"{i * 0.01:.2f},browse,0.05" for i in range(n_lines)]
        rows[quote_line - 1] = '0.5,"browse,0.05'
        path = tmp_path / "quote.csv"
        path.write_text("\n".join(rows) + "\n")
        trace = ingest(path)
        assert len(trace) == n_lines - 1
        assert trace.stats.lines_total == n_lines
        assert trace.stats.skipped == {"malformed": 1}

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_first_timestamp_is_malformed(self, tmp_path, stamp):
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            f"timestamp,class,service_time\n{stamp},a,0.1\n"
            "1.0,a,0.1\n2.5,a,0.2\n"
        )
        trace = ingest(path)
        np.testing.assert_array_equal(trace.arrivals, [0.0, 1.5])
        assert trace.stats.skipped == {"malformed": 1}
        assert [w.count for w in trace.windows(1.0)] == [1, 1]

    @pytest.mark.parametrize(
        "field, oversized",
        [
            ("2023", "9" * 20),
            ("14/", "9" * 20 + "/"),
            # Each term fits a float; their sum overflows to inf.
            ("22:13:20", f"4{'0' * 304}:5{'0' * 305}:1{'0' * 308}"),
        ],
        ids=["year", "day", "time"],
    )
    def test_oversized_clf_date_field_is_malformed(self, field, oversized):
        line = CLF_LINE.replace(field, oversized, 1)
        assert parse_clf_line(line) is None
        stats = IngestStats()
        assert len(list(iter_clf([line, CLF_LINE], stats))) == 1
        assert stats.skipped == {"malformed": 1}


_DIRTY_TOKENS = ['"', ",", "\x00", "nan", "inf", "-", ".", *"0123456789"]
_DIRTY_TEXT = st.lists(st.sampled_from(_DIRTY_TOKENS), max_size=12).map(
    "".join
)
_CLF_TEMPLATE = (
    '10.0.0.1 - - [{}/Nov/{}:{}:{}:{} +0000] "GET /{} HTTP/1.1" 200 1 {}'
)
_CLF_SHAPED = st.builds(
    _CLF_TEMPLATE.format,
    *[st.text("0123456789", min_size=1, max_size=25)] * 5,
    _DIRTY_TEXT,
    _DIRTY_TEXT,
)


@given(
    lines=st.lists(
        st.tuples(
            st.one_of(_DIRTY_TEXT, _CLF_SHAPED), st.sampled_from(["\n", ""])
        ).map("".join),
        max_size=30,
    ),
    parser=st.sampled_from([iter_clf, iter_csv]),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_dirty_lines_are_counted_and_never_raise(lines, parser):
    """Any line, of either format, is parsed or skipped and counted: the
    ingest never raises, and the arrivals it keeps are finite and in order."""
    stats = IngestStats()
    trace = IngestedTrace(parser(lines, stats), stats)
    assert stats.lines_total == len(lines)
    skipped = stats.skipped.get("blank", 0) + stats.skipped.get("malformed", 0)
    assert stats.parsed + skipped == len(lines)
    assert np.all(np.isfinite(trace.arrivals))
    assert np.all(np.diff(trace.arrivals) >= 0)
