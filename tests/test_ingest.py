"""Tests for CSV parsing, aggregation, and summaries."""

import csv
import io
import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import thintail as tt
from thintail import ingest
from thintail.ingest import LossCsvError, span_years_of, write_csv


@pytest.fixture()
def row_loop_calls(monkeypatch):
    """The width of each call of ingest's row loop during the test, in order."""
    row_loop, calls = ingest._row_loop, []
    monkeypatch.setattr(ingest, "_row_loop", lambda reader, width: calls.append(width) or row_loop(reader, width))
    return calls


def stream(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestParseCsv:
    def test_full_row(self):
        table = tt.parse_csv(stream("amount,date,event_id,category\n12.5,2016-03-01,EV1,CPBP\n"))
        assert table == tt.LossTable.from_records(
            [tt.LossRecord(amount=12.5, date=date(2016, 3, 1), event_id="EV1", category="CPBP")]
        )

    def test_optional_columns_missing(self):
        table = tt.parse_csv(stream("amount,date\n3.4,2015-12-31\n"))
        assert table.event_codes[0] == -1
        assert table.category_codes[0] == -1

    def test_nonpositive_amount_reports_line(self):
        with pytest.raises(LossCsvError) as err:
            tt.parse_csv(stream("amount,date,event_id,category\n-3,2016-03-01,,\n"))
        assert "line 2" in str(err.value)

    def test_malformed_amount_reports_line(self):
        with pytest.raises(LossCsvError) as err:
            tt.parse_csv(stream("amount,date,event_id,category\nabc,2016-03-01,,\n"))
        assert "line 2" in str(err.value)
        assert "abc" in str(err.value)

    def test_bad_date_reports_line(self):
        with pytest.raises(LossCsvError) as err:
            tt.parse_csv(stream("amount,date\n1.0,03/01/2016\n"))
        assert "line 2" in str(err.value)

    def test_multiple_diagnostics_collected(self):
        text = "amount,date\n-1,2016-01-01\nok,2016-01-02\n2.0,2016-01-03\n"
        with pytest.raises(LossCsvError) as err:
            tt.parse_csv(stream(text))
        assert len(err.value.diagnostics) == 2

    def test_unknown_column_rejected(self):
        text = "amount,date,event_id,category,extra\n1,2016-01-01,,,x\n"
        with pytest.raises(LossCsvError):
            tt.parse_csv(stream(text))

    def test_unknown_column_allowed_when_permissive(self):
        text = "amount,date,event_id,category,extra\n1,2016-01-01,,,x\n"
        table = tt.parse_csv(stream(text), permissive=True)
        assert table.amounts[0] == 1.0

    def test_unknown_category_rejected(self):
        with pytest.raises(LossCsvError):
            tt.parse_csv(stream("amount,date,event_id,category\n1,2016-01-01,,XYZ\n"))

    def test_empty_file(self):
        with pytest.raises(LossCsvError):
            tt.parse_csv(stream(""))

    def test_blank_lines_skipped(self):
        records = tt.parse_csv(stream("amount,date\n1,2016-01-01\n\n2,2016-01-02\n"))
        assert len(records) == 2

    def test_csv_error_is_a_diagnostic(self):
        # A stream not opened with newline='' hands csv a lone CR inside the header line.
        with pytest.raises(LossCsvError) as err:
            tt.parse_csv(stream("amount,date\r1,2016-01-01"))
        [line] = err.value.diagnostics
        assert line.startswith("line 1: new-line character seen in unquoted field")

    def test_multi_error_diagnostics_pinned(self):
        text = (
            "amount,date,event_id,category\n"
            "1.5,2016-01-01,EV1,CPBP\n"
            "abc,2016-01-02,EV1,CPBP\n"
            "\n"
            "-2,2016-01-03,EV1,CPBP\n"
            "3,2016-13-01,EV1,CPBP\n"
            "4, 2016-01-04 ,EV2, XYZ \n"
            "0,2016-01-05,EV2,EF\n"
        )
        with pytest.raises(LossCsvError) as err:
            tt.parse_csv(stream(text))
        assert err.value.diagnostics == [
            "line 3: bad amount 'abc'",
            "line 5: amount must be > 0, got '-2'",
            "line 6: bad ISO-8601 date '2016-13-01'",
            "line 7: unknown Basel category 'XYZ'",
            "line 8: amount must be > 0, got '0'",
        ]

    def test_clean_input_never_reaches_the_row_loop(self, monkeypatch):
        def refuse(reader, width):
            raise AssertionError("row loop ran on input the tokenizer accepts")

        monkeypatch.setattr(ingest, "_row_loop", refuse)
        text = (
            'amount,date,event_id,category\r\n 2.5 ,2016-03-01,"EV,1", CPBP\r\n'
            '\r\n"1e1", 2016-03-02 ,"EV\r\n""2""",\r\n3,2016-03-03,EV"3,EF\r\n'
        )
        table = tt.parse_csv(io.StringIO(text, newline=""))
        assert table == tt.LossTable.from_records([
            tt.LossRecord(2.5, date(2016, 3, 1), "EV,1", "CPBP"),
            tt.LossRecord(10.0, date(2016, 3, 2), 'EV\r\n"2"', None),
            tt.LossRecord(3.0, date(2016, 3, 3), 'EV"3', "EF"),
        ])
        assert len(tt.parse_csv(io.StringIO("amount,date\r1,2016-01-01\r2,2016-01-02", newline=""))) == 2
        # fields past the header's schema columns are ignored, whatever they hold
        table = tt.parse_csv(io.StringIO("amount,date\n1.5,2016-01-01,EV1\n2.5,2016-02-01,EV2\n"))
        assert table.event_codes.tolist() == [-1, -1] and table.event_ids == ()

    def test_refused_rows_fall_back_to_the_row_loop(self):
        text = "amount,date,event_id,category\n1_0,2016-01-01,EV1,CPBP\n,,,\n   \n2,2016-01-02,EV2\n"
        assert tt.parse_csv(stream(text)) == tt.LossTable.from_records([
            tt.LossRecord(10.0, date(2016, 1, 1), "EV1", "CPBP"),
            tt.LossRecord(2.0, date(2016, 1, 2), "EV2", None),
        ])

    def test_roundtrip_idempotent(self, tmp_path):
        original = [
            tt.LossRecord(4.25, date(2015, 6, 1), "EV1", "CPBP"),
            tt.LossRecord(0.75, date(2016, 1, 2), "EV2", None),
            tt.LossRecord(123.456789, date(2016, 2, 3), None, "EF"),
        ]
        path = tmp_path / "losses.csv"
        write_csv(original, path)
        reparsed = tt.parse_csv(path)
        assert reparsed == tt.LossTable.from_records(original)
        # serialize -> parse -> serialize is stable
        path2 = tmp_path / "again.csv"
        write_csv(reparsed, path2)
        assert path.read_text() == path2.read_text()


@pytest.mark.parametrize("amount, category, message", [
    (0.0, None, "amount must be finite and > 0, got 0.0"),
    (-2.5, "CPBP", "amount must be finite and > 0, got -2.5"),
    (5.0, "XYZ", "unknown Basel category 'XYZ'"),
])
def test_loss_record_refuses(amount, category, message):
    with pytest.raises(ValueError) as err:
        tt.LossRecord(amount, date(2016, 3, 1), "EV1", category)
    assert str(err.value) == message


class TestParsePreAggregated:
    def test_reads_amount_column(self):
        assert tt.parse_pre_aggregated(stream("amount\n5.5\n7\n")) == [5.5, 7.0]

    def test_wrong_header(self):
        with pytest.raises(LossCsvError):
            tt.parse_pre_aggregated(stream("loss\n5.5\n"))

    def test_rejects_nonpositive(self):
        with pytest.raises(LossCsvError):
            tt.parse_pre_aggregated(stream("amount\n0\n"))

    def test_bad_amount_reports_line(self):
        with pytest.raises(LossCsvError) as err:
            tt.parse_pre_aggregated(stream("amount\n5.5\nabc\n"))
        assert err.value.diagnostics == ["line 3: bad amount 'abc'"]

    def test_row_with_extra_fields_is_refused(self):
        # a decimal-comma amount must not be read as its integer part
        with pytest.raises(LossCsvError) as err:
            tt.parse_pre_aggregated(stream("amount\n1.5\n2.0,7\n3.25\n,\n0.8\n4,1,9\n"))
        assert err.value.diagnostics == [
            "line 3: expected 1 field (amount), got 2",
            "line 7: expected 1 field (amount), got 3",
        ]


class TestAggregate:
    def records(self):
        return [
            tt.LossRecord(3.0, date(2015, 1, 10), "EV1", None),
            tt.LossRecord(4.0, date(2015, 7, 20), "EV1", None),
            tt.LossRecord(5.0, date(2016, 2, 1), "EV2", None),
        ]

    def test_by_event_sums(self):
        agg = tt.aggregate(self.records(), mode="event")
        assert sorted(agg.losses) == [5.0, 7.0]

    def test_by_period_year(self):
        agg = tt.aggregate(self.records(), mode="period:year")
        assert sorted(agg.losses) == [5.0, 7.0]

    def test_by_period_month_and_quarter(self):
        recs = [
            tt.LossRecord(1.0, date(2016, 1, 5), None, None),
            tt.LossRecord(2.0, date(2016, 1, 25), None, None),
            tt.LossRecord(4.0, date(2016, 2, 5), None, None),
        ]
        by_month = tt.aggregate(recs, mode="period:month")
        assert sorted(by_month.losses) == [3.0, 4.0]
        by_quarter = tt.aggregate(recs, mode="period:quarter")
        assert by_quarter.losses == (7.0,)

    def test_event_mode_requires_ids(self):
        recs = [tt.LossRecord(1.0, date(2016, 1, 1), None, None)] * 2
        with pytest.raises(ValueError):
            tt.aggregate(recs, mode="event")

    def test_empty_input(self):
        with pytest.raises(ValueError):
            tt.aggregate([], mode="event")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tt.aggregate(self.records(), mode="weekly")

    def test_unknown_period_granularity(self):
        with pytest.raises(ValueError, match="granularity must be month, quarter, or year"):
            tt.aggregate(self.records(), mode="period:week")

    def test_span_years_from_dates(self):
        agg = tt.aggregate(self.records(), mode="event")
        expected = (date(2016, 2, 1) - date(2015, 1, 10)).days / 365.25
        assert agg.span_years == pytest.approx(expected)

    def test_span_floor_one_day(self):
        recs = [
            tt.LossRecord(1.0, date(2016, 1, 1), "A", None),
            tt.LossRecord(2.0, date(2016, 1, 1), "B", None),
        ]
        assert tt.aggregate(recs, mode="event").span_years == pytest.approx(1.0 / 365.0)

    def test_order_independence(self):
        recs = self.records()
        rng = np.random.default_rng(0)
        base = tt.aggregate(recs, mode="event")
        for _ in range(5):
            perm = [recs[i] for i in rng.permutation(len(recs))]
            assert tt.aggregate(perm, mode="event") == base

    def test_conservation_exact(self):
        rng = np.random.default_rng(1)
        recs = [
            tt.LossRecord(round(float(a), 2), date(2015, 1, 1), f"EV{i % 7}", None)
            for i, a in enumerate(rng.uniform(0.01, 900.0, 5_000))
        ]
        agg = tt.aggregate(recs, mode="event")
        assert math.fsum(agg.losses) == math.fsum(r.amount for r in recs)

    def test_span_years_of_helper(self):
        assert span_years_of(tt.LossTable.from_records(self.records())) > 1.0


class TestSummary:
    def test_pair(self):
        agg = tt.AggregatedLossSet(losses=(7.0, 5.0), span_years=1.0)
        assert tt.summary(agg) == (2, 12.0, 5.0, 7.0, 6.0)

    def test_single(self):
        agg = tt.AggregatedLossSet(losses=(1.0,), span_years=1.0)
        assert tt.summary(agg) == (1, 1.0, 1.0, 1.0, 1.0)

    def test_report_triple_format(self):
        # (min, max, mean) echoes the documented reporting shape
        agg = tt.AggregatedLossSet(losses=(0.1, 1208.0, 92.7), span_years=5.0)
        s = tt.summary(agg)
        assert (s.minimum, s.maximum) == (0.1, 1208.0)
        assert s.mean == pytest.approx((0.1 + 1208.0 + 92.7) / 3)

    def test_set_invariants(self):
        with pytest.raises(ValueError, match="^need at least 1 loss, got 0$"):
            tt.AggregatedLossSet(losses=(), span_years=1.0)
        with pytest.raises(ValueError):
            tt.AggregatedLossSet(losses=(1.0,), span_years=0.0)

    @pytest.mark.parametrize("losses", [(1.0, -2.0, math.nan), (3.0, 0.0), (math.inf,), (math.nan,), (-2.0,)])
    def test_loss_that_is_not_finite_and_positive_is_refused(self, losses):
        with pytest.raises(ValueError, match="^losses must be finite and > 0$"):
            tt.AggregatedLossSet(losses, span_years=5.0)

    @pytest.mark.parametrize("losses", [np.array([1.0, 2.0]), [1.0, 2.0], (np.float64(1.0), 2)],
                             ids=["array", "list", "numpy scalar and int"])
    def test_losses_are_kept_as_a_tuple_of_floats(self, losses):
        agg = tt.AggregatedLossSet(losses, span_years=5.0)
        twin = tt.AggregatedLossSet((1.0, 2.0), span_years=5.0)
        assert agg == twin and hash(agg) == hash(twin)
        assert [type(value) for value in agg.losses] == [float, float]
        stats = tt.summary(agg)
        assert (type(stats.minimum), type(stats.maximum)) == (float, float)


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark, as Excel's "CSV UTF-8" export writes, reads as its twin."""

    @staticmethod
    def twins(tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        return plain, marked

    @pytest.mark.parametrize("tail, row_loops", [("", 0), (",,,\n", 2)], ids=["tokenizer", "row loop"])
    def test_raw_payments(self, tmp_path, row_loop_calls, tail, row_loops):
        text = "amount,date,event_id,category\n12.5,2016-03-01,EV1,CPBP\n3.0,2016-04-01,EV2,\n" + tail
        plain, marked = self.twins(tmp_path, text)
        assert tt.parse_csv(marked) == tt.parse_csv(plain)
        assert len(row_loop_calls) == row_loops  # a ,,, row sends each file through the row loop

    def test_pre_aggregated(self, tmp_path):
        plain, marked = self.twins(tmp_path, "amount\n1.5\n2.0\n")
        assert tt.parse_pre_aggregated(marked) == tt.parse_pre_aggregated(plain) == [1.5, 2.0]


class TestNotUtf8:
    """A byte that is not UTF-8 is a diagnostic that names the line holding it."""

    @staticmethod
    def write(tmp_path, header: bytes, row: bytes, bad_line: int, rows: int = 2000):
        lines = [header] + [row] * rows
        lines[bad_line - 1] += b"\xe9"  # a Latin-1 e-acute
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    # line 1501 lies past the text decoder's first buffer
    @pytest.mark.parametrize("bad_line", [3, 1501])
    def test_raw_payments(self, tmp_path, bad_line):
        path = self.write(tmp_path, b"amount,date,event_id,category", b"1.5,2016-01-01,EV1,", bad_line)
        with pytest.raises(LossCsvError) as info:
            tt.parse_csv(path)
        assert info.value.diagnostics == [f"line {bad_line}: not UTF-8 text"]

    @pytest.mark.parametrize("bad_line", [3, 1501])
    def test_pre_aggregated(self, tmp_path, bad_line):
        path = self.write(tmp_path, b"amount", b"1.5", bad_line)
        with pytest.raises(LossCsvError) as info:
            tt.parse_pre_aggregated(path)
        assert info.value.diagnostics == [f"line {bad_line}: not UTF-8 text"]

    def test_line_ends_are_counted_as_the_csv_reader_counts_them(self, tmp_path):
        for end in (b"\r\n", b"\r"):
            path = tmp_path / "ends.csv"
            path.write_bytes(end.join([b"amount", b"1.5", b"2.5", b"3\xe9", b"4.5"]) + end)
            with pytest.raises(LossCsvError, match="^line 4: not UTF-8 text$"):
                tt.parse_pre_aggregated(path)

    def test_raw_payments_do_not_fall_back_to_the_row_loop(self, tmp_path, monkeypatch):
        # Line 1501 lies past the header's first decoded buffer, so the tokenizer meets the bad byte;
        # the row loop would only decode the file again and fail on the same byte.
        bad_line = 1501
        path = self.write(tmp_path, b"amount,date,event_id,category", b"1.5,2016-01-01,EV1,", bad_line)

        def row_loop(reader, width):
            raise AssertionError("the row loop re-read a file that is not UTF-8")

        monkeypatch.setattr(ingest, "_row_loop", row_loop)
        with pytest.raises(LossCsvError) as info:
            tt.parse_csv(path)
        assert info.value.diagnostics == [f"line {bad_line}: not UTF-8 text"]

    def test_a_stream_says_only_that_it_is_not_utf8(self, tmp_path):
        path = self.write(tmp_path, b"amount", b"1.5", 3)
        with open(path, encoding="utf-8", newline="") as handle:
            with pytest.raises(LossCsvError, match="^not UTF-8 text$"):
                tt.parse_pre_aggregated(handle)


def row_loop_outcome(path, permissive):
    """parse_csv on the row loop alone: a table, or the diagnostics it raised."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            width = ingest._header_width(reader, permissive)
            return ingest._row_loop(reader, width)
        except LossCsvError as exc:
            return exc.diagnostics


def tokenizer_outcome(path, permissive):
    """The tokenizer path alone: a table, or None when it refuses the header or rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            width = ingest._header_width(csv.reader(fh), permissive)
            return ingest._tokenized(fh, 0, width)
        except ValueError:
            return None


def parse_outcome(source, permissive):
    try:
        return tt.parse_csv(source, permissive=permissive)
    except LossCsvError as exc:
        return exc.diagnostics


# float() reads non-ASCII digits such as "\u0669" (Arabic-Indic 9), which numpy's own float parser refuses.
AMOUNTS_OK = ["1", "2.5", " 3 ", "1e3", "4.5E-2", '"6.25"', "+7", ".5", "1e-300", "12345678.9", "\u00a08\t", "1_0",
              "\u0669"]
# numpy's own float parser strips \x1c-\x1f, which float() rejects; up to U+3000 these are the
# only characters it strips.
AMOUNTS_BAD = ["nan", "inf", "-inf", "-0", "0", "-5", "abc", "", "1e", " ", '"1,5"', "0x10", "1e999", "9\x1c",
               "9\x1d", "\x1f9", '"1\x00"']


def is_iso_date(text: str) -> bool:
    try:
        date.fromisoformat(text)
    except ValueError:
        return False
    return True


# Whether these are dates depends on the Python version: "20160101" and "2016-W01-1" are dates
# for date.fromisoformat from Python 3.11 on, and bad before.
VERSIONED_DATES = ["0001-01-01", "9999-12-31", "2016-1-01", "2016-01-01T00", "20160101", "2016-W01-1"]
DATES_OK = ["2016-01-01", " 2016-02-29 ", "2015-12-31", '"2016-03-01"', "2017-07-04"] + [
    d for d in VERSIONED_DATES if is_iso_date(d)]
DATES_BAD = ["2015-02-29", "03/01/2016", "", "2016-13-01"] + [d for d in VERSIONED_DATES if not is_iso_date(d)]
# Labels a fixed-width bytes field would misread: numpy drops a trailing NUL (so "EV\x00" would
# merge with "EV"), an id of the field's width or longer may have been cut short (two 40-byte ids
# share their first 32 bytes), and "\u20ac1" is not Latin-1.  "\u00e9" is one Latin-1 byte, next to "e".
WIDTH = ingest._FIELD_BYTES
EVENTS = ["EV1", " EV1 ", "EV2", "", '"EV,1"', '"EV""1"', 'EV"1', '"EV\n1"', '"EV\r\n2"', '"EV\r3"',
          '"  "', '"EV1"', "\u00e9v", "ev", "\u00e9", "e", "EV", "EV\x00", "E" * 39 + "1", "E" * 39 + "2",
          "\u20ac1", "E" * (WIDTH - 1), "E" * WIDTH, "E" * (WIDTH + 1)]
CATEGORIES_OK = ["CPBP", " EF ", "", '"IF"', "EDPM"]
CATEGORIES_BAD = ["XYZ", "cpbp", '"CP,BP"']
ODD_ROWS = ["", "   ", ",,,", ",", "\t", '""', "1,2016-01-01", "1,2016-01-01,EV1", "1,2016-01-01,EV1,CPBP,x"]
HEADERS = ["amount,date", "amount,date,event_id", "amount,date,event_id,category",
           "amount,date,event_id,category,extra", " amount , date ,event_id,category", "amount"]


@st.composite
def loss_csv_texts(draw, max_rows=6):
    """Loss-schema CSV texts: mostly valid rows, with quoting, spacing, row-shape and line-ending variants."""
    header = draw(st.sampled_from(HEADERS))
    width = header.count(",") + 1

    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 0 else good))

    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from(ODD_ROWS)))
            continue
        cells = [pick(AMOUNTS_OK, AMOUNTS_BAD), pick(DATES_OK, DATES_BAD)]
        if width > 2:
            cells.append(draw(st.sampled_from(EVENTS)))
        if width > 3:
            cells.append(pick(CATEGORIES_OK, CATEGORIES_BAD))
        if width > 4:
            cells.append(draw(st.sampled_from(["x", "", '"y,z"'])))
        rows.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header] + rows) + draw(st.sampled_from([newline, ""]))


class UnseekableStream(io.StringIO):
    """A text stream that cannot seek back, so parse_csv reads it by the row loop alone."""

    def seekable(self):
        return False


class TestTokenizerEquivalence:
    @settings(max_examples=500, deadline=None)
    @given(text=loss_csv_texts(), permissive=st.booleans())
    def test_tokenizer_and_row_loop_agree(self, text, permissive, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "equivalence.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = row_loop_outcome(path, permissive)
        tokenized = tokenizer_outcome(path, permissive)
        if tokenized is not None:
            event("tokenizer accepted the rows")
            assert tokenized == expected
        assert parse_outcome(path, permissive) == expected
        assert parse_outcome(io.StringIO(text, newline=""), permissive) == expected
        assert parse_outcome(UnseekableStream(text, newline=""), permissive) == expected


def assert_paths_agree(text, permissive, path):
    """The tokenizer, when it accepts, and parse_csv on a path, a stream and an unseekable stream match the row loop."""
    path.write_bytes(text.encode("utf-8"))
    expected = row_loop_outcome(path, permissive)
    tokenized = tokenizer_outcome(path, permissive)
    if tokenized is not None:
        assert tokenized == expected
    assert parse_outcome(path, permissive) == expected
    assert parse_outcome(io.StringIO(text, newline=""), permissive) == expected
    assert parse_outcome(UnseekableStream(text, newline=""), permissive) == expected
    return tokenized


# Inputs read two rows a block, and whether the tokenizer accepts them.
BLOCK_EDGES = {
    "a label first seen in a later block keeps its first-appearance code": (
        "amount,date,event_id\n1,2016-01-01,B\n2,2016-01-02,B\n3,2016-01-03,A\n4,2016-01-04,B\n5,2016-01-05,C\n", True),
    "a refused row in a later block leaves no label behind": (
        "amount,date,event_id\n1,2016-01-01,A\n2,2016-01-02,B\n1_0,2016-01-03,C\n3,2016-01-04,A\n", False),
    "a row count that fills the last block ends on an empty block": (
        "amount,date,event_id\n1,2016-01-01,A\n2,2016-01-02,B\n3,2016-01-03,A\n4,2016-01-04,C\n", True),
    "a quoted newline in the last row of a block": (
        'amount,date,event_id\r\n1,2016-01-01,A\r\n2,2016-01-02,"B\r\n2"\r\n3,2016-01-03,"B\r\n2"\r\n', True),
}


class TestTokenizerBlocks:
    @pytest.fixture(autouse=True)
    def two_rows_a_block(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", 2)

    @pytest.mark.parametrize("text, accepted", list(BLOCK_EDGES.values()), ids=list(BLOCK_EDGES))
    def test_block_edges(self, text, accepted, tmp_path):
        assert (assert_paths_agree(text, False, tmp_path / "blocks.csv") is not None) == accepted

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=loss_csv_texts(max_rows=12), permissive=st.booleans())
    def test_tokenizer_and_row_loop_agree_across_blocks(self, text, permissive, tmp_path_factory):
        if assert_paths_agree(text, permissive, tmp_path_factory.getbasetemp() / "blocks.csv") is not None:
            event("tokenizer accepted the rows")


def test_tokenizer_memory_stays_within_a_block_of_the_table(tmp_path, monkeypatch):
    """Peak traced memory (numpy's buffers included) grows with the table, not with the text read."""
    def refuse(reader, width):
        raise AssertionError("row loop ran on input the tokenizer accepts")

    monkeypatch.setattr(ingest, "_row_loop", refuse)
    rng = np.random.default_rng(11)
    count = 50_000
    day_text = [(date(2010, 1, 1) + timedelta(days=d)).isoformat() for d in range(2000)]
    columns = (rng.exponential(size=count), rng.integers(0, 2000, count), rng.integers(0, 40, count))
    rows = [f"{amount:.6f},{day_text[day]},EV{event_id:03d},CPBP"
            for amount, day, event_id in zip(*(column.tolist() for column in columns))]
    path = tmp_path / "payments.csv"
    path.write_text("amount,date,event_id,category\n" + "\n".join(rows) + "\n", encoding="utf-8")
    del rows
    tracemalloc.start()
    try:
        table = tt.parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == count
    table_bytes = sum(column.nbytes for column in (table.amounts, table.days, table.event_codes, table.category_codes))
    block_bytes = ingest._BLOCK_ROWS * (8 + 3 * ingest._FIELD_BYTES)
    # Blocked, the peak is about 5.3 MB here (bound 8.2 MB); one np.loadtxt call over the whole file reaches 10.7 MB.
    assert peak < 3 * table_bytes + 2 * block_bytes


def reference_aggregate(records, mode):
    """The record-at-a-time grouping: dict of lists keyed by event id or period tuple, fsum in sorted-key order."""
    period_key = {
        "period:month": lambda d: (d.year, d.month),
        "period:quarter": lambda d: (d.year, (d.month - 1) // 3 + 1),
        "period:year": lambda d: (d.year,),
    }
    key_of = (lambda r: r.event_id) if mode == "event" else (lambda r: period_key[mode](r.date))
    groups = {}
    for record in records:
        groups.setdefault(key_of(record), []).append(record.amount)
    dates = [r.date for r in records]
    span = max((max(dates) - min(dates)).days / 365.25, 1.0 / 365.0)
    return tuple(math.fsum(groups[key]) for key in sorted(groups)), span


class TestAggregateEquivalence:
    @pytest.fixture(scope="class")
    def payments(self, tmp_path_factory):
        rng = np.random.default_rng(20)
        count = 20_000
        names = [f"EV{k}" for k in rng.permutation(150)] + ["ev-b", "Ev a", "év"]
        first = date(1969, 11, 3)
        records = [
            tt.LossRecord(
                float(f"{amount:.{digits}g}"),
                first + timedelta(days=int(day)),
                names[int(k)],
                sorted(ingest.BASEL_CATEGORIES)[int(c)] if c < 7 else None,
            )
            for amount, digits, day, k, c in zip(
                rng.lognormal(0.0, 3.0, count), rng.integers(1, 18, count), rng.integers(0, 9 * 366, count),
                rng.integers(0, len(names), count), rng.integers(0, 9, count),
            )
        ]
        path = tmp_path_factory.mktemp("agg") / "payments.csv"
        write_csv(records, path)
        return records, path

    @pytest.mark.parametrize("tail, row_loops", [("", 0), (",,,\n", 1)], ids=["tokenizer", "row loop"])
    def test_write_parse_round_trip(self, payments, tmp_path, row_loop_calls, tail, row_loops):
        # 20,000 rows are two tokenizer blocks; a ,,, row sends the whole file through the row loop instead
        records, path = payments
        copy = tmp_path / "payments.csv"
        copy.write_bytes(path.read_bytes() + tail.encode())
        assert tt.parse_csv(copy) == tt.LossTable.from_records(records)
        assert len(row_loop_calls) == row_loops

    @pytest.mark.parametrize("mode", ["event", "period:month", "period:quarter", "period:year"])
    def test_parsed_table_records_and_reference_agree(self, payments, mode):
        records, path = payments
        parsed = tt.aggregate(tt.parse_csv(path), mode=mode)
        adapted = tt.aggregate(tt.LossTable.from_records(records), mode=mode)
        assert parsed == adapted
        assert tt.aggregate(records, mode=mode) == adapted
        assert (adapted.losses, adapted.span_years) == reference_aggregate(records, mode)
