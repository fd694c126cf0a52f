"""Loss-data ingestion: CSV parsing, aggregation by originating event or
accounting period, and summary statistics.

Input schema (UTF-8 CSV, with or without the byte-order mark that Excel's
"CSV UTF-8" export writes; the mark is dropped): header
``amount,date,event_id,category`` with the last two columns optional;
dates are ISO-8601; amounts are mEUR and must be positive.  Unknown
columns are rejected unless ``permissive``.
Fields past the header's schema columns are ignored.
Pre-aggregated inputs are a one-column ``amount`` CSV plus an explicit
observation span in years.

:func:`parse_csv` returns one columnar :class:`LossTable`: float64
amounts, int64 day ordinals, and int codes plus label tuples for the
event ids and categories.  It first hands the rows after the header to
numpy's C tokenizer (``np.loadtxt`` with a structured dtype and no
converters), one fixed-size block of rows at a time, so memory stays
flat in the file size.  Amounts are read as float64 and checked finite
and positive.  Dates, ids and categories are read as fixed-width
Latin-1 bytes and grouped by exact bytes; the row loop's own converters
(a per-distinct-string cache of ``date.fromisoformat``, and interning of
the stripped ids and categories to codes in order of first appearance)
then read each distinct field once, so what a field means has one
definition.  Whenever the tokenizer refuses a row, or the reader cannot
prove that the row loop reads the text the same way (a field that fills
its width, text outside Latin-1, a NUL or a ``\\x1c``-``\\x1f`` anywhere,
which numpy and ``float`` read differently), it raises ``ValueError``
and the same rows are read again by a per-row loop over ``csv.reader``.
That loop is the only producer of :class:`LossCsvError` diagnostics for
rows, so their messages and line numbers (the CSV record number, header =
line 1) do not depend on the tokenizer.  It is also the general path for rows the schema allows
but the tokenizer refuses: blank rows of delimiters such as ``,,,``,
whitespace-only lines, and rows with fewer fields than the header.  A
text stream that cannot seek back is read by the row loop alone.  Bytes
that are not UTF-8 fail in either path, and ``_text`` names the line of
the first one.

:func:`aggregate` groups a table by integer keys (event-id rank, or a
month/quarter/year index derived from the day ordinals) with one stable
argsort and a ``bincount`` split.  Group sums use ``math.fsum``, which
is exact and independent of order, so aggregating very many small
payments into one number loses nothing to accumulation error.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dist import _positive_fields, _require_losses

__all__ = [
    "LossRecord",
    "LossTable",
    "AggregatedLossSet",
    "LossCsvError",
    "parse_csv",
    "parse_pre_aggregated",
    "write_csv",
    "aggregate",
    "summary",
]

BASEL_CATEGORIES = frozenset({"IF", "EF", "EPWS", "CPBP", "DPA", "BDSF", "EDPM"})

_MIN_SPAN_YEARS = 1.0 / 365.0
_DAYS_PER_YEAR = 365.25
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# The tokenizer path reads _BLOCK_ROWS rows per np.loadtxt call, each date, id and category into
# _FIELD_BYTES bytes, and scans the text _CHUNK_CHARS characters at a time.
_BLOCK_ROWS = 1 << 14
# One odd weight per 8-byte word of a field, so two fields that differ in a single word never share a key.
_WORD_WEIGHTS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
                         dtype=np.uint64)
_FIELD_BYTES = 8 * len(_WORD_WEIGHTS)
_CHUNK_CHARS = 1 << 16
# numpy's float parser strips \x1c-\x1f, which float() refuses, and a bytes field drops a trailing NUL.
_MISREAD = "\x00\x1c\x1d\x1e\x1f"


class LossCsvError(ValueError):
    """Parse failure(s) with per-line diagnostics."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


@dataclass(frozen=True)
class LossRecord:
    """One raw loss payment (amount in mEUR, checked by ``dist``'s positive-number rule)."""

    amount: float
    date: date
    event_id: str | None = None
    category: str | None = None

    def __post_init__(self):
        _positive_fields(self, "amount")
        if self.category is not None and self.category not in BASEL_CATEGORIES:
            raise ValueError(f"unknown Basel category {self.category!r}")


@dataclass(frozen=True, eq=False)
class LossTable:
    """Raw loss payments as columns; the result of :func:`parse_csv`.

    ``amounts`` are mEUR; ``days`` are proleptic Gregorian ordinals
    (``date.toordinal``).  ``event_codes`` and ``category_codes`` index
    ``event_ids`` and ``categories``, which list the labels in order of
    first appearance; -1 marks a missing value.
    """

    amounts: np.ndarray
    days: np.ndarray
    event_codes: np.ndarray
    event_ids: tuple[str, ...]
    category_codes: np.ndarray
    categories: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.amounts)

    def __eq__(self, other):
        if not isinstance(other, LossTable):
            return NotImplemented
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if isinstance(mine, np.ndarray):
                if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    @classmethod
    def from_records(cls, records: list[LossRecord]) -> LossTable:
        """Columnar copy of ``records``; labels are kept exactly as given."""
        events: dict[str, int] = {}
        categories: dict[str, int] = {}

        def code(labels: dict[str, int], label: str | None) -> int:
            return -1 if label is None else labels.setdefault(label, len(labels))

        event_codes = [code(events, r.event_id) for r in records]
        category_codes = [code(categories, r.category) for r in records]
        return _table([r.amount for r in records], [r.date.toordinal() for r in records],
                      event_codes, events, category_codes, categories)


def _table(amounts, days, event_codes, events, category_codes, categories) -> LossTable:
    return LossTable(
        amounts=np.asarray(amounts, dtype=np.float64),
        days=np.asarray(days, dtype=np.int64),
        event_codes=np.asarray(event_codes, dtype=np.int64),
        event_ids=tuple(events),
        category_codes=np.asarray(category_codes, dtype=np.int64),
        categories=tuple(categories),
    )


@dataclass(frozen=True)
class AggregatedLossSet:
    """Aggregated losses (mEUR) with their observation span.

    ``losses`` is kept as a tuple of floats, whatever sequence is given, so a
    set compares and hashes by value.  It is checked by ``dist``'s loss-sample
    rule with a least count of 1: a set of one loss is legal (the fits ask
    for 2), and a NaN, infinite, zero or negative loss is refused at
    construction.  ``span_years`` is checked by the positive-number rule.
    """

    losses: tuple[float, ...]
    span_years: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "losses", tuple(_require_losses(self.losses, least=1).tolist()))
        _positive_fields(self, "span_years")


@contextmanager
def _text(source):
    """A text stream over ``source``; a path is opened (and closed) here, dropping a UTF-8 byte-order mark.

    Text that does not decode raises :class:`LossCsvError`: ``line N: not UTF-8 text`` for a path, N being the
    line of the first bad byte, and only ``not UTF-8 text`` for a text stream the caller opened.
    """
    path = isinstance(source, (str, Path))
    if not path and not isinstance(source, io.TextIOBase):
        raise TypeError(f"expected a path or text stream, got {type(source)!r}")
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") if path else nullcontext(source) as handle:
            yield handle
    except UnicodeDecodeError:
        raise LossCsvError([f"line {_first_bad_line(source)}: not UTF-8 text" if path else "not UTF-8 text"]) from None


def _first_bad_line(path) -> int:
    """The line of ``path`` that holds its first byte that is not UTF-8; a line ends at LF, CR LF or CR.
    No UTF-8 sequence holds an LF byte, so each LF-ended piece decodes on its own."""
    lineno = 1
    with open(path, "rb") as fh:
        for line in fh:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return lineno + line.count(b"\r", 0, exc.start)
            lineno += line.endswith(b"\n") + line.count(b"\r") - line.endswith(b"\r\n")
    return lineno


class _Days(dict):
    """Field text -> day ordinal of the stripped ISO-8601 date, parsed once per distinct text.

    ``__getitem__`` is the converter: a hit never leaves C.
    """

    def __missing__(self, text: str) -> int:
        day = self[text] = date.fromisoformat(text.strip()).toordinal()
        return day


class _Codes(dict):
    """Field text -> int code of the stripped label, -1 if it is empty.

    ``__getitem__`` is the converter.  Codes are numbered in order of
    first appearance, and the key order of ``labels`` is the label
    list.  A label outside ``allowed`` raises ``ValueError``.
    """

    def __init__(self, allowed: frozenset[str] | None = None):
        super().__init__()
        self.allowed = allowed
        self.labels: dict[str, int] = {}

    def __missing__(self, text: str) -> int:
        label = text.strip()
        if not label:
            code = -1
        elif self.allowed is not None and label not in self.allowed:
            raise ValueError(f"unknown Basel category {label!r}")
        else:
            code = self.labels.setdefault(label, len(self.labels))
        self[text] = code
        return code


def _rows(reader, problems: list[str]):
    """``(line number, row)`` after the header; a ``csv.Error`` ends the rows with one more problem."""
    try:
        yield from enumerate(reader, start=2)
    except csv.Error as exc:
        problems.append(f"line {reader.line_num}: {exc}")


def _amount_rows(reader, problems: list[str]):
    """``(line number, row, amount)`` of each row after the header that is not blank and whose first
    field is an amount, finite and > 0; every other row that is not blank adds its problem.  This is the one
    amount rule of the row loop and of :func:`parse_pre_aggregated`."""
    for lineno, row in _rows(reader, problems):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            amount = float(row[0])
        except ValueError:
            problems.append(f"line {lineno}: bad amount {row[0]!r}")
            continue
        if math.isfinite(amount) and amount > 0.0:
            yield lineno, row, amount
        else:
            problems.append(f"line {lineno}: amount must be > 0, got {row[0]!r}")


def _header(reader) -> list[str]:
    """The header row; :class:`LossCsvError` if the file is empty or ``csv`` cannot read it."""
    problems: list[str] = []
    for _, header in _rows(reader, problems):
        return header
    raise LossCsvError(problems or ["line 1: empty file"])


def _header_width(reader, permissive: bool) -> int:
    """Check the header row; return how many schema columns it names (2-4)."""
    header = [h.strip() for h in _header(reader)]
    expected = ["amount", "date", "event_id", "category"]
    if header[: len(expected)] != expected[: len(header)] or len(header) < 2:
        raise LossCsvError(
            [f"line 1: header must start 'amount,date[,event_id[,category]]', got {','.join(header)!r}"]
        )
    if len(header) > 4 and not permissive:
        extra = ",".join(header[4:])
        raise LossCsvError([f"line 1: unknown columns {extra!r} (pass permissive=True to ignore)"])
    return min(len(header), 4)


def _coded(column: np.ndarray, convert) -> np.ndarray:
    """``convert`` of each bytes field's text, called once per distinct field in order of first appearance."""
    if column.view(np.uint8).reshape(-1, _FIELD_BYTES)[:, -1].any():
        raise ValueError(f"a field fills all {_FIELD_BYTES} bytes and may have been cut short")
    words = column.view(np.uint64)
    _, inverse = np.unique(words.reshape(-1, len(_WORD_WEIGHTS)) @ _WORD_WEIGHTS, return_inverse=True)
    # Each group's first row; np.unique's return_index would take a stable sort, about 3x slower here.
    first = np.full(inverse.max(initial=-1) + 1, len(column))
    np.minimum.at(first, inverse, np.arange(len(column)))
    if not np.array_equal(column[first[inverse]].view(np.uint64), words):
        raise ValueError("two different fields share a key")
    order = np.argsort(first)
    codes = np.empty(len(first), dtype=np.int64)
    codes[order] = [convert(raw.decode("latin-1")) for raw in column[first[order]].tolist()]
    return codes[inverse]


def _tokenized(handle, start: int, width: int) -> LossTable:
    """Rows after the header through numpy's C tokenizer, ``_BLOCK_ROWS`` at a time; ``ValueError`` on any
    row it refuses or that the row loop may read differently.

    Amounts are numpy's float64.  The other fields are read as Latin-1 bytes, and the row loop's converters
    read each distinct field once.  Fields past the ``width`` schema columns are ignored, as the row loop
    ignores them.  The text from ``start`` is then scanned for ``_MISREAD`` characters.
    """
    events, categories = _Codes(), _Codes(BASEL_CATEGORIES)
    converters = (_Days().__getitem__, events.__getitem__, categories.__getitem__)
    names = ("day", "event", "category")[: width - 1]
    dtype = np.dtype([("amount", np.float64)] + [(name, f"S{_FIELD_BYTES}") for name in names])
    blocks = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
        # numpy reads the handle line by line, so each call starts at the row after the last one read.
        while not blocks or len(blocks[-1][0]) == _BLOCK_ROWS:
            rows = np.loadtxt(handle, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                              usecols=range(width), ndmin=1, max_rows=_BLOCK_ROWS)
            amounts = rows["amount"].copy()
            if not np.all((amounts > 0.0) & (amounts < np.inf)):
                raise ValueError("amounts must be finite and > 0")
            coded = [_coded(np.ascontiguousarray(rows[name]), convert) for name, convert in zip(names, converters)]
            blocks.append([amounts, *coded])
    handle.seek(start)
    for chunk in iter(lambda: handle.read(_CHUNK_CHARS), ""):
        if any(char in chunk for char in _MISREAD):
            raise ValueError("the input holds a character numpy reads differently")
    columns = [np.concatenate(column) for column in zip(*blocks)]
    columns += [np.full(len(columns[0]), -1, dtype=np.int64)] * (4 - width)
    return _table(columns[0], columns[1], columns[2], events.labels, columns[3], categories.labels)


def _row_loop(reader, width: int) -> LossTable:
    """Rows after the header, one ``csv.reader`` row at a time, collecting every bad line."""
    days_of, events, categories = _Days(), _Codes(), _Codes(BASEL_CATEGORIES)
    amounts: list[float] = []
    days: list[int] = []
    event_codes: list[int] = []
    category_codes: list[int] = []
    problems: list[str] = []
    for lineno, row, amount in _amount_rows(reader, problems):
        row = (row[:width] + [""] * 4)[:4]
        try:
            day = days_of[row[1]]
        except ValueError:
            problems.append(f"line {lineno}: bad ISO-8601 date {row[1]!r}")
            continue
        try:
            category = categories[row[3]]
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        amounts.append(amount)
        days.append(day)
        event_codes.append(events[row[2]])
        category_codes.append(category)
    if problems:
        raise LossCsvError(problems)
    return _table(amounts, days, event_codes, events.labels, category_codes, categories.labels)


def parse_csv(source, permissive: bool = False) -> LossTable:
    """Read raw loss payments; raises :class:`LossCsvError` listing every bad line."""
    with _text(source) as handle:
        start = handle.tell() if handle.seekable() else None
        reader = csv.reader(handle)
        width = _header_width(reader, permissive)
        if start is not None:
            try:
                return _tokenized(handle, start, width)
            except UnicodeDecodeError:
                raise  # the row loop would decode the file again only to fail on the same byte
            except ValueError:
                handle.seek(start)
                reader = csv.reader(handle)
                next(reader)
        return _row_loop(reader, width)


def parse_pre_aggregated(source) -> list[float]:
    """Read a one-column 'amount' CSV of already-aggregated losses, one field per row."""
    with _text(source) as handle:
        reader = csv.reader(handle)
        header = _header(reader)
        if [h.strip() for h in header] != ["amount"]:
            raise LossCsvError([f"line 1: pre-aggregated header must be 'amount', got {','.join(header)!r}"])
        amounts: list[float] = []
        problems: list[str] = []
        for lineno, row, amount in _amount_rows(reader, problems):
            if len(row) > 1:
                problems.append(f"line {lineno}: expected 1 field (amount), got {len(row)}")
            else:
                amounts.append(amount)
        if problems:
            raise LossCsvError(problems)
        return amounts


def write_csv(losses: LossTable | list[LossRecord], destination) -> None:
    """Serialize payments in the input schema (inverse of :func:`parse_csv`)."""
    table = losses if isinstance(losses, LossTable) else LossTable.from_records(losses)
    # Code -1 (missing) indexes the trailing empty label.
    event_ids = table.event_ids + ("",)
    categories = table.categories + ("",)
    own = isinstance(destination, (str, Path))
    handle = open(destination, "w", encoding="utf-8", newline="") if own else destination
    try:
        writer = csv.writer(handle)
        writer.writerow(["amount", "date", "event_id", "category"])
        columns = (table.amounts, table.days, table.event_codes, table.category_codes)
        for amount, day, event, category in zip(*(column.tolist() for column in columns)):
            when = date.fromordinal(day).isoformat()
            writer.writerow([repr(amount), when, event_ids[event], categories[category]])
    finally:
        if own:
            handle.close()


def _period_keys(days: np.ndarray, granularity: str) -> np.ndarray:
    """Integer keys that order like (year, month), (year, quarter) or (year,)."""
    if granularity not in ("month", "quarter", "year"):
        raise ValueError(f"granularity must be month, quarter, or year, got {granularity!r}")
    months = (days - _EPOCH_ORDINAL).astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    return months // {"month": 1, "quarter": 3, "year": 12}[granularity]


def span_years_of(table: LossTable) -> float:
    days = int(table.days.max() - table.days.min())
    return max(days / _DAYS_PER_YEAR, _MIN_SPAN_YEARS)


def aggregate(table: LossTable | list[LossRecord], mode: str, label: str = "") -> AggregatedLossSet:
    """Aggregate raw payments by originating event or by accounting period.

    ``mode`` is ``"event"`` or ``"period:<month|quarter|year>"``.  Losses
    are listed in sorted key order (event id, or period).  The span
    defaults to the payment date range (floor one day).  A list of
    :class:`LossRecord` is converted with :meth:`LossTable.from_records`.
    """
    if not isinstance(table, LossTable):
        table = LossTable.from_records(table)
    if len(table) == 0:
        raise ValueError("no records to aggregate")

    if mode == "event":
        missing = int(np.count_nonzero(table.event_codes < 0))
        if missing:
            raise ValueError(
                f"event aggregation requires event_id on every record; missing on {missing} record(s)"
            )
        rank = np.empty(len(table.event_ids), dtype=np.int64)
        rank[sorted(range(len(table.event_ids)), key=table.event_ids.__getitem__)] = np.arange(len(rank))
        keys = rank[table.event_codes]
    elif mode.startswith("period:"):
        keys = _period_keys(table.days, mode.split(":", 1)[1])
    else:
        raise ValueError(f"mode must be 'event' or 'period:<granularity>', got {mode!r}")

    keys = keys - keys.min()
    # The narrowest unsigned dtype lets the stable argsort radix-sort 8- and 16-bit keys.
    keys = keys.astype(np.min_scalar_type(keys.max()))
    sizes = np.bincount(keys)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    amounts = table.amounts[np.argsort(keys, kind="stable")].tolist()
    sums = [math.fsum(amounts[lo:hi]) for lo, hi in zip([0, *ends[:-1]], ends)]

    return AggregatedLossSet(losses=sums, span_years=span_years_of(table), label=label)


class LossSummary(NamedTuple):
    count: int
    total: float
    minimum: float
    maximum: float
    mean: float


def summary(loss_set: AggregatedLossSet) -> LossSummary:
    """Count, sum, min, max, mean of the aggregated losses."""
    values = loss_set.losses
    total = math.fsum(values)
    return LossSummary(
        count=len(values),
        total=total,
        minimum=min(values),
        maximum=max(values),
        mean=total / len(values),
    )
