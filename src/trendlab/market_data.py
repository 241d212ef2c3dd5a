"""Loading, validation and merging of quote series and expert label files.

Two CSV layouts are understood, both UTF-8 with a header row, ISO dates and
a plain decimal point:

* quotes:  ``date,open,high,low,close,volume,stockname``
* labels:  ``date,stockname,id_select,type,username`` with
  ``type in {Trend, Flat, N/A}``; the five quote columns may additionally be
  present, in which case they are cross-checked against each other and against
  already-loaded quotes.

Every JSON artifact goes through ``_write_json``/``_read_json``, at the bottom of the imports,
and every CSV reader iterates under ``_csv_errors``.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import (
    DefectFileError,
    DuplicateDateError,
    InvariantError,
    ParseError,
)

QUOTE_COLUMNS = ("date", "open", "high", "low", "close", "volume", "stockname")
LABEL_COLUMNS = ("date", "stockname", "id_select", "type", "username")
OHLCV_COLUMNS = ("open", "high", "low", "close", "volume")

TREND = "Trend"
FLAT = "Flat"


def _write_json(doc: dict, path: str | Path) -> None:
    """Write ``doc`` as every JSON artifact is written: sorted keys, one-space indent, UTF-8."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")


def _read_json(path: str | Path) -> dict:
    """The JSON object in ``path``; ``ParseError`` naming the file when it holds none."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError:  # not UTF-8 or not JSON
        raise ParseError(f"{path}: not JSON") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON object")
    return doc


@contextmanager
def _csv_errors(path: Path, reader: Iterator[list[str]]) -> Iterator[None]:
    """``ParseError`` naming ``path`` for text ``reader`` meets that is not UTF-8 or not CSV.

    A decode error comes from a block of the file, so it names no line.
    """
    try:
        yield
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # a NUL byte on Python 3.10, or a field over the size limit
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


# A day is a date's ordinal (``date.toordinal``) as an int64. The helpers below
# are the only places a date becomes a day, or a day a date or text again.
_day, _date = Date.toordinal, Date.fromordinal
_EPOCH = _day(Date(1970, 1, 1))  # day 0 of numpy's datetime64


def _days(dates: Iterable[Date]) -> np.ndarray:
    """The day numbers of ``dates``, as an int64 array."""
    return np.fromiter(map(_day, dates), np.int64)


def _day_text(days: np.ndarray) -> list[str]:
    """Each day's date as ``YYYY-MM-DD``, the text ``date.isoformat`` gives."""
    return np.datetime_as_string((days - _EPOCH).astype("datetime64[D]")).tolist()


def _unordered_at(days: np.ndarray) -> Date | None:
    """The date of the first day that does not come after the one before it, if any."""
    late = np.flatnonzero(days[1:] <= days[:-1])
    return _date(days[late[0] + 1]) if late.size else None


def _of_days(cls: type, *fields: object):
    """A ``QuoteSeries`` or ``LabelSeries`` over int64 days, from arrays it keeps uncopied."""
    made = object.__new__(cls)
    made._init(*fields)
    return made


class QuoteSeries:
    """Date-sorted daily quotes of one stock, stored as read-only columns.

    ``days`` (int64 day numbers, ``date.toordinal``) and the five float64
    columns of ``OHLCV_COLUMNS`` are fixed at construction: ``days`` and
    ``column`` hand out the stored arrays without copying, and ``series[i:j]``
    is a series whose columns are views of this one's. ``rows_of`` finds the
    rows of days. Construction does not validate the quotes; ``validate`` does.
    """

    __slots__ = ("stockname", "_ordinals", "_columns")

    def __init__(
        self,
        stockname: str,
        dates: Sequence[Date],
        open: Sequence[float],
        high: Sequence[float],
        low: Sequence[float],
        close: Sequence[float],
        volume: Sequence[float],
    ) -> None:
        values = (open, high, low, close, volume)
        columns = {name: np.array(v, dtype=np.float64) for name, v in zip(OHLCV_COLUMNS, values)}
        self._init(stockname, _days(dates), columns)

    def _init(self, stockname: str, days: np.ndarray, columns: dict) -> None:
        for array in (days, *columns.values()):
            array.flags.writeable = False
        if any(col.shape != days.shape for col in columns.values()):
            raise InvariantError(f"{stockname}: quote columns disagree in length")
        self.stockname = stockname
        self._ordinals = days
        self._columns = columns

    def __len__(self) -> int:
        return len(self._ordinals)

    def __getitem__(self, rows: slice) -> "QuoteSeries":
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("a QuoteSeries is indexed by a contiguous slice only")
        columns = {name: col[rows] for name, col in self._columns.items()}
        return _of_days(QuoteSeries, self.stockname, self._ordinals[rows], columns)

    @property
    def days(self) -> np.ndarray:
        return self._ordinals

    @property
    def dates(self) -> tuple[Date, ...]:
        """The dates of ``days``, made on each call."""
        return tuple(map(_date, self._ordinals.tolist()))

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    @property
    def closes(self) -> np.ndarray:
        return self.column("close")

    @property
    def volumes(self) -> np.ndarray:
        return self.column("volume")

    def rows_of(self, days: Sequence[int] | np.ndarray) -> np.ndarray:
        """The row of each of ``days``; ``InvariantError`` naming the stock on a day it lacks."""
        days = np.asarray(days, dtype=np.int64)
        missing = days[~np.isin(days, self._ordinals)]
        if missing.size:
            raise InvariantError(f"{self.stockname}: no quote for {_date(missing[0])}")
        return np.searchsorted(self._ordinals, days)

    def validate(self) -> None:
        """Check every row, then the day order; the first bad row is reported."""
        columns = [self._columns[name] for name in OHLCV_COLUMNS]
        o, h, lo, c, v = columns
        finite = np.logical_and.reduce([np.isfinite(col) for col in columns])
        nonpositive = np.minimum(np.minimum(o, h), np.minimum(lo, c)) <= 0.0
        misordered = (lo > np.minimum(o, c)) | (np.maximum(o, c) > h)
        bad = np.flatnonzero(~finite | nonpositive | (v < 0.0) | misordered)
        if bad.size:
            i = int(bad[0])
            name, d = self.stockname, _date(self._ordinals[i])
            if not finite[i]:
                raise InvariantError(f"{name}: non-finite quote on {d}")
            if nonpositive[i]:
                raise InvariantError(f"{name}: non-positive price on {d}")
            if v[i] < 0.0:
                raise InvariantError(f"{name}: negative volume on {d}")
            raise InvariantError(
                f"{name}: OHLC ordering violated on {d}: "
                f"open={float(o[i])} high={float(h[i])} low={float(lo[i])} close={float(c[i])}"
            )
        unordered = _unordered_at(self._ordinals)
        if unordered:
            raise DuplicateDateError(
                f"{self.stockname}: dates not strictly increasing at {unordered}"
            )


class LabelSeries:
    """One expert's labels of one stock, stored as read-only columns.

    ``days`` holds strictly increasing int64 day numbers (``date.toordinal``);
    ``id_select`` (int64) and ``trend`` (bool, false for Flat) are read-only
    arrays with one entry per day. A window is a run of equal ``id_select``.
    N/A labels are loaded as Flat.
    """

    __slots__ = ("stockname", "expert", "days", "id_select", "trend")

    def __init__(
        self,
        stockname: str,
        expert: str,
        dates: Sequence[Date],
        id_select: Sequence[int],
        trend: Sequence[bool],
    ) -> None:
        columns = np.array(id_select, dtype=np.int64), np.array(trend, dtype=bool)
        self._init(stockname, expert, _days(dates), *columns)

    def _init(self, stockname: str, expert: str, *columns: np.ndarray) -> None:
        """Keep ``columns``, the days, ids and trend flags, as read-only arrays."""
        days, self.id_select, self.trend = columns
        for column in columns:
            column.flags.writeable = False
            if column.shape != days.shape:
                raise InvariantError(f"{stockname}/{expert}: label columns disagree in length")
        unordered = _unordered_at(days)
        if unordered:
            raise InvariantError(
                f"{stockname}/{expert}: label dates not strictly increasing at {unordered}"
            )
        self.stockname, self.expert, self.days = stockname, expert, days

    def __len__(self) -> int:
        return len(self.days)

    @property
    def dates(self) -> tuple[Date, ...]:
        """The dates of ``days``, made on each call."""
        return tuple(map(_date, self.days.tolist()))


def _parse_date(raw: str, path: Path, line: int) -> Date:
    try:
        return Date.fromisoformat(raw.strip())
    except ValueError:
        raise ParseError(f"{path}:{line}: bad date {raw!r}") from None


def _parse_float(raw: str, path: Path, line: int, col: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"{path}:{line}: bad {col} value {raw!r}") from None


def _read_rows(
    path: Path, required: Sequence[str]
) -> tuple[dict[str, int], list[list[str]], list[int]]:
    """Column positions by name, the non-blank data rows of a CSV file and their lines.

    A row's line is the file line it ends on, so blank lines still count.
    Every ``required`` column must be in the header and no row may have
    fewer fields than the header.
    """
    rows: list[list[str]] = []
    lines: list[int] = []
    # two lists, not a (line, row) tuple per row: each tuple would be one more
    # object for the garbage collector, and the reads were slower with them
    add_row, add_line = rows.append, lines.append
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        with _csv_errors(path, reader):
            header = next(reader, None) or []
            for row in reader:
                if row:
                    add_row(row)
                    add_line(reader.line_num)
    positions = {name: i for i, name in enumerate(header)}
    missing = [c for c in required if c not in positions]
    if missing:
        raise ParseError(f"{path}: missing columns {missing}")
    for line, row in zip(lines, rows):
        if len(row) < len(header):
            raise ParseError(f"{path}:{line}: {len(row)} fields, the header has {len(header)}")
    return positions, rows, lines


def _raise_first_bad_quote_row(
    path: Path, positions: dict[str, int], rows: list[list[str]], lines: list[int]
) -> NoReturn:
    """Raise the error of the first bad row of a quotes file, in file order.

    A row's stockname is checked first, then its date, then its values in
    ``OHLCV_COLUMNS`` order.
    """
    at_date, at_name = positions["date"], positions["stockname"]
    at_values = [positions[c] for c in OHLCV_COLUMNS]
    stockname = rows[0][at_name].strip()
    for line, row in zip(lines, rows):
        name = row[at_name].strip()
        if name != stockname:
            raise InvariantError(f"{path}:{line}: mixed stocknames {stockname!r}/{name!r}")
        _parse_date(row[at_date], path, line)
        for at, c in zip(at_values, OHLCV_COLUMNS):
            _parse_float(row[at], path, line, c)
    raise AssertionError(f"{path}: no bad row")


def load_quotes(path: str | Path) -> QuoteSeries:
    """Load one stock's quotes, sort by date and validate every invariant.

    Each column is parsed in one pass over its cells. When a cell is bad the
    rows are read again, one at a time, for the first bad row in file order.
    """
    path = Path(path)
    positions, rows, lines = _read_rows(path, QUOTE_COLUMNS)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    cells = list(zip(*rows))
    names = {name.strip() for name in set(cells[positions["stockname"]])}
    if len(names) > 1:
        _raise_first_bad_quote_row(path, positions, rows, lines)
    (stockname,) = names
    try:
        days = _days(map(Date.fromisoformat, map(str.strip, cells[positions["date"]])))
        columns = {
            c: np.array(list(map(float, cells[positions[c]])), dtype=np.float64)
            for c in OHLCV_COLUMNS
        }
    except ValueError:
        _raise_first_bad_quote_row(path, positions, rows, lines)
    series = _of_days(QuoteSeries, stockname, days, columns)
    try:
        series.validate()
    except DuplicateDateError:
        # every row is valid but the file is not in date order: sort it
        order = np.argsort(days, kind="stable")
        days = days[order]
        repeat = _unordered_at(days)  # in sorted days, the first repeat
        if repeat:
            raise DuplicateDateError(f"{path}: two rows for {repeat}") from None
        columns = {c: col[order] for c, col in columns.items()}
        series = _of_days(QuoteSeries, stockname, days, columns)
    except InvariantError as exc:
        raise InvariantError(f"{path}: {exc}") from None
    return series


def _format_number(value: float) -> str:
    # integral values print without a trailing ".0" so synth files stay tidy
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def save_quotes(series: QuoteSeries, path: str | Path) -> None:
    """Write a quotes CSV that loads back field-for-field identical."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(QUOTE_COLUMNS)
        columns = [series.column(c).tolist() for c in OHLCV_COLUMNS]
        for d, o, h, lo, c, v in zip(_day_text(series.days), *columns):
            writer.writerow(
                [d, repr(o), repr(h), repr(lo), repr(c), _format_number(v), series.stockname]
            )


def _parse_trend(raw: str, path: Path, line: int) -> bool:
    value = raw.strip()
    if value not in (TREND, FLAT, "N/A"):
        raise ParseError(f"{path}:{line}: unknown tendency {value!r}")
    return value == TREND


def _read_labels(
    path: Path,
) -> tuple[str, str, np.ndarray, list[int], list[bool], np.ndarray | None]:
    """One label file's days, ids and trend flags in file order, plus its embedded quotes if any."""
    positions, rows, lines = _read_rows(path, LABEL_COLUMNS)
    at_date, at_name, at_id, at_type, at_user = (positions[c] for c in LABEL_COLUMNS)
    has_quotes = all(c in positions for c in OHLCV_COLUMNS)
    at_quotes = [positions[c] for c in OHLCV_COLUMNS] if has_quotes else []
    dates: list[Date] = []
    ids: list[int] = []
    trend: list[bool] = []
    quotes: list[list[float]] = []
    stockname: str | None = None
    expert: str | None = None
    for line, row in zip(lines, rows):
        name = row[at_name].strip()
        user = row[at_user].strip()
        if stockname is None:
            stockname, expert = name, user
        elif name != stockname or user != expert:
            raise InvariantError(f"{path}:{line}: file mixes (stockname, expert) pairs")
        try:
            ids.append(int(row[at_id]))
        except ValueError:
            raise ParseError(f"{path}:{line}: bad id_select {row[at_id]!r}") from None
        dates.append(_parse_date(row[at_date], path, line))
        trend.append(_parse_trend(row[at_type], path, line))
        if has_quotes:
            quotes.append(
                [_parse_float(row[at], path, line, c) for at, c in zip(at_quotes, OHLCV_COLUMNS)]
            )
    if stockname is None or expert is None:
        raise ParseError(f"{path}: no data rows")
    embedded = np.array(quotes, dtype=np.float64) if has_quotes else None
    return stockname, expert, _days(dates), ids, trend, embedded


def _label_series(
    stockname: str,
    expert: str,
    days: np.ndarray,
    id_select: Sequence[int],
    trend: Sequence[bool],
    path: Path,
) -> LabelSeries:
    """Sort label rows by day and drop exact repeats; a day labelled twice differently raises."""
    order = np.argsort(days, kind="stable")
    days = days[order]
    ids = np.asarray(id_select, dtype=np.int64)[order]
    flags = np.asarray(trend, dtype=bool)[order]
    repeat = np.flatnonzero(days[1:] == days[:-1]) + 1
    clash = repeat[(ids[repeat] != ids[repeat - 1]) | (flags[repeat] != flags[repeat - 1])]
    if clash.size:
        raise InvariantError(
            f"{path}: expert {expert} labels {_date(days[clash[0]])}/{stockname} twice"
        )
    keep = np.ones(len(days), dtype=bool)
    keep[repeat] = False
    return _of_days(LabelSeries, stockname, expert, days[keep], ids[keep], flags[keep])


def save_labels(labels: LabelSeries, path: str | Path) -> None:
    """Write a label CSV that loads back as the same series."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(LABEL_COLUMNS)
        writer.writerows(
            (d, labels.stockname, i, TREND if t else FLAT, labels.expert)
            for d, i, t in zip(
                _day_text(labels.days), labels.id_select.tolist(), labels.trend.tolist()
            )
        )


def _one_row_per_day(days: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Distinct days in order, each with its first row's values, and the days with unlike rows."""
    order = np.argsort(days, kind="stable")
    days, values = days[order], values[order]
    repeat = days[1:] == days[:-1]
    keep = np.ones(len(days), dtype=bool)
    keep[1:] = ~repeat
    unlike = repeat & np.any(values[1:] != values[:-1], axis=1)
    return days[keep], values[keep], days[1:][unlike]


def merge_label_files(
    paths: Sequence[str | Path],
    quotes: Iterable[QuoteSeries] | None = None,
) -> dict[tuple[str, str], LabelSeries]:
    """Merge label files into one series per (stockname, expert).

    Each file must carry a single (stockname, expert). Exact duplicate rows
    are dropped; a date one expert labels twice differently raises
    ``InvariantError``, and so does a file whose stock is not in ``quotes``,
    when ``quotes`` is given. A file is a defect, rejected with
    ``DefectFileError``, when it embeds a quote for a date and stock that
    differs from another quote of that date and stock: one of its own, or one
    from ``quotes`` or an earlier file.
    """
    # stockname -> (distinct days, OHLCV rows) of every quote registered so far
    registry: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def register(stockname: str, days: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Add quote rows of one stock; the days on which two of its rows differ."""
        if stockname in registry:
            known_days, known_values = registry[stockname]
            days = np.concatenate([known_days, days])
            values = np.concatenate([known_values, values])
        days, values, unlike = _one_row_per_day(days, values)
        registry[stockname] = days, values
        return unlike

    quoted = None if quotes is None else set()
    for series in quotes or ():
        quoted.add(series.stockname)
        if len(series):
            columns = [series.column(c) for c in OHLCV_COLUMNS]
            register(series.stockname, series.days, np.column_stack(columns))

    merged: dict[tuple[str, str], LabelSeries] = {}
    for raw_path in paths:
        path = Path(raw_path)
        stockname, expert, label_days, ids, trend, embedded = _read_labels(path)
        if quoted is not None and stockname not in quoted:
            raise InvariantError(f"{path}: labels stock {stockname}, which has no quotes")
        if embedded is not None:
            unlike = register(stockname, label_days, embedded)
            if unlike.size:
                raise DefectFileError(
                    f"{path}: quotes for {_date(unlike[0])}/{stockname} differ from "
                    "each other or from already-loaded quotes; file rejected"
                )
        key = (stockname, expert)
        if key in merged:
            earlier = merged[key]
            label_days = np.concatenate([earlier.days, label_days])
            ids = np.concatenate([earlier.id_select, ids])
            trend = np.concatenate([earlier.trend, trend])
        merged[key] = _label_series(stockname, expert, label_days, ids, trend, path)
    return merged
