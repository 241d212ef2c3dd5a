"""Loading, validation and merging of quote series and expert label files.

Two CSV layouts are understood, both UTF-8 with a header row, ISO dates and
a plain decimal point:

* quotes:  ``date,open,high,low,close,volume,stockname``
* labels:  ``date,stockname,id_select,type,username`` with
  ``type in {Trend, Flat, N/A}``; the five quote columns may additionally be
  present, in which case they are cross-checked against already-loaded quotes.

Every JSON artifact goes through ``_write_json``/``_read_json``, at the bottom of the imports.
"""

from __future__ import annotations

import csv
import json
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Sequence

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


def _days(dates: Sequence[Date]) -> np.ndarray:
    """Day numbers of dates (their ordinals), for vectorised order tests."""
    return np.fromiter(map(Date.toordinal, dates), np.int64, len(dates))


class QuoteSeries:
    """Date-sorted daily quotes of one stock, stored as read-only columns.

    The dates and the five float64 columns of ``OHLCV_COLUMNS`` are fixed at
    construction: ``dates`` and ``column`` hand out the stored objects without
    copying, and ``series[i:j]`` is a series whose columns are views of this
    one's. Construction does not validate the quotes; ``validate`` does.
    """

    __slots__ = ("stockname", "_dates", "_columns", "_index")

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
        columns = {}
        for name, values in zip(OHLCV_COLUMNS, (open, high, low, close, volume)):
            array = np.array(values, dtype=np.float64)
            array.flags.writeable = False
            columns[name] = array
        self._init(stockname, tuple(dates), columns)

    def _init(self, stockname: str, dates: tuple[Date, ...], columns: dict) -> None:
        if any(col.shape != (len(dates),) for col in columns.values()):
            raise InvariantError(f"{stockname}: quote columns disagree in length")
        self.stockname = stockname
        self._dates = dates
        self._columns = columns
        self._index = {d: i for i, d in enumerate(dates)}

    def __len__(self) -> int:
        return len(self._dates)

    def __getitem__(self, rows: slice) -> "QuoteSeries":
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("a QuoteSeries is indexed by a contiguous slice only")
        view = object.__new__(QuoteSeries)
        view._init(
            self.stockname,
            self._dates[rows],
            {name: col[rows] for name, col in self._columns.items()},
        )
        return view

    @property
    def dates(self) -> tuple[Date, ...]:
        return self._dates

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    @property
    def closes(self) -> np.ndarray:
        return self.column("close")

    @property
    def volumes(self) -> np.ndarray:
        return self.column("volume")

    def index_of(self, d: Date) -> int:
        try:
            return self._index[d]
        except KeyError:
            raise InvariantError(f"{self.stockname}: no quote for {d}") from None

    def validate(self) -> None:
        """Check every row, then the date order; the first bad row is reported."""
        columns = [self._columns[name] for name in OHLCV_COLUMNS]
        o, h, lo, c, v = columns
        finite = np.logical_and.reduce([np.isfinite(col) for col in columns])
        nonpositive = np.minimum(np.minimum(o, h), np.minimum(lo, c)) <= 0.0
        misordered = (lo > np.minimum(o, c)) | (np.maximum(o, c) > h)
        bad = np.flatnonzero(~finite | nonpositive | (v < 0.0) | misordered)
        if bad.size:
            i = int(bad[0])
            d = self._dates[i]
            if not finite[i]:
                raise InvariantError(f"{self.stockname}: non-finite quote on {d}")
            if nonpositive[i]:
                raise InvariantError(f"non-positive price on {d}")
            if v[i] < 0.0:
                raise InvariantError(f"negative volume on {d}")
            raise InvariantError(
                f"OHLC ordering violated on {d}: "
                f"open={float(o[i])} high={float(h[i])} low={float(lo[i])} close={float(c[i])}"
            )
        days = _days(self._dates)
        unordered = np.flatnonzero(days[1:] <= days[:-1])
        if unordered.size:
            raise DuplicateDateError(
                f"{self.stockname}: dates not strictly increasing at "
                f"{self._dates[int(unordered[0]) + 1]}"
            )


class LabelSeries:
    """One expert's labels of one stock, stored as read-only columns.

    ``dates`` is a tuple of strictly increasing dates; ``id_select`` (int64)
    and ``trend`` (bool, false for Flat) are read-only arrays with one entry
    per date. A window is a run of equal ``id_select``. N/A labels are
    loaded as Flat.
    """

    __slots__ = ("stockname", "expert", "dates", "id_select", "trend")

    def __init__(
        self,
        stockname: str,
        expert: str,
        dates: Sequence[Date],
        id_select: Sequence[int],
        trend: Sequence[bool],
    ) -> None:
        self.stockname = stockname
        self.expert = expert
        self.dates = tuple(dates)
        self.id_select = np.array(id_select, dtype=np.int64)
        self.trend = np.array(trend, dtype=bool)
        for column in (self.id_select, self.trend):
            column.flags.writeable = False
            if column.shape != (len(self.dates),):
                raise InvariantError(f"{stockname}/{expert}: label columns disagree in length")
        days = _days(self.dates)
        if np.any(days[1:] <= days[:-1]):
            raise InvariantError(f"{stockname}/{expert}: label dates not strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)


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


def load_quotes(path: str | Path) -> QuoteSeries:
    """Load one stock's quotes, sort by date and validate every invariant."""
    path = Path(path)
    positions, rows, lines = _read_rows(path, QUOTE_COLUMNS)
    at_date, at_name = positions["date"], positions["stockname"]
    at_values = [positions[c] for c in OHLCV_COLUMNS]
    dates: list[Date] = []
    columns: list[list[float]] = [[] for _ in OHLCV_COLUMNS]
    stockname: str | None = None
    for line, row in zip(lines, rows):
        name = row[at_name].strip()
        if stockname is None:
            stockname = name
        elif name != stockname:
            raise InvariantError(f"{path}:{line}: mixed stocknames {stockname!r}/{name!r}")
        dates.append(_parse_date(row[at_date], path, line))
        for values, at, c in zip(columns, at_values, OHLCV_COLUMNS):
            values.append(_parse_float(row[at], path, line, c))
    if stockname is None:
        raise ParseError(f"{path}: no data rows")
    series = QuoteSeries(stockname, dates, *columns)
    try:
        series.validate()
    except DuplicateDateError:
        # every row is valid but the file is not in date order: sort it
        order = sorted(range(len(dates)), key=dates.__getitem__)
        for prev, cur in zip(order, order[1:]):
            if dates[cur] == dates[prev]:
                raise DuplicateDateError(f"{path}: two rows for {dates[cur]}") from None
        series = QuoteSeries(
            stockname, [dates[i] for i in order], *(series.column(c)[order] for c in OHLCV_COLUMNS)
        )
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
        for d, o, h, lo, c, v in zip(series.dates, *columns):
            writer.writerow(
                [d.isoformat(), repr(o), repr(h), repr(lo), repr(c), _format_number(v), series.stockname]
            )


def _parse_trend(raw: str, path: Path, line: int) -> bool:
    value = raw.strip()
    if value not in (TREND, FLAT, "N/A"):
        raise ParseError(f"{path}:{line}: unknown tendency {value!r}")
    return value == TREND


def _read_labels(
    path: Path,
) -> tuple[str, str, list[Date], list[int], list[bool], np.ndarray | None]:
    """One label file's rows in file order, plus its embedded quotes if it has any."""
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
    return stockname, expert, dates, ids, trend, embedded


def _label_series(
    stockname: str,
    expert: str,
    dates: Sequence[Date],
    id_select: Sequence[int],
    trend: Sequence[bool],
    path: Path,
) -> LabelSeries:
    """Sort label rows by date and drop exact repeats; a date labelled twice differently raises."""
    days = _days(dates)
    order = np.argsort(days, kind="stable")
    days = days[order]
    ids = np.asarray(id_select, dtype=np.int64)[order]
    flags = np.asarray(trend, dtype=bool)[order]
    repeat = np.flatnonzero(days[1:] == days[:-1]) + 1
    clash = repeat[(ids[repeat] != ids[repeat - 1]) | (flags[repeat] != flags[repeat - 1])]
    if clash.size:
        raise InvariantError(
            f"{path}: expert {expert} labels {dates[order[clash[0]]]}/{stockname} twice"
        )
    keep = np.ones(len(days), dtype=bool)
    keep[repeat] = False
    return LabelSeries(
        stockname, expert, [dates[i] for i in order[keep]], ids[keep], flags[keep]
    )


def save_labels(labels: LabelSeries, path: str | Path) -> None:
    """Write a label CSV that loads back as the same series."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(LABEL_COLUMNS)
        writer.writerows(
            (d.isoformat(), labels.stockname, i, TREND if t else FLAT, labels.expert)
            for d, i, t in zip(labels.dates, labels.id_select.tolist(), labels.trend.tolist())
        )


def _last_per_day(days: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct days in order, each with the values of its last row."""
    last = len(days) - 1 - np.unique(days[::-1], return_index=True)[1]
    return days[last], values[last]


def merge_label_files(
    paths: Sequence[str | Path],
    quotes: Iterable[QuoteSeries] | None = None,
) -> dict[tuple[str, str], LabelSeries]:
    """Merge label files into one series per (stockname, expert).

    Each file must carry a single (stockname, expert). Exact duplicate rows
    are dropped; a date one expert labels twice differently raises
    ``InvariantError``, and so does a file whose stock is not in ``quotes``,
    when ``quotes`` is given. A file is a defect, rejected with
    ``DefectFileError``, when one of its embedded quotes contradicts the quote
    already registered for the same date and stock, either from ``quotes`` or
    from an earlier file.
    """
    # stockname -> (distinct days, OHLCV rows); a later row of a day wins
    registry: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def register(stockname: str, days: np.ndarray, values: np.ndarray) -> None:
        if stockname in registry:
            known_days, known_values = registry[stockname]
            days = np.concatenate([known_days, days])
            values = np.concatenate([known_values, values])
        registry[stockname] = _last_per_day(days, values)

    quoted = None if quotes is None else set()
    for series in quotes or ():
        quoted.add(series.stockname)
        if len(series):
            columns = [series.column(c) for c in OHLCV_COLUMNS]
            register(series.stockname, _days(series.dates), np.column_stack(columns))

    merged: dict[tuple[str, str], LabelSeries] = {}
    for raw_path in paths:
        path = Path(raw_path)
        stockname, expert, dates, ids, trend, embedded = _read_labels(path)
        if quoted is not None and stockname not in quoted:
            raise InvariantError(f"{path}: labels stock {stockname}, which has no quotes")
        if embedded is not None:
            days, values = _last_per_day(_days(dates), embedded)
            if stockname in registry:
                known_days, known_values = registry[stockname]
                at = np.minimum(np.searchsorted(known_days, days), len(known_days) - 1)
                clash = (known_days[at] == days) & np.any(known_values[at] != values, axis=1)
                if clash.any():
                    day = Date.fromordinal(int(days[np.argmax(clash)]))
                    raise DefectFileError(
                        f"{path}: quotes for {day}/{stockname} contradict "
                        "already-loaded quotes; file rejected"
                    )
            register(stockname, days, values)
        key = (stockname, expert)
        if key in merged:
            earlier = merged[key]
            dates = [*earlier.dates, *dates]
            ids = np.concatenate([earlier.id_select, ids])
            trend = np.concatenate([earlier.trend, trend])
        merged[key] = _label_series(stockname, expert, dates, ids, trend, path)
    return merged
