"""Loading, validation and merging of quote series and expert label files.

Two CSV layouts are understood, both UTF-8 with a header row, ISO dates and
a plain decimal point:

* quotes:  ``date,open,high,low,close,volume,stockname``
* labels:  ``date,stockname,id_select,type,username`` with
  ``type in {Trend, Flat, N/A}``; the five quote columns may additionally be
  present, in which case they are cross-checked against already-loaded quotes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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

    def has_date(self, d: Date) -> bool:
        return d in self._index

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
        days = np.array(self._dates, dtype="datetime64[D]")
        unordered = np.flatnonzero(days[1:] <= days[:-1])
        if unordered.size:
            raise DuplicateDateError(
                f"{self.stockname}: dates not strictly increasing at "
                f"{self._dates[int(unordered[0]) + 1]}"
            )


@dataclass(frozen=True)
class ExpertLabelRow:
    """One per-day expert label; N/A tendencies are mapped to Flat at load."""

    date: Date
    stockname: str
    id_select: int
    tendency: str
    expert: str


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


def _reader(path: Path, required: Sequence[str]) -> tuple[csv.DictReader, object]:
    handle = path.open(newline="", encoding="utf-8")
    reader = csv.DictReader(handle)
    missing = [c for c in required if reader.fieldnames is None or c not in reader.fieldnames]
    if missing:
        handle.close()
        raise ParseError(f"{path}: missing columns {missing}")
    return reader, handle


def load_quotes(path: str | Path, schema: Mapping[str, str] | None = None) -> QuoteSeries:
    """Load one stock's quotes, sort by date and validate every invariant.

    ``schema`` optionally maps the logical column names of ``QUOTE_COLUMNS``
    to the actual header names in the file.
    """
    path = Path(path)
    colmap = {c: c for c in QUOTE_COLUMNS}
    if schema:
        colmap.update(schema)
    reader, handle = _reader(path, [colmap[c] for c in QUOTE_COLUMNS])
    dates: list[Date] = []
    columns: list[list[float]] = [[] for _ in OHLCV_COLUMNS]
    stockname: str | None = None
    try:
        for line, row in enumerate(reader, start=2):
            name = row[colmap["stockname"]].strip()
            if stockname is None:
                stockname = name
            elif name != stockname:
                raise InvariantError(f"{path}:{line}: mixed stocknames {stockname!r}/{name!r}")
            dates.append(_parse_date(row[colmap["date"]], path, line))
            for values, c in zip(columns, OHLCV_COLUMNS):
                values.append(_parse_float(row[colmap[c]], path, line, c))
    finally:
        handle.close()
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
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(QUOTE_COLUMNS)
        columns = [series.column(c).tolist() for c in OHLCV_COLUMNS]
        for d, o, h, lo, c, v in zip(series.dates, *columns):
            writer.writerow(
                [d.isoformat(), repr(o), repr(h), repr(lo), repr(c), _format_number(v), series.stockname]
            )


def _map_tendency(raw: str, path: Path, line: int) -> str:
    value = raw.strip()
    if value in (TREND, FLAT):
        return value
    if value == "N/A":
        return FLAT
    raise ParseError(f"{path}:{line}: unknown tendency {value!r}")


@dataclass
class LabelFile:
    """Parsed label file: rows plus any embedded quote tuples."""

    path: Path
    stockname: str
    expert: str
    rows: list[ExpertLabelRow]
    quotes: dict[tuple[Date, str], tuple[float, float, float, float, float]]


def load_label_file(path: str | Path) -> LabelFile:
    """Parse one label file; each file must carry a single (stockname, expert)."""
    path = Path(path)
    reader, handle = _reader(path, LABEL_COLUMNS)
    has_quotes = all(c in (reader.fieldnames or ()) for c in OHLCV_COLUMNS)
    rows: list[ExpertLabelRow] = []
    quotes: dict[tuple[Date, str], tuple[float, float, float, float, float]] = {}
    stockname: str | None = None
    expert: str | None = None
    try:
        for line, row in enumerate(reader, start=2):
            name = row["stockname"].strip()
            user = row["username"].strip()
            if stockname is None:
                stockname, expert = name, user
            elif name != stockname or user != expert:
                raise InvariantError(
                    f"{path}:{line}: file mixes (stockname, expert) pairs"
                )
            try:
                id_select = int(row["id_select"])
            except ValueError:
                raise ParseError(f"{path}:{line}: bad id_select {row['id_select']!r}") from None
            d = _parse_date(row["date"], path, line)
            rows.append(
                ExpertLabelRow(
                    date=d,
                    stockname=name,
                    id_select=id_select,
                    tendency=_map_tendency(row["type"], path, line),
                    expert=user,
                )
            )
            if has_quotes:
                quotes[(d, name)] = tuple(
                    _parse_float(row[c], path, line, c) for c in OHLCV_COLUMNS
                )
    finally:
        handle.close()
    if stockname is None or expert is None:
        raise ParseError(f"{path}: no data rows")
    return LabelFile(path=path, stockname=stockname, expert=expert, rows=rows, quotes=quotes)


def save_labels(rows: Iterable[ExpertLabelRow], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(LABEL_COLUMNS)
        for row in rows:
            writer.writerow(
                [row.date.isoformat(), row.stockname, row.id_select, row.tendency, row.expert]
            )


def merge_label_files(
    paths: Sequence[str | Path],
    quotes: Iterable[QuoteSeries] | None = None,
    skip_defects: bool = False,
) -> list[ExpertLabelRow]:
    """Merge label files, dropping exact duplicates and rejecting defect files.

    A file is a defect when any of its embedded quote tuples contradicts a
    quote already registered for the same (date, stockname), either from
    ``quotes`` or from an earlier file. By default the merge raises
    ``DefectFileError``; with ``skip_defects`` the offending file is skipped
    and the merge continues, mirroring how such files are excluded upstream.
    """
    registry: dict[tuple[Date, str], tuple[float, float, float, float, float]] = {}
    for series in quotes or ():
        columns = [series.column(c).tolist() for c in OHLCV_COLUMNS]
        for d, bar in zip(series.dates, zip(*columns)):
            registry[(d, series.stockname)] = bar

    merged: list[ExpertLabelRow] = []
    seen: set[ExpertLabelRow] = set()
    by_key: dict[tuple[Date, str, str], ExpertLabelRow] = {}
    for raw_path in paths:
        lf = load_label_file(raw_path)
        conflict = next(
            (key for key, q in lf.quotes.items() if key in registry and registry[key] != q),
            None,
        )
        if conflict is not None:
            message = (
                f"{lf.path}: quotes for {conflict[0]}/{conflict[1]} contradict "
                "already-loaded quotes; file rejected"
            )
            if skip_defects:
                import warnings

                warnings.warn(message)
                continue
            raise DefectFileError(message)
        registry.update(lf.quotes)
        for row in lf.rows:
            if row in seen:
                continue
            key = (row.date, row.stockname, row.expert)
            other = by_key.get(key)
            if other is not None:
                raise InvariantError(
                    f"{lf.path}: expert {row.expert} labels {row.date}/{row.stockname} twice"
                )
            seen.add(row)
            by_key[key] = row
            merged.append(row)
    return merged
