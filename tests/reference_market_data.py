"""Test-only reference: a quotes file read one row at a time.

This is how ``market_data.load_quotes`` read a file before it parsed each
column in one pass: every row's stockname, date and five values are checked
in file order, each cell through its own parse call, so the first bad cell
raises. The differential test holds the columnar reader to the series this
one loads and to the type and message of every error it raises.
"""

from __future__ import annotations

from datetime import date as Date
from pathlib import Path

from trendlab.errors import DuplicateDateError, InvariantError, ParseError
from trendlab.market_data import (
    OHLCV_COLUMNS,
    QUOTE_COLUMNS,
    QuoteSeries,
    _parse_date,
    _parse_float,
    _read_rows,
)


def reference_load_quotes(path: str | Path) -> QuoteSeries:
    """Load one stock's quotes row by row, sort by date and validate every invariant."""
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
        order = sorted(range(len(dates)), key=dates.__getitem__)
        for prev, cur in zip(order, order[1:]):
            if dates[cur] == dates[prev]:
                raise DuplicateDateError(f"{path}: two rows for {dates[cur]}") from None
        series = QuoteSeries(
            stockname, [dates[i] for i in order], *(series.column(c)[order] for c in OHLCV_COLUMNS)
        )
    except InvariantError as exc:
        raise InvariantError(f"{path}: {exc}") from None
    return series
