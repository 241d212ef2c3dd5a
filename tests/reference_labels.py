"""Test-only reference: label files as one object per labelled day.

This is how labels were read, merged and segmented before they became one
``LabelSeries`` per (stock, expert): every row of every file is a frozen
``RowLabel``; the merge drops exact repeats through a set of rows, rejects
a (date, stock, expert) labelled twice and checks embedded quotes against a
registry keyed by (date, stock); the rows are then bucketed by (stock,
expert), and voting expands each expert's windows into a ``{date: code}``
map. The differential tests hold the columnar path to the windows of this
one and to the type of every error it raises.

``reference_ols`` is the regression helper as it was before its x terms
became closed forms: it centres ``arange(n)`` on its mean and sums the
squares. The trend/flat features are held to it bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from trendlab.errors import DefectFileError, EmptyInputError, InvariantError, ParseError
from trendlab.labels import ExpertWindow, log_close_slope
from trendlab.market_data import FLAT, LABEL_COLUMNS, OHLCV_COLUMNS, TREND, QuoteSeries


def reference_ols(y: np.ndarray) -> tuple[float, float]:
    """Slope and R2 of y against 0..n-1; both are 0 when y has no variance."""
    n = len(y)
    x = np.arange(n, dtype=np.float64)
    xc = x - x.mean()
    ym = y.mean()
    sstot = float(np.dot(y - ym, y - ym))
    if sstot == 0.0:
        return 0.0, 0.0
    slope = float(np.dot(xc, y - ym) / np.dot(xc, xc))
    resid = y - (ym + slope * xc)
    r2 = 1.0 - float(np.dot(resid, resid)) / sstot
    return slope, min(1.0, max(0.0, r2))


def vote_experts(codes: Sequence[int]) -> int:
    """Average per-date direction codes and round half away from zero.

    A 50/50 split between "up" and "flat" votes therefore resolves to "up".
    """
    if not codes:
        raise EmptyInputError("no codes to vote on")
    mean = sum(codes) / len(codes)
    return int(math.copysign(math.floor(abs(mean) + 0.5), mean))


@dataclass(frozen=True)
class RowLabel:
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


def _map_tendency(raw: str, path: Path, line: int) -> str:
    value = raw.strip()
    if value in (TREND, FLAT):
        return value
    if value == "N/A":
        return FLAT
    raise ParseError(f"{path}:{line}: unknown tendency {value!r}")


def reference_load_label_file(path: Path) -> tuple[list[RowLabel], dict]:
    """The rows of one file in file order and its embedded quotes by (date, stock)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in LABEL_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(f"{path}: missing columns {missing}")
        has_quotes = all(c in reader.fieldnames for c in OHLCV_COLUMNS)
        rows: list[RowLabel] = []
        quotes: dict[tuple[Date, str], tuple[float, ...]] = {}
        pair = None
        for line, row in enumerate(reader, start=2):
            name = row["stockname"].strip()
            user = row["username"].strip()
            if pair is None:
                pair = (name, user)
            elif (name, user) != pair:
                raise InvariantError(f"{path}:{line}: file mixes (stockname, expert) pairs")
            try:
                id_select = int(row["id_select"])
            except ValueError:
                raise ParseError(f"{path}:{line}: bad id_select {row['id_select']!r}") from None
            d = _parse_date(row["date"], path, line)
            rows.append(RowLabel(d, name, id_select, _map_tendency(row["type"], path, line), user))
            if has_quotes:
                quotes[(d, name)] = tuple(
                    _parse_float(row[c], path, line, c) for c in OHLCV_COLUMNS
                )
    if pair is None:
        raise ParseError(f"{path}: no data rows")
    return rows, quotes


def reference_merge_label_files(
    paths: Sequence[Path], quotes: Iterable[QuoteSeries] = ()
) -> list[RowLabel]:
    registry: dict[tuple[Date, str], tuple[float, ...]] = {}
    for series in quotes:
        columns = [series.column(c).tolist() for c in OHLCV_COLUMNS]
        for d, bar in zip(series.dates, zip(*columns)):
            registry[(d, series.stockname)] = bar
    merged: list[RowLabel] = []
    seen: set[RowLabel] = set()
    by_key: dict[tuple[Date, str, str], RowLabel] = {}
    for path in paths:
        rows, file_quotes = reference_load_label_file(path)
        if any(key in registry and registry[key] != q for key, q in file_quotes.items()):
            raise DefectFileError(f"{path}: quotes contradict already-loaded quotes")
        registry.update(file_quotes)
        for row in rows:
            if row in seen:
                continue
            key = (row.date, row.stockname, row.expert)
            if key in by_key:
                raise InvariantError(f"{path}: expert {row.expert} labels {row.date} twice")
            seen.add(row)
            by_key[key] = row
            merged.append(row)
    return merged


def reference_group_rows(rows: Iterable[RowLabel]) -> dict[tuple[str, str], list[RowLabel]]:
    buckets: dict[tuple[str, str], list[RowLabel]] = {}
    for row in rows:
        buckets.setdefault((row.stockname, row.expert), []).append(row)
    for bucket in buckets.values():
        bucket.sort(key=lambda r: r.date)
    return buckets


def reference_extract_windows(rows: Sequence[RowLabel], quotes: QuoteSeries) -> list[ExpertWindow]:
    if not rows:
        raise EmptyInputError("no label rows")
    rows = sorted(rows, key=lambda r: r.date)
    for row in rows:
        quotes.index_of(row.date)
    windows: list[ExpertWindow] = []
    run_start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i].id_select != rows[run_start].id_select:
            first, last = rows[run_start], rows[i - 1]
            direction = 0
            if first.tendency == TREND:
                slope = log_close_slope(
                    quotes, quotes.index_of(first.date), quotes.index_of(last.date)
                )
                direction = 1 if slope >= 0.0 else -1
            windows.append(
                ExpertWindow(
                    first.stockname, first.expert, first.date, last.date, first.tendency, direction
                )
            )
            run_start = i
    return windows


def reference_direction_codes(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries
) -> dict[Date, int]:
    codes: dict[Date, int] = {}
    for w in windows:
        for i in range(quotes.index_of(w.start_date), quotes.index_of(w.end_date) + 1):
            codes[quotes.dates[i]] = w.direction
    return codes


def reference_voted_windows(
    window_lists: Sequence[Sequence[ExpertWindow]], quotes: QuoteSeries
) -> list[ExpertWindow]:
    if not window_lists:
        raise EmptyInputError("no experts to vote")
    stockname = window_lists[0][0].stockname
    per_expert = [reference_direction_codes(ws, quotes) for ws in window_lists]
    covered = sorted(set().union(*[set(codes) for codes in per_expert]))
    if not covered:
        raise EmptyInputError("experts labeled no dates")
    voted = [(d, vote_experts([m[d] for m in per_expert if d in m])) for d in covered]
    windows: list[ExpertWindow] = []
    run_start = 0
    for i in range(1, len(voted) + 1):
        boundary = i == len(voted)
        if not boundary:
            gap = quotes.index_of(voted[i][0]) != quotes.index_of(voted[i - 1][0]) + 1
            boundary = gap or voted[i][1] != voted[run_start][1]
        if boundary:
            code = voted[run_start][1]
            windows.append(
                ExpertWindow(
                    stockname,
                    "voted",
                    voted[run_start][0],
                    voted[i - 1][0],
                    FLAT if code == 0 else TREND,
                    code,
                )
            )
            run_start = i
    return windows
