"""Test-only reference: label files as one object per labelled day.

This is how labels were read, merged and segmented before they became one
``LabelSeries`` per (stock, expert): every row of every file is a frozen
``RowLabel``; the merge drops exact repeats through a set of rows, rejects
a (date, stock, expert) labelled twice and checks embedded quotes against a
registry keyed by (date, stock); the rows are then bucketed by (stock,
expert), and voting expands each expert's windows into a ``{date: code}``
map. The differential tests hold the columnar path to the windows of this
one and to the type of every error it raises.

``reference_ols`` regresses one series on its own, in two passes: it
centres ``arange(n)`` and the series on their means. The prefix fits that
``labels._prefix_fits`` reads from running sums are held to it within
stated absolute bounds.

``reference_row_keys`` is how repeated rows were found before
``labels._row_groups``: each row and its target copied into one void-dtype
byte key, which ``np.unique`` sorts. ``reference_first_rows`` and
``reference_count_contradictions`` are ``FeatureDataset.deduplicate`` and
``count_contradictions`` on those keys; the differential tests hold the
sorted grouping to them.
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
from trendlab.labels import ContradictionStats, ExpertWindow, log_close_slope
from trendlab.market_data import FLAT, LABEL_COLUMNS, OHLCV_COLUMNS, TREND, QuoteSeries, _days


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


def reference_row_keys(X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """One opaque scalar per row of ``X`` holding its exact bytes (and its target's)."""
    parts = [np.ascontiguousarray(X).view(np.uint8)]
    if y is not None:
        parts.append(np.ascontiguousarray(y, dtype=np.int64).reshape(-1, 1).view(np.uint8))
    raw = np.ascontiguousarray(np.concatenate(parts, axis=1))
    return raw.view(np.dtype((np.void, raw.shape[1]))).ravel()


def reference_first_rows(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows ``deduplicate`` keeps: each first (feature vector, target), in row order."""
    _, first = np.unique(reference_row_keys(X, y), return_index=True)
    return np.sort(first)


def reference_count_contradictions(X: np.ndarray, y: Sequence[int]) -> ContradictionStats:
    """Rows that share their exact bytes with a row of the other target."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _, group = np.unique(reference_row_keys(X), return_inverse=True)
    _, first = np.unique(reference_row_keys(X, y), return_index=True)
    n_targets = np.bincount(group[first], minlength=len(X))
    contradicting = n_targets[group] > 1
    n_pos = int((y == 1).sum())
    contradicting_positives = int(y[contradicting].sum())
    return ContradictionStats(
        n_contradicting_rows=int(contradicting.sum()),
        pct_of_positives=100.0 * contradicting_positives / n_pos if n_pos else 0.0,
        n_rows=len(X),
        n_positive_rows=n_pos,
    )


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
        unlike: Date | None = None  # the first date given two different quotes
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
                bar = tuple(_parse_float(row[c], path, line, c) for c in OHLCV_COLUMNS)
                if quotes.setdefault((d, name), bar) != bar and unlike is None:
                    unlike = d
    if pair is None:
        raise ParseError(f"{path}: no data rows")
    if unlike is not None:
        raise DefectFileError(f"{path}: quotes for {unlike} differ from each other")
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
    quotes.rows_of(_days([row.date for row in rows]))
    windows: list[ExpertWindow] = []
    run_start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i].id_select != rows[run_start].id_select:
            first, last = rows[run_start], rows[i - 1]
            direction = 0
            if first.tendency == TREND:
                slope = log_close_slope(
                    quotes, *quotes.rows_of(_days([first.date, last.date])).tolist()
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
    dates = quotes.dates
    for w in windows:
        i0, i1 = quotes.rows_of(_days([w.start_date, w.end_date])).tolist()
        for i in range(i0, i1 + 1):
            codes[dates[i]] = w.direction
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
            prev, cur = quotes.rows_of(_days([voted[i - 1][0], voted[i][0]])).tolist()
            gap = cur != prev + 1
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
