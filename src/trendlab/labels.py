"""Expert label preprocessing: windows, triggers, voting, correction, splits."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date as Date
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateSplitError, EmptyInputError, InvariantError
from .market_data import FLAT, TREND, ExpertLabelRow, QuoteSeries


@dataclass(frozen=True)
class ExpertWindow:
    """A maximal contiguous period with one tendency, as one expert saw it.

    ``direction`` is 0 exactly for Flat windows; for Trend windows it is the
    sign of the fitted log-close slope over the window (ties go up).
    """

    stockname: str
    expert: str
    start_date: Date
    end_date: Date
    tendency: str
    direction: int

    def __post_init__(self) -> None:
        if (self.direction == 0) != (self.tendency == FLAT):
            raise InvariantError(
                f"direction {self.direction} inconsistent with tendency {self.tendency}"
            )


@dataclass(frozen=True)
class TriggerSeries:
    """Per-date changepoint flags: true on every window start except the first."""

    stockname: str
    expert: str
    start_date: Date
    end_date: Date
    trigger_dates: frozenset[Date]

    def covers(self, d: Date) -> bool:
        return self.start_date <= d <= self.end_date

    def value(self, d: Date) -> int:
        if not self.covers(d):
            raise InvariantError(f"{d} outside labeled span")
        return int(d in self.trigger_dates)

    def dense(self, dates: Sequence[Date]) -> list[int]:
        return [self.value(d) for d in dates]


def _ols(y: np.ndarray) -> tuple[float, float]:
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


def log_close_slope(quotes: QuoteSeries, i0: int, i1: int) -> float:
    """OLS slope of log close over rows i0..i1 inclusive (0.0 for a single row)."""
    return _ols(np.log(quotes.closes[i0 : i1 + 1]))[0]


def _trend_direction(quotes: QuoteSeries, i0: int, i1: int) -> int:
    return 1 if log_close_slope(quotes, i0, i1) >= 0.0 else -1


def extract_windows(rows: Sequence[ExpertLabelRow], quotes: QuoteSeries) -> list[ExpertWindow]:
    """Segment one expert's rows for one stock into windows.

    A new window starts wherever ``id_select`` changes, not merely where the
    tendency changes, so back-to-back trends with opposite directions stay
    distinct windows.
    """
    if not rows:
        raise EmptyInputError("no label rows")
    rows = sorted(rows, key=lambda r: r.date)
    stockname = rows[0].stockname
    expert = rows[0].expert
    for row in rows:
        if row.stockname != stockname or row.expert != expert:
            raise InvariantError("rows mix (stockname, expert) pairs")
        quotes.index_of(row.date)

    windows: list[ExpertWindow] = []
    run_start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i].id_select != rows[run_start].id_select:
            first, last = rows[run_start], rows[i - 1]
            tendency = first.tendency
            if tendency == TREND:
                direction = _trend_direction(
                    quotes, quotes.index_of(first.date), quotes.index_of(last.date)
                )
            else:
                direction = 0
            windows.append(
                ExpertWindow(
                    stockname=stockname,
                    expert=expert,
                    start_date=first.date,
                    end_date=last.date,
                    tendency=tendency,
                    direction=direction,
                )
            )
            run_start = i
    return windows


def new_trigger(windows: Sequence[ExpertWindow]) -> TriggerSeries:
    """Changepoint targets: 1 on each window start except the very first."""
    if not windows:
        raise EmptyInputError("no windows")
    return TriggerSeries(
        stockname=windows[0].stockname,
        expert=windows[0].expert,
        start_date=windows[0].start_date,
        end_date=windows[-1].end_date,
        trigger_dates=frozenset(w.start_date for w in windows[1:]),
    )


def vote_experts(codes: Sequence[int]) -> int:
    """Average per-date direction codes and round half away from zero.

    A 50/50 split between "up" and "flat" votes therefore resolves to "up".
    """
    if not codes:
        raise EmptyInputError("no codes to vote on")
    mean = sum(codes) / len(codes)
    return int(math.copysign(math.floor(abs(mean) + 0.5), mean))


def per_date_direction_codes(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries
) -> dict[Date, int]:
    """Expand one expert's windows into a per-quote-date direction code map."""
    codes: dict[Date, int] = {}
    dates = quotes.dates
    for w in windows:
        for i in range(quotes.index_of(w.start_date), quotes.index_of(w.end_date) + 1):
            codes[dates[i]] = w.direction
    return codes


def voted_windows(
    window_lists: Sequence[Sequence[ExpertWindow]], quotes: QuoteSeries
) -> list[ExpertWindow]:
    """Combine several experts into one "voted" stream of windows.

    Every date labeled by at least one expert gets the rounded average of the
    available direction codes; the voted stream is then re-segmented at every
    change of the voted code (and at coverage gaps).
    """
    if not window_lists:
        raise EmptyInputError("no experts to vote")
    stockname = window_lists[0][0].stockname
    per_expert = [per_date_direction_codes(ws, quotes) for ws in window_lists]
    covered = sorted(set().union(*[set(codes) for codes in per_expert]))
    if not covered:
        raise EmptyInputError("experts labeled no dates")

    voted: list[tuple[Date, int]] = []
    for d in covered:
        codes = [m[d] for m in per_expert if d in m]
        voted.append((d, vote_experts(codes)))

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
                    stockname=stockname,
                    expert="voted",
                    start_date=voted[run_start][0],
                    end_date=voted[i - 1][0],
                    tendency=FLAT if code == 0 else TREND,
                    direction=code,
                )
            )
            run_start = i
    return windows


CORRECTION_RADIUS = 5


def trigger_correction(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries
) -> list[ExpertWindow]:
    """Snap trend starts to the local close extremum within +/-5 rows.

    Upward trends move to the close minimum, downward trends to the maximum;
    the preceding window's end follows so the partition stays contiguous and
    every window keeps at least one day. Ties pick the earliest date. The
    snap is repeated until every corrected start is a fixed point, which
    makes the operation idempotent.
    """
    if not windows:
        raise EmptyInputError("no windows")
    closes = quotes.closes
    n = len(quotes)
    starts = [quotes.index_of(w.start_date) for w in windows]
    ends = [quotes.index_of(w.end_date) for w in windows]

    for _ in range(n + 1):
        moved = False
        for i in range(1, len(windows)):
            if windows[i].tendency != TREND:
                continue
            s = starts[i]
            lo = max(0, s - CORRECTION_RADIUS, starts[i - 1] + 1)
            hi = min(n - 1, s + CORRECTION_RADIUS, ends[i])
            if lo > hi:
                continue
            segment = closes[lo : hi + 1]
            offset = int(np.argmin(segment) if windows[i].direction > 0 else np.argmax(segment))
            target = lo + offset
            if target != s:
                starts[i] = target
                ends[i - 1] = target - 1
                moved = True
        if not moved:
            break

    dates = quotes.dates
    return [
        replace(w, start_date=dates[starts[i]], end_date=dates[ends[i]])
        for i, w in enumerate(windows)
    ]


@dataclass(frozen=True)
class ContradictionStats:
    """Rows whose exact feature vector occurs with both target values."""

    n_contradicting_rows: int
    pct_of_positives: float
    n_rows: int
    n_positive_rows: int

    def summary(self) -> str:
        grouped = f"{self.n_contradicting_rows:,}".replace(",", " ")
        return f"{grouped}/ {self.pct_of_positives:.0f}%"


def count_contradictions(X: np.ndarray, y: Sequence[int]) -> ContradictionStats:
    """Count rows that share a feature vector with a row of the opposite target."""
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(y) != len(X):
        raise InvariantError("feature matrix and targets disagree")
    groups: dict[bytes, list[int]] = {}
    for i in range(len(X)):
        groups.setdefault(X[i].tobytes(), []).append(i)
    n_contradicting = 0
    contradicting_positives = 0
    for idx in groups.values():
        targets = {int(y[i]) for i in idx}
        if len(targets) > 1:
            n_contradicting += len(idx)
            contradicting_positives += int(sum(y[i] for i in idx))
    n_pos = int((y == 1).sum())
    pct = 100.0 * contradicting_positives / n_pos if n_pos else 0.0
    return ContradictionStats(
        n_contradicting_rows=n_contradicting,
        pct_of_positives=pct,
        n_rows=len(X),
        n_positive_rows=n_pos,
    )


def format_balance(ratio: float | None) -> str:
    if ratio is None:
        return "n/a"
    if ratio >= 10:
        return f"{ratio:.0f}:1"
    return f"{ratio:.2f}:1"


@dataclass(frozen=True)
class DatasetSplit:
    """Index-based strict date partition: train dates < split_date <= test dates."""

    split_date: Date
    train_idx: np.ndarray
    test_idx: np.ndarray
    n_train: int
    n_test: int
    train_negatives: int
    train_positives: int
    train_balance: float | None

    @property
    def balance_str(self) -> str:
        return format_balance(self.train_balance)


def split_by_date(
    dates: Sequence[Date], targets: Sequence[int], split_date: Date
) -> DatasetSplit:
    """Partition row indices by date and report the train-side class balance."""
    if len(dates) != len(targets):
        raise InvariantError("dates and targets disagree in length")
    dates_arr = list(dates)
    train_idx = np.array([i for i, d in enumerate(dates_arr) if d < split_date], dtype=np.int64)
    test_idx = np.array([i for i, d in enumerate(dates_arr) if d >= split_date], dtype=np.int64)
    if train_idx.size == 0 or test_idx.size == 0:
        raise DegenerateSplitError(
            f"split at {split_date} leaves train={train_idx.size} test={test_idx.size}"
        )
    y = np.asarray(targets, dtype=np.int64)
    pos = int((y[train_idx] == 1).sum())
    neg = int(train_idx.size - pos)
    balance = neg / pos if pos else None
    return DatasetSplit(
        split_date=split_date,
        train_idx=train_idx,
        test_idx=test_idx,
        n_train=int(train_idx.size),
        n_test=int(test_idx.size),
        train_negatives=neg,
        train_positives=pos,
        train_balance=balance,
    )


def group_rows(
    rows: Iterable[ExpertLabelRow],
) -> dict[tuple[str, str], list[ExpertLabelRow]]:
    """Bucket merged label rows by (stockname, expert), each bucket date-sorted."""
    buckets: dict[tuple[str, str], list[ExpertLabelRow]] = {}
    for row in rows:
        buckets.setdefault((row.stockname, row.expert), []).append(row)
    for bucket in buckets.values():
        bucket.sort(key=lambda r: r.date)
    return buckets
