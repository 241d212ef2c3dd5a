"""Expert label preprocessing: windows, voting, trigger correction, splits.

``save_prep_report``/``load_prep_report`` own ``prepare``'s ``prep_report.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateSplitError, EmptyInputError, InvariantError, ParseError
from .market_data import FLAT, TREND, LabelSeries, QuoteSeries, _read_json, _write_json
from .market_data import _date, _day, _days


@dataclass(frozen=True)
class ExpertWindow:
    """A maximal contiguous period with one tendency, as one expert saw it.

    ``tendency`` is Trend or Flat. ``direction`` is 0 exactly for Flat
    windows; for Trend windows it is the sign (+1 or -1) of the fitted
    log-close slope over the window (ties go up).
    """

    stockname: str
    expert: str
    start_date: Date
    end_date: Date
    tendency: str
    direction: int

    def __post_init__(self) -> None:
        if self.tendency not in (TREND, FLAT):
            raise InvariantError(f"tendency {self.tendency!r} is neither {TREND} nor {FLAT}")
        if self.direction not in ((1, -1) if self.tendency == TREND else (0,)):
            raise InvariantError(
                f"direction {self.direction} inconsistent with tendency {self.tendency}"
            )


_TINY = np.finfo(np.float64).tiny


def _prefix_fits(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope and R2 of every prefix ``y[..., :k]`` against 0..k-1, for k = 1..len.

    ``y`` holds one series, or one per row; the prefixes run along its last
    axis. Slope and R2 are 0 where a prefix has no variance, so on a single
    row. One pass of running sums serves every prefix. The sums are shifted
    by the first value (Chan, Golub and LeVeque, "Algorithms for computing
    the sample variance", Am. Stat. 1983): with ``d = y - y[0]``, the sums of
    d, d**2 and i*d are sequential cumulative sums, and the x terms are closed
    forms. So a prefix's fit has the same bits whatever follows it.

    The shift bounds the cancellation in the variance ``S2 - S1**2/k``: as
    ``d[0]`` is 0, it keeps at least ``1/(k+1)`` of ``S2``. Against a two-pass
    regression of each prefix, R2 differs by under 1e-12 and the slope by
    under 1e-12 of the prefix's range over its length, on prefixes of up to
    5,000 bars of price-like data (``test_features`` checks this).
    """
    i = np.arange(y.shape[-1], dtype=np.float64)
    k = i + 1.0
    d = y - y[..., :1]
    s1 = d.cumsum(-1)
    s2 = (d * d).cumsum(-1)
    sid = (i * d).cumsum(-1)
    sxy = sid - i / 2 * s1  # sum((x - mean x) * d), with mean x = (k-1)/2
    syy = s2 - s1 * s1 / k
    sxx = k * (k * k - 1) / 12
    sxx[0] = 1.0  # a single row: sxy is 0, and so is its slope
    slope = sxy / sxx  # 0 wherever d is all 0, as sxy is then 0
    # slope * sxy = sxy**2 / sxx >= 0, and 0 over the floor where syy is 0
    r2 = slope * sxy / np.maximum(syy, _TINY)
    return slope, np.minimum(r2, 1.0)


def log_close_slope(quotes: QuoteSeries, i0: int, i1: int) -> float:
    """OLS slope of log close over rows i0..i1 inclusive (0.0 for a single row)."""
    return float(_prefix_fits(np.log(quotes.closes[i0 : i1 + 1]))[0][-1])


def _trend_direction(quotes: QuoteSeries, i0: int, i1: int) -> int:
    return 1 if log_close_slope(quotes, i0, i1) >= 0.0 else -1


def _runs(*columns: np.ndarray) -> list[tuple[int, int]]:
    """The [lo, hi) bounds of each run of rows over which every column keeps one value."""
    changes = np.flatnonzero(np.any([np.diff(column) != 0 for column in columns], axis=0))
    bounds = [0, *(changes + 1).tolist(), len(columns[0])] if len(columns[0]) else []
    return list(zip(bounds, bounds[1:]))


def _window_rows(windows: Sequence[ExpertWindow], quotes: QuoteSeries) -> tuple[list, list]:
    """The rows of ``quotes`` each window starts and ends on."""
    starts = quotes.rows_of(_days([w.start_date for w in windows]))
    ends = quotes.rows_of(_days([w.end_date for w in windows]))
    return starts.tolist(), ends.tolist()


def extract_windows(labels: LabelSeries, quotes: QuoteSeries) -> list[ExpertWindow]:
    """Segment one expert's labels of one stock into windows.

    A new window starts wherever ``id_select`` changes, not merely where the
    tendency changes, so back-to-back trends with opposite directions stay
    distinct windows.
    """
    if not len(labels):
        raise EmptyInputError("no label rows")
    rows = quotes.rows_of(labels.days)  # every labelled day must have a quote
    windows: list[ExpertWindow] = []
    for first, end in _runs(labels.id_select):
        trend = bool(labels.trend[first])
        windows.append(
            ExpertWindow(
                stockname=labels.stockname,
                expert=labels.expert,
                start_date=_date(labels.days[first]),
                end_date=_date(labels.days[end - 1]),
                tendency=TREND if trend else FLAT,
                direction=_trend_direction(quotes, rows[first], rows[end - 1]) if trend else 0,
            )
        )
    return windows


def voted_windows(
    window_lists: Sequence[Sequence[ExpertWindow]], quotes: QuoteSeries
) -> list[ExpertWindow]:
    """Combine several experts into one "voted" stream of windows.

    Every quote row labeled by at least one expert gets the average of the
    available direction codes, rounded half away from zero, so a 50/50 split
    between "up" and "flat" votes resolves to "up". The voted stream is then
    re-segmented at every change of the voted code and at coverage gaps.
    """
    if not window_lists:
        raise EmptyInputError("no experts to vote")
    stockname = window_lists[0][0].stockname
    n = len(quotes)
    codes = np.zeros((len(window_lists), n), dtype=np.int64)
    covered = np.zeros((len(window_lists), n), dtype=bool)
    for e, windows in enumerate(window_lists):
        starts, ends = _window_rows(windows, quotes)
        for w, i0, i1 in zip(windows, starts, ends):
            codes[e, i0 : i1 + 1] = w.direction
            covered[e, i0 : i1 + 1] = True
    n_votes = covered.sum(axis=0)
    rows = np.flatnonzero(n_votes)
    if not rows.size:
        raise EmptyInputError("experts labeled no dates")
    mean = codes.sum(axis=0)[rows] / n_votes[rows]
    voted = np.copysign(np.floor(np.abs(mean) + 0.5), mean).astype(np.int64)

    days = quotes.days
    return [
        ExpertWindow(
            stockname=stockname,
            expert="voted",
            start_date=_date(days[rows[first]]),
            end_date=_date(days[rows[end - 1]]),
            tendency=FLAT if voted[first] == 0 else TREND,
            direction=int(voted[first]),
        )
        # a run is a stretch of consecutive rows with one voted code
        for first, end in _runs(rows - np.arange(len(rows)), voted)
    ]


CORRECTION_RADIUS = 5


def trigger_correction(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries
) -> list[ExpertWindow]:
    """Snap trend starts to the local close extremum within +/-5 rows.

    Upward trends move to the close minimum, downward trends to the maximum;
    the preceding window's end follows so the partition stays contiguous and
    every window keeps at least one day. After rows no label covers, a start
    moves only forward inside its own window and the preceding window keeps
    its end, so no window grows over unlabelled rows. Ties pick the earliest
    date. The snap is repeated until every corrected start is a fixed point,
    which makes the operation idempotent.
    """
    if not windows:
        raise EmptyInputError("no windows")
    closes = quotes.closes
    n = len(quotes)
    starts, ends = _window_rows(windows, quotes)

    for _ in range(n + 1):
        moved = False
        for i in range(1, len(windows)):
            if windows[i].tendency != TREND:
                continue
            s = starts[i]
            adjacent = ends[i - 1] == s - 1
            lo = max(0, s - CORRECTION_RADIUS, starts[i - 1] + 1) if adjacent else s
            hi = min(n - 1, s + CORRECTION_RADIUS, ends[i])
            if lo > hi:
                continue
            segment = closes[lo : hi + 1]
            offset = int(np.argmin(segment) if windows[i].direction > 0 else np.argmax(segment))
            target = lo + offset
            if target != s:
                starts[i] = target
                if adjacent:
                    ends[i - 1] = target - 1
                moved = True
        if not moved:
            break

    days = quotes.days
    return [
        replace(w, start_date=_date(days[starts[i]]), end_date=_date(days[ends[i]]))
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

    def to_dict(self) -> dict:
        """The contradictions block of ``prep_report.json``."""
        return {
            "n_contradicting_rows": self.n_contradicting_rows,
            "pct_of_positives": self.pct_of_positives,
            "summary": self.summary(),
        }


def _row_groups(X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """An int64 group id per row of ``X``, equal for rows with equal bytes (and targets).

    Rows are compared by their exact bytes, so ``-0.0`` and ``0.0`` differ,
    as do two NaN payloads. Each row's 8-byte words are read, without a
    copy, as one byte string, and one stable sort of those strings (after
    the target, when one is given) puts equal rows side by side. A group
    starts wherever sorted neighbours differ in a word.
    """
    words = np.ascontiguousarray(X, dtype=np.float64).view(np.uint64)
    keys = [words.view(np.dtype((np.void, words.itemsize * words.shape[1])))[:, 0]]
    columns = list(words.T)
    if y is not None:
        target = np.asarray(y, dtype=np.int64)
        keys.append(target)  # lexsort's last key leads
        columns.append(target.view(np.uint64))
    order = np.lexsort(keys)
    starts = np.zeros(len(order), dtype=bool)  # a sorted row with a word unlike the row before
    for column in columns:
        sorted_words = column[order]
        starts[1:] |= sorted_words[1:] != sorted_words[:-1]
    group = np.empty(len(words), dtype=np.int64)
    group[order] = np.cumsum(starts)
    return group


def count_contradictions(X: np.ndarray, y: Sequence[int]) -> ContradictionStats:
    """Count rows that share a feature vector with a row of the opposite target.

    The targets are 0 or 1. Rows are grouped by their exact bytes, so
    ``-0.0`` and ``0.0`` differ, with one stable sort (``_row_groups``); a
    row contradicts when its group holds both targets.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(y) != len(X):
        raise InvariantError("feature matrix and targets disagree")
    group = _row_groups(X)
    size = np.bincount(group)
    positives = np.bincount(group[y == 1], minlength=len(size))
    mixed = (positives > 0) & (positives < size)
    n_pos = int(positives.sum())
    return ContradictionStats(
        n_contradicting_rows=int(size[mixed].sum()),
        pct_of_positives=100.0 * int(positives[mixed].sum()) / n_pos if n_pos else 0.0,
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

    def to_dict(self) -> dict:
        """The row counts and train balance, as a ``prep_report.json`` block."""
        counts = ("n_train", "n_test", "train_negatives", "train_positives")
        return {
            **{k: getattr(self, k) for k in counts},
            "balance": self.train_balance,
            "balance_str": self.balance_str,
        }


def split_by_date(
    days: np.ndarray, targets: Sequence[int], split_date: Date
) -> DatasetSplit:
    """Partition row indices by day number and report the train-side class balance.

    ``days`` are the rows' dates as day numbers (``date.toordinal``).
    """
    if len(days) != len(targets):
        raise InvariantError("days and targets disagree in length")
    train = np.asarray(days) < _day(split_date)
    train_idx = np.flatnonzero(train)
    test_idx = np.flatnonzero(~train)
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


def save_prep_report(
    settings: Mapping[str, object],
    cp: DatasetSplit,
    tof: DatasetSplit,
    contradictions: ContradictionStats,
    path: str | Path,
) -> None:
    """Write ``prep_report.json``: a prepared run's settings, split date and splits.

    ``settings`` holds at least ``log_mode``; ``contradictions`` counts the cp train rows.
    """
    cp_block = {**cp.to_dict(), "contradictions": contradictions.to_dict()}
    doc = {"split_date": cp.split_date.isoformat(), "cp": cp_block, "tof": tof.to_dict()}
    _write_json({**settings, **doc}, path)


def load_prep_report(path: str | Path) -> dict:
    """A ``save_prep_report`` document, with ``split_date`` as a date.

    Raises ``ParseError`` naming the file when it is not JSON or an entry that
    a command reads is missing or of the wrong type.
    """
    try:
        report = _read_json(path)
        report["split_date"] = Date.fromisoformat(report["split_date"])
    except (ParseError, ValueError, TypeError, KeyError):
        raise ParseError(f"{path}: not a JSON object with a split_date YYYY-MM-DD") from None
    if not isinstance(report.get("log_mode"), bool):
        raise ParseError(f"{path}: log_mode must be true or false")
    for which in ("cp", "tof"):
        entry = report.get(which)
        if not isinstance(entry, dict) or not (
            isinstance(entry.get("balance_str"), str)
            and isinstance(entry.get("balance", ""), (int, float, type(None)))
        ):
            raise ParseError(f"{path}: {which} must hold a balance and a balance_str")
    return report
