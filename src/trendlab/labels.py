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


def _ols(y: np.ndarray) -> tuple[float, float]:
    """Slope and R2 of y against 0..n-1; both are 0 when y has no variance.

    The x terms are closed forms, and they are exact: the mean of 0..n-1 is
    (n-1)/2, and ``sum(xc**2)`` is ``n*(n*n-1)/12``. Every centred x is a
    multiple of 1/2, so every partial sum of ``xc**2`` is a multiple of 1/4,
    and float64 holds those exactly below 2**51, that is for n <= 300,000.
    Summing the squares in float64, in any order, gives the closed form bit
    for bit. ``np.add.reduce(y) / n`` is the pairwise sum ``ndarray.mean``
    takes. The result is therefore bitwise that of regressing on
    ``x = arange(n)`` with ``x.mean()`` and ``np.dot(xc, xc)``.
    """
    n = len(y)
    xc = np.arange(-(n - 1) / 2, n / 2)  # arange(n) - (n-1)/2, in one step
    ym = np.add.reduce(y) / n
    yc = y - ym
    sstot = yc.dot(yc)
    if sstot == 0.0:
        return 0.0, 0.0
    slope = xc.dot(yc) / (n * (n * n - 1) / 12)
    # not ``yc - slope * xc``: that rounds differently in the last bits
    resid = y - (ym + slope * xc)
    r2 = 1.0 - resid.dot(resid) / sstot
    return float(slope), min(1.0, max(0.0, float(r2)))


def log_close_slope(quotes: QuoteSeries, i0: int, i1: int) -> float:
    """OLS slope of log close over rows i0..i1 inclusive (0.0 for a single row)."""
    return _ols(np.log(quotes.closes[i0 : i1 + 1]))[0]


def _trend_direction(quotes: QuoteSeries, i0: int, i1: int) -> int:
    return 1 if log_close_slope(quotes, i0, i1) >= 0.0 else -1


def _runs(breaks: np.ndarray) -> list[tuple[int, int]]:
    """First and last index of each run of a sequence; ``breaks[i]`` starts one at i + 1."""
    firsts = np.append(0, np.flatnonzero(breaks) + 1)
    lasts = np.append(firsts[1:] - 1, len(breaks))
    return list(zip(firsts.tolist(), lasts.tolist()))


def extract_windows(labels: LabelSeries, quotes: QuoteSeries) -> list[ExpertWindow]:
    """Segment one expert's labels of one stock into windows.

    A new window starts wherever ``id_select`` changes, not merely where the
    tendency changes, so back-to-back trends with opposite directions stay
    distinct windows.
    """
    if not len(labels):
        raise EmptyInputError("no label rows")
    rows = [quotes.index_of(d) for d in labels.dates]
    windows: list[ExpertWindow] = []
    for first, last in _runs(np.diff(labels.id_select) != 0):
        trend = bool(labels.trend[first])
        windows.append(
            ExpertWindow(
                stockname=labels.stockname,
                expert=labels.expert,
                start_date=labels.dates[first],
                end_date=labels.dates[last],
                tendency=TREND if trend else FLAT,
                direction=_trend_direction(quotes, rows[first], rows[last]) if trend else 0,
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
        for w in windows:
            i0, i1 = quotes.index_of(w.start_date), quotes.index_of(w.end_date)
            codes[e, i0 : i1 + 1] = w.direction
            covered[e, i0 : i1 + 1] = True
    n_votes = covered.sum(axis=0)
    rows = np.flatnonzero(n_votes)
    if not rows.size:
        raise EmptyInputError("experts labeled no dates")
    mean = codes.sum(axis=0)[rows] / n_votes[rows]
    voted = np.copysign(np.floor(np.abs(mean) + 0.5), mean).astype(np.int64)

    dates = quotes.dates
    return [
        ExpertWindow(
            stockname=stockname,
            expert="voted",
            start_date=dates[rows[first]],
            end_date=dates[rows[last]],
            tendency=FLAT if voted[first] == 0 else TREND,
            direction=int(voted[first]),
        )
        for first, last in _runs((np.diff(rows) != 1) | (np.diff(voted) != 0))
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
    starts = [quotes.index_of(w.start_date) for w in windows]
    ends = [quotes.index_of(w.end_date) for w in windows]

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

    def to_dict(self) -> dict:
        """The contradictions block of ``prep_report.json``."""
        return {
            "n_contradicting_rows": self.n_contradicting_rows,
            "pct_of_positives": self.pct_of_positives,
            "summary": self.summary(),
        }


def _row_keys(X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """One opaque scalar per row of ``X`` holding its exact bytes (and its target's)."""
    parts = [np.ascontiguousarray(X).view(np.uint8)]
    if y is not None:
        parts.append(np.ascontiguousarray(y, dtype=np.int64).reshape(-1, 1).view(np.uint8))
    raw = np.ascontiguousarray(np.concatenate(parts, axis=1))
    return raw.view(np.dtype((np.void, raw.shape[1]))).ravel()


def count_contradictions(X: np.ndarray, y: Sequence[int]) -> ContradictionStats:
    """Count rows that share a feature vector with a row of the opposite target."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(y) != len(X):
        raise InvariantError("feature matrix and targets disagree")
    _, group = np.unique(_row_keys(X), return_inverse=True)
    _, first = np.unique(_row_keys(X, y), return_index=True)
    n_targets = np.bincount(group[first], minlength=len(X))
    contradicting = n_targets[group] > 1
    n_pos = int((y == 1).sum())
    contradicting_positives = int(y[contradicting].sum())
    pct = 100.0 * contradicting_positives / n_pos if n_pos else 0.0
    return ContradictionStats(
        n_contradicting_rows=int(contradicting.sum()),
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
    train = np.asarray(days) < split_date.toordinal()
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
