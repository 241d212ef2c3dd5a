"""Test-only reference: trend/flat rows built one window at a time.

``WindowSums`` and ``tof_features(window, length)`` are the per-window
feature path that ``features.prefix_features`` replaced: one object per
window holds the fits of its every prefix, and each prefix is read from it
on its own.

``augment_fractions`` is how ``build_tof_dataset`` cut its windows before
every window row came from ``features.prefix_features``: it takes the logs
of each window on its own, builds one ``WindowSums`` per window and reads
each kept fraction with ``tof_features``; the dataset stacks the windows'
rows. The differential tests hold the one feature path to these rows bit
for bit.

``reference_cp_dataset`` is how ``build_cp_dataset`` built changepoint rows
before it took several window streams: the whole series' feature matrix,
stacked from its columns, for each stream on its own, masked to the
stream's span. ``reference_cp_streams`` stacks the streams' datasets as
``prepare`` did, so the global ``deduplicate`` alone drops the rows that
repeat across streams.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from trendlab.errors import EmptyInputError, TooShortError
from trendlab.features import (
    CP_CONTEXT,
    CP_FEATURE_NAMES,
    CP_MIN_BARS,
    FRACTIONS,
    MIN_LEN_TREND,
    TOF_FEATURE_NAMES,
    FeatureDataset,
    TofRow,
    _check_volumes,
    _log_bars,
)
from trendlab.labels import ExpertWindow, _prefix_fits
from trendlab.market_data import TREND, QuoteSeries, _day, _days


def reference_write_feature_csv(
    X: np.ndarray, y: np.ndarray, names: Sequence[str], path: str | Path
) -> None:
    """The named feature columns plus ``target``, every row formatted in one pass."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(list(names) + ["target"])
        handle.writelines(
            ",".join(map(repr, row)) + f",{target}\r\n"
            for row, target in zip(
                np.asarray(X, dtype=np.float64).tolist(), np.asarray(y, dtype=np.int64).tolist()
            )
        )


class WindowSums:
    """The close and volume fits of every prefix of one window, from running sums.

    ``closes`` and ``volumes`` are the window's bars in the feature space,
    that is logs in log mode (the caller takes and checks them). The sums
    are taken once, shifted by the window's first bar (``labels._prefix_fits``),
    so ``tof_features`` reads any prefix in O(1), and a prefix has the same
    bits however many bars follow it.
    """

    __slots__ = ("_fits",)

    def __init__(self, closes: Sequence[float], volumes: Sequence[float]) -> None:
        closes = np.asarray(closes, dtype=np.float64)
        volumes = np.asarray(volumes, dtype=np.float64)
        if len(closes) < 2 or len(volumes) != len(closes):
            raise TooShortError(f"need >= 2 aligned points, got {len(closes)}/{len(volumes)}")
        slopes, r2s = _prefix_fits(np.stack((closes, volumes)))
        # one row per prefix: close slope, close R2, volume slope, volume R2
        self._fits = np.stack((slopes, r2s), axis=1).reshape(4, -1).T.tolist()


def tof_features(window: WindowSums, length: int) -> TofRow:
    """Slope/R2 of the close and volume over the window's first ``length`` bars, plus ``length``.

    An O(1) read of the fits ``WindowSums`` took when it was built.
    """
    if not 2 <= length <= len(window._fits):
        raise TooShortError(f"a prefix of {length} bars of a {len(window._fits)}-bar window")
    return TofRow(*window._fits[length - 1], length)


def _fraction_days(pct: int, n: int) -> int:
    # round(p% of n) half up, in exact integer arithmetic
    return max(2, (2 * pct * n + 100) // 200)


def augment_fractions(
    window: ExpertWindow, quotes: QuoteSeries, log_mode: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Window prefixes at 5,10,20..100% of its length, minus too-short rows.

    Returns the fractions kept and one row of the five features per fraction.
    Prefixes shorter than ``MIN_LEN_TREND`` days are dropped: the changepoint
    stage already lags five days, so nothing shorter ever needs recognizing.
    """
    i0, i1 = quotes.rows_of(_days([window.start_date, window.end_date])).tolist()
    n = i1 - i0 + 1
    bars = quotes[i0 : i0 + n]
    closes, volumes = _log_bars(bars) if log_mode else (bars.closes, bars.volumes)
    fractions = [pct for pct in FRACTIONS if MIN_LEN_TREND <= _fraction_days(pct, n) <= n]
    sums = WindowSums(closes, volumes) if fractions else None
    rows = [tof_features(sums, _fraction_days(pct, n)) for pct in fractions]
    X = np.array(rows, dtype=np.float64).reshape(-1, len(TOF_FEATURE_NAMES))
    return np.array(fractions, dtype=np.int64), X


def reference_tof_dataset(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries, log_mode: bool = False
) -> FeatureDataset:
    """Fraction-augmented window rows, each dated by its window start."""
    if not windows:
        raise EmptyInputError("no windows")
    fractions, X = zip(*(augment_fractions(w, quotes, log_mode=log_mode) for w in windows))
    counts = [len(f) for f in fractions]
    return FeatureDataset(
        kind="tof",
        feature_names=TOF_FEATURE_NAMES,
        days=np.repeat(_days([w.start_date for w in windows]), counts),
        stocknames=np.repeat(np.array([w.stockname for w in windows]), counts),
        X=np.concatenate(X),
        y=np.repeat(np.array([w.tendency == TREND for w in windows], dtype=np.int64), counts),
        fractions=np.concatenate(fractions),
    )


def reference_cp_matrix(series: QuoteSeries, log_mode: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every row with full context and its 22 ratios, stacked from whole columns."""
    n = len(series)
    if n < CP_MIN_BARS:
        return np.empty(0, dtype=np.int64), np.empty((0, len(CP_FEATURE_NAMES)))
    closes, volumes = series.closes, series.volumes
    highs, lows = series.column("high"), series.column("low")
    ts = np.arange(CP_CONTEXT, n - CP_CONTEXT, dtype=np.int64)
    _check_volumes(series, 0 if log_mode else CP_CONTEXT)
    cols = [
        bars[ts + side * k] / bars[ts]
        for bars in (closes, volumes)
        for side in (-1, 1)
        for k in range(1, CP_CONTEXT + 1)
    ]
    X = np.column_stack([*cols, highs[ts] / closes[ts], lows[ts] / closes[ts]])
    return ts, np.log(X) if log_mode else X


def reference_cp_dataset(
    series: QuoteSeries, windows: Sequence[ExpertWindow], log_mode: bool
) -> FeatureDataset:
    """One stream's changepoint rows: the whole matrix, masked to the stream's span."""
    if not windows:
        raise EmptyInputError("no windows")
    ts, X = reference_cp_matrix(series, log_mode)
    days = series.days[ts]
    keep = (days >= _day(windows[0].start_date)) & (days <= _day(windows[-1].end_date))
    days = days[keep]
    return FeatureDataset(
        kind="cp",
        feature_names=CP_FEATURE_NAMES,
        days=days,
        stocknames=np.full(len(days), series.stockname),
        X=X[keep],
        y=np.isin(days, _days([w.start_date for w in windows[1:]])).astype(np.int64),
    )


def reference_cp_streams(
    series: QuoteSeries, *streams: Sequence[ExpertWindow], log_mode: bool
) -> FeatureDataset:
    """Every stream's rows, one ``reference_cp_dataset`` each, concatenated in order."""
    return FeatureDataset.concat(
        [reference_cp_dataset(series, windows, log_mode) for windows in streams]
    )
