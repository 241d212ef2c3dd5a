"""Test-only reference: trend/flat training rows built one window at a time.

This is how ``build_tof_dataset`` cut its windows before every window row
came from ``features.prefix_features``: ``augment_fractions`` takes the logs
of each window on its own, builds one ``WindowSums`` per window and reads
each kept fraction with ``tof_features``; the dataset stacks the windows'
rows. The differential tests hold the one feature path to these rows bit
for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from trendlab.errors import EmptyInputError
from trendlab.features import (
    FRACTIONS,
    MIN_LEN_TREND,
    TOF_FEATURE_NAMES,
    FeatureDataset,
    WindowSums,
    _log_bars,
    tof_features,
)
from trendlab.labels import ExpertWindow
from trendlab.market_data import TREND, QuoteSeries, _days


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
    i0 = quotes.index_of(window.start_date)
    n = quotes.index_of(window.end_date) - i0 + 1
    closes = quotes.closes[i0 : i0 + n]
    volumes = quotes.volumes[i0 : i0 + n]
    if log_mode:
        closes, volumes = _log_bars(closes, volumes)
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
