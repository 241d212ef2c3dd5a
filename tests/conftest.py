"""Shared builders for the test suite."""

from __future__ import annotations

import tracemalloc
from datetime import date as Date

import numpy as np
from hypothesis import settings

from trendlab.market_data import TREND, LabelSeries, QuoteSeries, _days
from trendlab.synth import business_dates

# Property tests draw the same examples on every run and have no time limit,
# so a slow machine neither fails a test nor changes which examples it tries.
settings.register_profile("trendlab", derandomize=True, deadline=None)
settings.load_profile("trendlab")


def make_series(
    closes,
    volumes=None,
    stockname: str = "ACME",
    start: Date = Date(2012, 1, 2),
    spread: float = 0.01,
) -> QuoteSeries:
    """Valid OHLCV series around the given closes (open=close, high/low padded)."""
    closes = np.asarray(closes, dtype=np.float64)
    if volumes is None:
        volumes = np.full(len(closes), 1000.0)
    return QuoteSeries(
        stockname,
        business_dates(start, len(closes)),
        open=closes,
        high=closes * (1 + spread),
        low=closes * (1 - spread),
        close=closes,
        volume=volumes,
    )


def row_of(series: QuoteSeries, d: Date) -> int:
    """The row of ``series`` that holds date ``d``."""
    return int(series.rows_of(_days([d]))[0])


def label_rows(series: QuoteSeries, id_selects, tendencies, expert: str = "A") -> LabelSeries:
    """One label per bar, driven by parallel id/tendency sequences."""
    assert len(id_selects) == len(series) == len(tendencies)
    return LabelSeries(
        series.stockname, expert, series.dates, id_selects, [t == TREND for t in tendencies]
    )


def segment_labels(series: QuoteSeries, segments, expert: str = "A") -> LabelSeries:
    """Labels from (length, tendency) segments covering the series."""
    ids = []
    tendencies = []
    for k, (length, tendency) in enumerate(segments):
        ids.extend([k + 1] * length)
        tendencies.extend([tendency] * length)
    assert len(ids) == len(series)
    return label_rows(series, ids, tendencies, expert=expert)


def half_repeated(n: int = 20_000, n_cols: int = 22) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rows of which the second half repeat rows (and targets) of the first."""
    rng = np.random.default_rng(27)
    X = rng.normal(size=(n // 2, n_cols))
    y = rng.integers(0, 2, n // 2)
    again = rng.integers(0, n // 2, n - n // 2)
    return np.concatenate([X, X[again]]), np.concatenate([y, y[again]])


def traced_peak(call, *args) -> int:
    """The most bytes ``call(*args)`` held at once, numpy buffers included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
