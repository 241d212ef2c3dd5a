"""Shared builders for the test suite."""

from __future__ import annotations

from datetime import date as Date

import numpy as np

from trendlab.market_data import ExpertLabelRow, QuoteSeries
from trendlab.synth import business_dates


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


def label_rows(series: QuoteSeries, id_selects, tendencies, expert: str = "A"):
    """One label row per bar, driven by parallel id/tendency sequences."""
    assert len(id_selects) == len(series) == len(tendencies)
    return [
        ExpertLabelRow(
            date=d,
            stockname=series.stockname,
            id_select=int(id_selects[i]),
            tendency=tendencies[i],
            expert=expert,
        )
        for i, d in enumerate(series.dates)
    ]


def segment_labels(series: QuoteSeries, segments, expert: str = "A"):
    """Label rows from (length, tendency) segments covering the series."""
    ids = []
    tendencies = []
    for k, (length, tendency) in enumerate(segments):
        ids.extend([k + 1] * length)
        tendencies.extend([tendency] * length)
    assert len(ids) == len(series)
    return label_rows(series, ids, tendencies, expert=expert)
