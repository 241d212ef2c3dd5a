"""Test-only reference: the positions a perfectly informed, lagged pipeline takes.

``lagged_regime_ledger`` books the trades of the simulator's true windows
with its own arithmetic, independent of ``pipeline.run_pipeline``: entry a
fixed lag after each detectable trend start, exit when the next detectable
start acts or the series ends. The oracle backtest tests hold the pipeline's
positions and profit to this ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from trendlab.labels import ExpertWindow
from trendlab.market_data import TREND, QuoteSeries, _days


@dataclass(frozen=True)
class LedgerEntry:
    """One tradable regime as the simulator's own bookkeeping sees it."""

    window_start_row: int
    entry_row: int
    exit_row: int
    direction: int
    profit: float


def lagged_regime_ledger(
    windows: Sequence[ExpertWindow],
    series: QuoteSeries,
    entry_lag: int = 5,
) -> list[LedgerEntry]:
    """Expected positions of a perfectly informed but lagged pipeline.

    A window start is detectable only with full +/-5-row feature context;
    entry happens entry_lag rows after a detectable trend start, exit when
    the next detectable start becomes actionable or the series ends.
    """
    n = len(series)
    closes = series.closes
    starts = series.rows_of(_days([w.start_date for w in windows])).tolist()
    detectable = [(s, w) for s, w in zip(starts, windows) if 5 <= s <= n - 6]
    entries: list[LedgerEntry] = []
    for i, (s, w) in enumerate(detectable):
        entry = s + entry_lag
        if entry > n - 1:
            continue
        exit_row = detectable[i + 1][0] + entry_lag if i + 1 < len(detectable) else n - 1
        exit_row = min(exit_row, n - 1)
        if w.tendency != TREND:
            continue
        profit = w.direction * (closes[exit_row] - closes[entry]) / closes[entry]
        entries.append(
            LedgerEntry(
                window_start_row=s,
                entry_row=entry,
                exit_row=exit_row,
                direction=w.direction,
                profit=float(profit),
            )
        )
    return entries
