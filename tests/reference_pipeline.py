"""Test-only reference: the day-by-day backtest walk with per-row scoring.

``reference_run_pipeline`` is the walk ``pipeline.run_pipeline`` used before
it scored each stage in one batch call. It asks the changepoint scorer about
one row at a time as each day is reached, and rebuilds and scores the
trend/flat prefix of every day on that day, from sums over exactly that
prefix. A model is scored through ``gbdt.predict_row_proba``; any other
scorer is a per-row callable, ``cp(t, row)`` or ``tof(start, t, tof_row)``.
The walk keeps one trace row object per day and writes the trace CSV from
them, as the pipeline did before it stored the trace as columns. The
differential tests hold the batch pipeline to the exact trace CSV bytes,
positions and stats of this walk.

``reference_trace_csv`` is the writer ``SignalTrace.to_csv`` used before the
stock's scores formatted the text its runs share: it formats every cell of
every day from a trace's numpy columns.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field, replace
from datetime import date as Date
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from reference_features import WindowSums, tof_features
from trendlab import gbdt
from trendlab.errors import SeriesTooShortError
from trendlab.features import CP_MIN_BARS, TofRow, cp_feature_matrix
from trendlab.labels import ExpertWindow
from trendlab.market_data import TREND, QuoteSeries, _days
from trendlab.pipeline import (
    CP_LAG_DAYS,
    TRACE_COLUMNS,
    PipelineConfig,
    Position,
    SignalTrace,
    StockStats,
    trend_profit,
)

RowCpScorer = Callable[[int, np.ndarray], float]
RowTofScorer = Callable[[int, int, TofRow], float]


@dataclass
class TraceRow:
    date: Date
    cp_proba: float | None = None
    cp_signal: int = 0
    window_id: int | None = None
    tof_proba: float | None = None
    tof_signal: int | None = None
    direction: int = 0
    position_state: str = "flat"


@dataclass
class RowTrace:
    stockname: str
    rows: list[TraceRow] = field(default_factory=list)
    positions: list[Position] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        def cell(v: object) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "date",
                    "cp_proba",
                    "cp_signal",
                    "window_id",
                    "tof_proba",
                    "tof_signal",
                    "direction",
                    "position_state",
                ]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        r.date.isoformat(),
                        cell(r.cp_proba),
                        r.cp_signal,
                        cell(r.window_id),
                        cell(r.tof_proba),
                        cell(r.tof_signal),
                        r.direction,
                        r.position_state,
                    ]
                )


def reference_trace_csv(trace: SignalTrace, path: str | Path) -> None:
    """One row per day: an empty cell for no answer and for window 0, floats as ``repr``."""

    def answers(probas: np.ndarray) -> list[str]:
        return ["" if p != p else repr(p) for p in probas.tolist()]  # NaN != NaN

    rows = zip(
        [Date.fromordinal(d).isoformat() for d in trace.days.tolist()],
        answers(trace.cp_proba),
        map(str, trace.cp_signal.tolist()),
        [str(w) if w else "" for w in trace.window_id.tolist()],
        answers(trace.tof_proba),
        ["" if s < 0 else str(s) for s in trace.tof_signal.tolist()],
        map(str, trace.direction.tolist()),
        trace.position_state.tolist(),
    )
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        # no cell needs CSV quoting: join each row as csv.writer would
        handle.write(",".join(TRACE_COLUMNS) + "\r\n")
        handle.writelines(",".join(row) + "\r\n" for row in rows)


def row_oracle_cp_scorer(windows: Sequence[ExpertWindow], quotes: QuoteSeries) -> RowCpScorer:
    """Fires with probability 1 exactly on the true window start rows."""
    starts = set(quotes.rows_of(_days([w.start_date for w in windows])).tolist())
    return lambda t, row: 1.0 if t in starts else 0.0


def row_oracle_tof_scorer(windows: Sequence[ExpertWindow], quotes: QuoteSeries) -> RowTofScorer:
    """Answers 1 iff the window containing the prefix start is a trend."""
    bounds = [
        (*quotes.rows_of(_days([w.start_date, w.end_date])).tolist(), w.tendency == TREND)
        for w in windows
    ]

    def score(start: int, t: int, row: TofRow) -> float:
        for lo, hi, is_trend in bounds:
            if lo <= start <= hi:
                return 1.0 if is_trend else 0.0
        return 0.0

    return score


def reference_run_pipeline(
    series: QuoteSeries,
    cp_model: gbdt.GbdtModel | RowCpScorer,
    tof_model: gbdt.GbdtModel | RowTofScorer,
    cfg: PipelineConfig | None = None,
    log_mode: bool = True,
) -> tuple[RowTrace, StockStats]:
    cfg = cfg or PipelineConfig()
    n = len(series)
    if n < 2 * CP_LAG_DAYS + 1:
        raise SeriesTooShortError(f"{series.stockname}: {n} bars < {2 * CP_LAG_DAYS + 1}")
    if isinstance(cp_model, gbdt.GbdtModel):
        cp_score = lambda t, row: gbdt.predict_row_proba(cp_model, row)  # noqa: E731
    else:
        cp_score = cp_model
    if isinstance(tof_model, gbdt.GbdtModel):
        tof_score = lambda start, t, row: gbdt.predict_row_proba(tof_model, np.array(row))  # noqa: E731
    else:
        tof_score = tof_model

    closes = series.closes
    volumes = series.volumes
    dates = series.dates
    ts, cp_X = cp_feature_matrix(series, log_mode=log_mode)
    row_of_t = {int(t): i for i, t in enumerate(ts)}

    trace = RowTrace(stockname=series.stockname)
    window_start: int | None = None
    window_id = 0
    window_had_position = False
    entry_row: int | None = None
    entry_direction = 0

    def close_position(exit_row: int, reason: str) -> None:
        nonlocal entry_row, entry_direction
        assert entry_row is not None
        trace.positions.append(
            Position(
                stockname=series.stockname,
                direction=entry_direction,
                entry_date=dates[entry_row],
                exit_date=dates[exit_row],
                entry_close=float(closes[entry_row]),
                exit_close=float(closes[exit_row]),
                entry_row=entry_row,
                exit_row=exit_row,
                profit=trend_profit(float(closes[entry_row]), float(closes[exit_row]), entry_direction),
                exit_reason=reason,
            )
        )
        entry_row = None
        entry_direction = 0

    for d in range(n):
        row = TraceRow(date=dates[d])
        opened_today = False
        closed_today = False

        t = d - CP_LAG_DAYS
        if t in row_of_t:
            proba = cp_score(t, cp_X[row_of_t[t]])
            row.cp_proba = proba
            if proba >= cfg.cp_threshold:
                row.cp_signal = 1
                if entry_row is not None:
                    close_position(d, "changepoint")
                    closed_today = True
                window_id += 1
                window_start = t
                window_had_position = False

        if window_start is not None:
            row.window_id = window_id
            if d - window_start + 1 >= cfg.min_window_days:
                prefix = (closes[window_start : d + 1], volumes[window_start : d + 1])
                if log_mode:
                    prefix = tuple(map(np.log, prefix))
                tof_row = tof_features(WindowSums(*prefix), d - window_start + 1)
                proba = tof_score(window_start, d, tof_row)
                signal = int(proba >= cfg.tof_threshold)
                row.tof_proba = proba
                row.tof_signal = signal
                if signal == 1 and entry_row is None and not window_had_position:
                    entry_row = d
                    entry_direction = 1 if tof_row.reg_close >= 0.0 else -1
                    window_had_position = True
                    opened_today = True
                elif signal == 0 and entry_row is not None and not cfg.hold_until_changepoint:
                    close_position(d, "tof_flat")
                    closed_today = True

        row.direction = entry_direction
        if opened_today and closed_today:
            row.position_state = "exit_enter"
        elif opened_today:
            row.position_state = "enter"
        elif closed_today:
            row.position_state = "exit"
        elif entry_row is not None:
            row.position_state = "in"
        else:
            row.position_state = "flat"
        trace.rows.append(row)

    if entry_row is not None:
        close_position(n - 1, "series_end")
        trace.rows[-1].position_state = "exit"
        trace.rows[-1].direction = trace.positions[-1].direction

    return trace, StockStats.from_positions(series.stockname, trace.positions)


def reference_backtest_span(series: QuoteSeries, split_date: Date) -> QuoteSeries | None:
    """``pipeline.backtest_span`` by ``bisect`` over the dates."""
    sliced = series[bisect.bisect_left(series.dates, split_date) :]
    return sliced if len(sliced) >= CP_MIN_BARS else None


def reference_clip_windows_to_span(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries
) -> list[ExpertWindow]:
    """``pipeline.clip_windows_to_span`` by ``bisect`` over the dates, one window at a time."""
    dates = quotes.dates
    out: list[ExpertWindow] = []
    for w in windows:
        s = bisect.bisect_left(dates, w.start_date)  # first row at or after the start
        e = bisect.bisect_right(dates, w.end_date) - 1  # last row at or before the end
        if s <= e:
            out.append(replace(w, start_date=dates[s], end_date=dates[e]))
    return out
