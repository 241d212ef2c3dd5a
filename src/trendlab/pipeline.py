"""Two-stage simulation and profit accounting: score a stock once, then walk each config.

Signals become available as they would in real time: the changepoint
features for row t need five future bars, so a positive changepoint answer
for row t acts on day t+5 and starts a window at row t. Neither stage's
answers depend on the changepoint threshold, so a ``StockScores`` scores a
stock once for every config of a sweep: every changepoint row in one call,
then, in one more call, each (window start, day) prefix that some config's
windows ask about, from the window's first possible entry day
(``PipelineConfig.entry_lag``) on. ``run_pipeline`` then walks one config's
windows over those answers. The first positive trend/flat answer in a window
opens a position at that day's close, with the direction latched from the
sign of the prefix's close-slope feature. A position closes when the
trend/flat answer flips back to flat (unless ``hold_until_changepoint``),
when the next changepoint signal acts, or at the end of the series. No
answer used on day d reads a bar after day d.

The answers, the windows and the position state are stored per day as numpy
columns of a ``SignalTrace``, with NaN for a missing answer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import gbdt
from .errors import ConfigError, SeriesTooShortError, ShapeError
from .features import TOF_FEATURE_NAMES, WindowSums, _log_bars, cp_feature_matrix, tof_features
from .labels import ExpertWindow
from .market_data import TREND, QuoteSeries, _write_json

BUSINESS_DAYS_PER_YEAR = 250
CP_LAG_DAYS = 5

# Batch scorers: one probability per row. ``score(ts, X)`` gets the cp rows'
# series indices; ``score(starts, days, X)`` gets each trend/flat prefix's window
# start and last day.
CpScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]
TofScorer = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PipelineConfig:
    cp_threshold: float = 0.5
    tof_threshold: float = 0.5
    min_window_days: int = 6
    log_mode: bool = True
    hold_until_changepoint: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.cp_threshold < 1.0 or not 0.0 < self.tof_threshold < 1.0:
            raise ConfigError("thresholds must lie strictly inside (0, 1)")
        if self.min_window_days < 2:
            raise ConfigError("min_window_days must be >= 2")

    @property
    def entry_lag(self) -> int:
        """Rows between a window start and its first possible entry day."""
        return max(CP_LAG_DAYS, self.min_window_days - 1)


@dataclass(frozen=True)
class Position:
    stockname: str
    direction: int
    entry_date: Date
    exit_date: Date
    entry_close: float
    exit_close: float
    entry_row: int
    exit_row: int
    profit: float
    exit_reason: str

    @property
    def days_in(self) -> int:
        return self.exit_row - self.entry_row + 1


# The nine position totals of StockStats and BacktestReport, each with its report key.
REPORT_KEYS = {
    "profit": "Profit",
    "days_in": "Days_in",
    "times_in": "Times_in",
    "profit_lng": "Profit_lng",
    "days_in_lng": "Days_in_lng",
    "times_in_lng": "Times_in_lng",
    "profit_sht": "Profit_sht",
    "days_in_sht": "Days_in_sht",
    "times_in_sht": "Times_in_sht",
}

TRACE_COLUMNS = (
    "date",
    "cp_proba",
    "cp_signal",
    "window_id",
    "tof_proba",
    "tof_signal",
    "direction",
    "position_state",
)


@dataclass
class SignalTrace:
    """One stock's per-day answers as columns, plus the positions they opened.

    Every column has one entry per day of the series. ``cp_proba`` and
    ``tof_proba`` are NaN on days without an answer, and ``tof_signal`` is -1
    there. ``window_id`` counts the changepoints that have acted (0 before the
    first) and ``window_start`` is the row the current window starts at (-1
    before the first). ``direction`` is the open position's direction (0 when
    flat) and ``position_state`` one of "flat", "in", "enter", "exit" and
    "exit_enter".
    """

    stockname: str
    dates: tuple[Date, ...]
    cp_proba: np.ndarray
    cp_signal: np.ndarray
    window_id: np.ndarray
    window_start: np.ndarray
    tof_proba: np.ndarray
    tof_signal: np.ndarray
    direction: np.ndarray
    position_state: np.ndarray
    positions: list[Position]

    def to_csv(self, path: str | Path) -> None:
        """One row per day: an empty cell for no answer and for window 0, floats as ``repr``."""

        def answers(probas: np.ndarray) -> list[str]:
            return ["" if p != p else repr(p) for p in probas.tolist()]  # NaN != NaN

        rows = zip(
            [d.isoformat() for d in self.dates],
            answers(self.cp_proba),
            map(str, self.cp_signal.tolist()),
            [str(w) if w else "" for w in self.window_id.tolist()],
            answers(self.tof_proba),
            ["" if s < 0 else str(s) for s in self.tof_signal.tolist()],
            map(str, self.direction.tolist()),
            self.position_state.tolist(),
        )
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            # no cell needs CSV quoting: join each row as csv.writer would
            handle.write(",".join(TRACE_COLUMNS) + "\r\n")
            handle.writelines(",".join(row) + "\r\n" for row in rows)


@dataclass(frozen=True)
class StockStats:
    stockname: str
    profit: float = 0.0
    days_in: int = 0
    times_in: int = 0
    profit_lng: float = 0.0
    days_in_lng: int = 0
    times_in_lng: int = 0
    profit_sht: float = 0.0
    days_in_sht: int = 0
    times_in_sht: int = 0

    @classmethod
    def from_positions(cls, stockname: str, positions: Sequence[Position]) -> "StockStats":
        longs = [p for p in positions if p.direction > 0]
        shorts = [p for p in positions if p.direction < 0]
        profit_lng = sum(p.profit for p in longs)
        profit_sht = sum(p.profit for p in shorts)
        days_lng = sum(p.days_in for p in longs)
        days_sht = sum(p.days_in for p in shorts)
        return cls(
            stockname=stockname,
            profit=profit_lng + profit_sht,
            days_in=days_lng + days_sht,
            times_in=len(longs) + len(shorts),
            profit_lng=profit_lng,
            days_in_lng=days_lng,
            times_in_lng=len(longs),
            profit_sht=profit_sht,
            days_in_sht=days_sht,
            times_in_sht=len(shorts),
        )

    def to_dict(self) -> dict:
        totals = {key: getattr(self, name) for name, key in REPORT_KEYS.items()}
        return {"stockname": self.stockname, **totals}


@dataclass(frozen=True)
class BacktestReport:
    num_stocks: int
    profit: float
    days_in: int
    times_in: int
    profit_lng: float
    days_in_lng: int
    times_in_lng: int
    profit_sht: float
    days_in_sht: int
    times_in_sht: int
    num_datapoints: int
    day_profit: float
    year_profit: float
    year_profit_avg: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "numStocks": self.num_stocks,
            **{key: getattr(self, name) for name, key in REPORT_KEYS.items()},
            "numDatapoints": self.num_datapoints,
            "DayProfit": self.day_profit,
            "YearProfit": self.year_profit,
            "YearProfit_avg": self.year_profit_avg,
            "flags": list(self.flags),
        }


def trend_profit(entry_close: float, exit_close: float, direction: int) -> float:
    """Fractional profit of one position: long gains on rises, short on falls."""
    if entry_close <= 0.0:
        raise ValueError("entry_close must be positive")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return direction * (exit_close - entry_close) / entry_close


def aggregate(stats: Sequence[StockStats], num_datapoints: int) -> BacktestReport:
    """Totals plus the per-day and annualized profit indicators."""
    if num_datapoints <= 0:
        raise ValueError("num_datapoints must be positive")
    flags: list[str] = []
    totals = {name: sum(getattr(s, name) for s in stats) for name in REPORT_KEYS}
    profit, days_in = totals["profit"], totals["days_in"]
    if days_in == 0:
        flags.append("no_days_in_position")
        day_profit = 0.0
    else:
        day_profit = profit / days_in
    return BacktestReport(
        num_stocks=len(stats),
        **totals,
        num_datapoints=num_datapoints,
        day_profit=day_profit,
        year_profit=day_profit * BUSINESS_DAYS_PER_YEAR,
        year_profit_avg=profit / num_datapoints * BUSINESS_DAYS_PER_YEAR,
        flags=tuple(flags),
    )


def save_report(report: BacktestReport, path: str | Path, per_stock: Sequence[StockStats] = ()) -> None:
    doc = report.to_dict()
    if per_stock:
        doc["per_stock"] = [s.to_dict() for s in per_stock]
    _write_json(doc, path)


def save_baseline(
    reports: Mapping[str, BacktestReport], split_date: Date, path: str | Path
) -> None:
    """Write ``baseline_report.json``: the split date and each label source's report."""
    experts = {name: report.to_dict() for name, report in reports.items()}
    _write_json({"split_date": split_date.isoformat(), "experts": experts}, path)


def backtest_span(series: QuoteSeries, split_date: Date) -> QuoteSeries | None:
    """The rows of ``series`` from ``split_date`` on; None when too few to score."""
    sliced = series[bisect.bisect_left(series.dates, split_date) :]
    return sliced if len(sliced) >= 2 * CP_LAG_DAYS + 1 else None


def backtest_spans(
    quotes: Mapping[str, QuoteSeries], split_date: Date
) -> tuple[dict[str, QuoteSeries], tuple[str, ...]]:
    """Each stock's ``backtest_span`` by name, and a flag for each stock too short to keep.

    Every profit report, of a backtest or of the labels themselves, is made on
    these spans. Raises ``SeriesTooShortError`` when no stock keeps a span.
    """
    spans: dict[str, QuoteSeries] = {}
    flags: list[str] = []
    for stock in sorted(quotes):
        span = backtest_span(quotes[stock], split_date)
        if span is None:
            flags.append(f"skipped_short_test_span:{stock}")
        else:
            spans[stock] = span
    if not spans:
        raise SeriesTooShortError("no stock had a long enough test span")
    return spans, tuple(flags)


def _score(
    model: gbdt.GbdtModel | CpScorer | TofScorer, X: np.ndarray, *keys: np.ndarray
) -> np.ndarray:
    """One stage's probabilities for every row of ``X``, in one call."""
    if isinstance(model, gbdt.GbdtModel):
        probas = gbdt.predict_proba(model, X)
    else:
        probas = np.asarray(model(*keys, X), dtype=np.float64)
    if probas.shape != (len(X),):
        raise ShapeError(f"scorer returned shape {probas.shape} for {len(X)} rows")
    # NaN marks a missing answer in the trace, so a scorer may not return one
    if not np.all((probas >= 0.0) & (probas <= 1.0)):
        raise ShapeError("scorer returned a probability that is not a number in [0, 1]")
    return probas


def _position(
    series: QuoteSeries, entry_row: int, exit_row: int, direction: int, reason: str
) -> Position:
    """The position held from ``entry_row``'s close to ``exit_row``'s close."""
    entry_close, exit_close = float(series.closes[entry_row]), float(series.closes[exit_row])
    return Position(
        stockname=series.stockname,
        direction=direction,
        entry_date=series.dates[entry_row],
        exit_date=series.dates[exit_row],
        entry_close=entry_close,
        exit_close=exit_close,
        entry_row=entry_row,
        exit_row=exit_row,
        profit=trend_profit(entry_close, exit_close, direction),
        exit_reason=reason,
    )


def oracle_cp_scorer(windows: Sequence[ExpertWindow], quotes: QuoteSeries) -> CpScorer:
    """Fires with probability 1 exactly on the true window start rows."""
    fires = np.zeros(len(quotes))
    fires[[quotes.index_of(w.start_date) for w in windows]] = 1.0
    return lambda ts, X: fires[ts]


def oracle_tof_scorer(windows: Sequence[ExpertWindow], quotes: QuoteSeries) -> TofScorer:
    """Answers 1 iff the window containing the prefix start is a trend."""
    is_trend = np.zeros(len(quotes))
    for w in reversed(windows):  # the first window that holds a row decides it
        lo, hi = quotes.index_of(w.start_date), quotes.index_of(w.end_date)
        is_trend[lo : hi + 1] = 1.0 if w.tendency == TREND else 0.0
    return lambda starts, days, X: is_trend[starts]


def _windows(
    cp_signal: np.ndarray, entry_lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The windows that 0/1 changepoint signals open, and the days the trend/flat stage scores.

    Returns the days each changepoint acts on, each day's window id (0 until
    the first changepoint acts) and window start row (-1 before it), and the
    days at least ``entry_lag`` rows past their window's start.
    """
    fired = np.flatnonzero(cp_signal)
    window_id = np.cumsum(cp_signal, dtype=np.int64)
    window_start = np.append(-1, fired - CP_LAG_DAYS)[window_id]
    offsets = np.arange(len(cp_signal)) - window_start
    days = np.flatnonzero((window_id > 0) & (offsets >= entry_lag))
    return fired, window_id, window_start, days


def _runs(starts: np.ndarray) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of each run of equal values in the sorted ``starts``."""
    firsts = np.flatnonzero(np.diff(starts, prepend=-1)).tolist()
    return list(zip(firsts, firsts[1:] + [len(starts)]))


class StockScores:
    """Both stages' answers about one stock, scored once for every config of a sweep.

    ``cp`` answers each changepoint row in one call. The answer about row t
    becomes actionable on day t + CP_LAG_DAYS, and ``cp_proba`` holds each
    day's answer, NaN on days without one. Each config's threshold turns these
    answers into windows, and ``tof`` answers each distinct (window start,
    day) prefix of any of them in one more call: one ``WindowSums`` per start,
    over the longest window a config gives it. A prefix has the same bits from
    any window that holds it, so each config's run reads the answers and
    features it would have scored alone. The configs must share ``log_mode``,
    the space the features are taken in.
    """

    def __init__(
        self,
        series: QuoteSeries,
        cp: gbdt.GbdtModel | CpScorer,
        tof: gbdt.GbdtModel | TofScorer,
        configs: Sequence[PipelineConfig],
    ) -> None:
        n = len(series)
        if n < 2 * CP_LAG_DAYS + 1:
            raise SeriesTooShortError(f"{series.stockname}: {n} bars < {2 * CP_LAG_DAYS + 1}")
        if len({cfg.log_mode for cfg in configs}) != 1:
            raise ConfigError("stock scores need configs that share one log_mode")
        self.series = series
        self.configs = tuple(configs)
        self.log_mode = configs[0].log_mode
        ts, cp_X = cp_feature_matrix(series, log_mode=self.log_mode)
        self.cp_proba = np.full(n, np.nan)
        self.cp_proba[ts + CP_LAG_DAYS] = _score(cp, cp_X, ts)
        self.cp_proba.flags.writeable = False  # every config's trace shares it

        keys = []
        for cfg in configs:
            _, _, window_start, days = _windows(self.cp_proba >= cfg.cp_threshold, cfg.entry_lag)
            keys.append(window_start[days] * n + days)
        self._keys = np.unique(np.concatenate(keys))
        starts, days = np.divmod(self._keys, n)

        closes, volumes = series.closes, series.volumes
        if self.log_mode:
            closes, volumes = _log_bars(closes, volumes)
        self.sums: dict[int, WindowSums] = {}
        rows = [np.empty((0, len(TOF_FEATURE_NAMES)))]
        for lo, hi in _runs(starts):
            s = int(starts[lo])
            lengths = days[lo:hi] - s + 1
            first, last = int(lengths[0]), int(lengths[-1])
            sums = self.sums[s] = WindowSums(closes[s : s + last], volumes[s : s + last])
            rows.append(sums.prefix_rows(first, last)[lengths - first])
        self._probas = _score(tof, np.concatenate(rows), starts, days)

    def __len__(self) -> int:
        return len(self.series)

    def proba(self, starts: np.ndarray, days: np.ndarray) -> np.ndarray:
        """The trend/flat answer about each prefix from row ``starts[i]`` to row ``days[i]``.

        Raises ``ConfigError`` on a prefix that no config of the scores asks about.
        """
        keys = np.asarray(starts) * len(self) + np.asarray(days)
        at = np.searchsorted(self._keys, keys)
        lacking = np.flatnonzero(np.append(self._keys, -1)[at] != keys)  # -1: past the last key
        if lacking.size:
            i = int(lacking[0])
            raise ConfigError(
                f"{self.series.stockname}: no trend/flat answer about the prefix "
                f"from row {int(starts[i])} to row {int(days[i])}"
            )
        return self._probas[at]


def run_pipeline(scores: StockScores, cfg: PipelineConfig) -> tuple[SignalTrace, StockStats]:
    """Walk the days of one config of ``scores`` in order, and trade."""
    series = scores.series
    if cfg not in scores.configs:
        raise ConfigError(f"{series.stockname}: the stock was not scored for {cfg}")
    n = len(scores)

    # 1. The changepoint signals and the windows they open, then the answer
    #    about every prefix the walk asks about and its features from the sums.
    cp_signal = (scores.cp_proba >= cfg.cp_threshold).astype(np.int64)
    fired, window_id, window_start, days = _windows(cp_signal, cfg.entry_lag)
    starts = window_start[days]
    tof_proba = np.full(n, np.nan)
    tof_proba[days] = scores.proba(starts, days)
    tof_rows = []
    for lo, hi in _runs(starts):
        s = int(starts[lo])
        sums = scores.sums[s]
        tof_rows.extend(tof_features(sums, d - s + 1) for d in days[lo:hi].tolist())
    tof_X = np.array(tof_rows, dtype=np.float64).reshape(-1, len(TOF_FEATURE_NAMES))
    tof_signal = np.full(n, -1, dtype=np.int64)
    tof_signal[days] = tof_proba[days] >= cfg.tof_threshold
    trend_direction = np.zeros(n, dtype=np.int64)
    trend_direction[days] = np.where(tof_X[:, 0] >= 0.0, 1, -1)

    # 2. The position state machine, one window at a time. A window trades at
    #    most once: its first trend answer opens a position at that day's close,
    #    and the position closes on the window's next flat answer (unless
    #    holding), on the day the next changepoint acts, or at the series end.
    direction = np.zeros(n, dtype=np.int64)
    state = np.full(n, "flat", dtype="<U10")
    positions: list[Position] = []
    bounds = np.append(fired, n).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        trend_days = np.flatnonzero(tof_signal[lo:hi] == 1)
        if not trend_days.size:
            continue
        entry = lo + int(trend_days[0])
        flat_days = np.flatnonzero(tof_signal[entry:hi] == 0)
        if flat_days.size and not cfg.hold_until_changepoint:
            exit_row, reason = entry + int(flat_days[0]), "tof_flat"
        elif hi < n:
            exit_row, reason = hi, "changepoint"
        else:
            exit_row, reason = n - 1, "series_end"
        sign = int(trend_direction[entry])
        positions.append(_position(series, entry, exit_row, sign, reason))
        # the exit day shows no direction, except at the series end
        direction[entry : exit_row + (reason == "series_end")] = sign
        state[entry + 1 : exit_row] = "in"
        state[entry] = "exit_enter" if state[entry] == "exit" else "enter"
        state[exit_row] = "exit"

    trace = SignalTrace(
        stockname=series.stockname,
        dates=series.dates,
        cp_proba=scores.cp_proba,
        cp_signal=cp_signal,
        window_id=window_id,
        window_start=window_start,
        tof_proba=tof_proba,
        tof_signal=tof_signal,
        direction=direction,
        position_state=state,
        positions=positions,
    )
    return trace, StockStats.from_positions(series.stockname, positions)


def clip_windows_to_span(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries
) -> list[ExpertWindow]:
    """Restrict windows to the dates of ``quotes``, trimming the ones that straddle its ends.

    Window dates need not exist in ``quotes``; boundaries snap inward to the
    nearest covered row, so this re-bases windows onto a sliced series.
    """
    dates = quotes.dates
    out: list[ExpertWindow] = []
    for w in windows:
        s = bisect.bisect_left(dates, w.start_date)  # first row at or after the start
        e = bisect.bisect_right(dates, w.end_date) - 1  # last row at or before the end
        if s <= e:
            out.append(replace(w, start_date=dates[s], end_date=dates[e]))
    return out


def expert_position_stats(series: QuoteSeries, windows: Sequence[ExpertWindow]) -> StockStats:
    """Positions an expert's labels imply: every trend window held end to end."""
    index_of = series.index_of
    positions = [
        _position(series, index_of(w.start_date), index_of(w.end_date), w.direction, "window_end")
        for w in windows
        if w.tendency == TREND
    ]
    return StockStats.from_positions(series.stockname, positions)


def expert_baseline(
    windows_by_stock: Mapping[str, Sequence[ExpertWindow]],
    spans: Mapping[str, QuoteSeries],
) -> BacktestReport | None:
    """Profit report of the labels themselves (no lag, perfect hindsight) on the test spans.

    ``spans`` are the ``backtest_spans`` of a backtest. Each stock's windows
    are clipped to its span, and a stock with a window there counts every row
    of its span as datapoints, as a backtest does. None when no window falls
    in a span.
    """
    stats = []
    datapoints = 0
    for stock in sorted(windows_by_stock.keys() & spans.keys()):
        span = spans[stock]
        clipped = clip_windows_to_span(windows_by_stock[stock], span)
        if clipped:
            stats.append(expert_position_stats(span, clipped))
            datapoints += len(span)
    if not stats:
        return None
    return aggregate(stats, num_datapoints=datapoints)
