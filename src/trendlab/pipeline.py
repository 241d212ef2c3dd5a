"""Two-stage simulation and profit accounting: score the stocks once, then walk each config.

Signals become available as they would in real time: the changepoint
features for row t need five future bars, so a positive changepoint answer
for row t acts on day t+5 and starts a window at row t. Neither stage's
answers depend on the changepoint threshold, so ``score_stocks``, the one
builder of ``StockScores``, scores every stock of a backtest once for all
the configs of a sweep: every changepoint row, then every distinct (window
start, day) prefix of each config's ``Windows`` from the window's first
possible entry day (``PipelineConfig.entry_lag``) on. A model scores a stage
of every stock in one call; a scorer, once per stock with its series, so one
oracle of every stock's true windows answers any stock. ``run_pipeline``
then walks one config's windows over one stock's answers. The first positive
trend/flat answer in a window opens a position at that day's close, with the
direction latched from the sign of the prefix's close-slope feature. A
position closes when the trend/flat answer flips back to flat (unless
``hold_until_changepoint``), when the next changepoint signal acts, or at
the end of the series. No answer used on day d reads a bar after day d.

The answers, the windows and the position state are stored per day as numpy
columns of a ``SignalTrace``, with NaN for a missing answer. The trace's text
cells that no threshold changes are formatted once, by the ``StockScores``:
each day's date and changepoint answer, and each distinct prefix's trend/flat
answer. ``SignalTrace.to_csv`` joins that shared text with the run's own
cells, the signals, window ids and position states.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import gbdt
from .errors import ConfigError, SeriesTooShortError, ShapeError
from .features import CP_CONTEXT, CP_MIN_BARS, cp_feature_matrix, prefix_features, tof_features
from .labels import ExpertWindow
from .market_data import TREND, QuoteSeries, _write_json

BUSINESS_DAYS_PER_YEAR = 250
CP_LAG_DAYS = CP_CONTEXT  # a changepoint answer acts once its forward bars are known

# Batch scorers: one probability per row of ``series``. ``score(series, ts, X)``
# gets the cp rows' indices; ``score(series, starts, days, X)`` gets each
# trend/flat prefix's window start and last day.
CpScorer = Callable[[QuoteSeries, np.ndarray, np.ndarray], np.ndarray]
TofScorer = Callable[[QuoteSeries, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PipelineConfig:
    cp_threshold: float = 0.5
    tof_threshold: float = 0.5
    min_window_days: int = 6
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
    "exit_enter". ``lead`` holds each day's ``"<date>,<cp_proba>,"`` and
    ``tof_text`` its ``tof_proba`` cell, as the CSV writes them: the text the
    ``StockScores`` formatted once for every run of the stock.
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
    lead: np.ndarray
    tof_text: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        """One row per day: an empty cell for no answer and for window 0, floats as ``repr``.

        The date and answer cells are the text the ``StockScores`` formatted;
        this run's own cells are gathered from a table of the values they take.
        """
        top = int(self.window_id.max(initial=0))
        ids = np.array([",", *(f"{i}," for i in range(1, top + 1))], dtype=object)
        states, state_code = np.unique(self.position_state, return_inverse=True)
        # ",<tof_signal>,<direction>,<position_state>\r\n" for every value of the three
        tails = np.array(
            [f",{s},{d},{p}\r\n" for s in ("", 0, 1) for d in (-1, 0, 1) for p in states.tolist()],
            dtype=object,
        )
        tail = ((self.tof_signal + 1) * 3 + self.direction + 1) * len(states) + state_code
        signal = np.array(["0,", "1,"], dtype=object)[self.cp_signal]
        cells = np.column_stack([self.lead, signal, ids[self.window_id], self.tof_text, tails[tail]])
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            # no cell needs CSV quoting: join each row as csv.writer would
            handle.write(",".join(TRACE_COLUMNS) + "\r\n")
            handle.write("".join(cells.ravel().tolist()))


def _answer_text(probas: np.ndarray) -> np.ndarray:
    """Each answer's trace cell, read-only: the float's ``repr``, empty for NaN."""
    text = np.array(["" if p != p else repr(p) for p in probas.tolist()], dtype=object)  # NaN != NaN
    text.flags.writeable = False
    return text


def _lead_text(dates: Sequence[Date], cp_proba: np.ndarray) -> np.ndarray:
    """Each day's ``"<date>,<cp_proba>,"``, the first two cells of its trace row, read-only."""
    lead = np.array(
        [f"{d.isoformat()},{p}," for d, p in zip(dates, _answer_text(cp_proba).tolist())],
        dtype=object,
    )
    lead.flags.writeable = False
    return lead


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
    return sliced if len(sliced) >= CP_MIN_BARS else None


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
    model: gbdt.GbdtModel | CpScorer | TofScorer,
    Xs: Sequence[np.ndarray],
    keys: Sequence[tuple[np.ndarray, ...]],
) -> list[np.ndarray]:
    """One stage's probabilities for each stock's rows ``Xs``.

    A model scores the stacked rows of every stock in one call; a scorer is
    called once per stock, with that stock's ``keys`` (its series first) and rows.
    """
    if isinstance(model, gbdt.GbdtModel):
        stacked = gbdt.predict_proba(model, np.concatenate(Xs))
        answers = np.split(stacked, np.cumsum([len(X) for X in Xs[:-1]]))
    else:
        answers = [np.asarray(model(*k, X), dtype=np.float64) for X, k in zip(Xs, keys)]
    for X, probas in zip(Xs, answers):
        if probas.shape != (len(X),):
            raise ShapeError(f"scorer returned shape {probas.shape} for {len(X)} rows")
        # NaN marks a missing answer in the trace, so a scorer may not return one
        if not np.all((probas >= 0.0) & (probas <= 1.0)):
            raise ShapeError("scorer returned a probability that is not a number in [0, 1]")
    return answers


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


def _true_rows(truth: Mapping[str, Sequence[ExpertWindow]], series: QuoteSeries) -> np.ndarray:
    """Per row of ``series``: 1 on a start, and 1 in a trend, of its stock's true windows."""
    rows = np.zeros((2, len(series)))
    for w in reversed(clip_windows_to_span(truth[series.stockname], series)):
        lo, hi = series.index_of(w.start_date), series.index_of(w.end_date)
        rows[0, lo] = 1.0
        rows[1, lo : hi + 1] = 1.0 if w.tendency == TREND else 0.0  # the first window decides
    return rows


def oracle_cp_scorer(truth: Mapping[str, Sequence[ExpertWindow]]) -> CpScorer:
    """Fires with probability 1 exactly on the true window start rows of any stock in ``truth``."""
    return lambda series, ts, X: _true_rows(truth, series)[0, ts]


def oracle_tof_scorer(truth: Mapping[str, Sequence[ExpertWindow]]) -> TofScorer:
    """Answers 1 iff the true window holding the prefix start is a trend, for any stock."""
    return lambda series, starts, days, X: _true_rows(truth, series)[1, starts]


class Windows(NamedTuple):
    """One config's changepoint signals, the windows they open and the trend/flat answers in them.

    ``fired`` holds the days a changepoint acts on and ``days`` those the
    trend/flat stage answers about, at least ``entry_lag`` rows past their
    window's start. The other columns hold one entry per day: ``window_id``
    is 0 and ``window_start`` -1 before the first window, and ``tof_row`` is
    the row of ``StockScores.tof_X`` behind the day's answer, the prefix from
    the window start to that day, or -1 on a day without one.
    """

    cp_signal: np.ndarray
    fired: np.ndarray
    window_id: np.ndarray
    window_start: np.ndarray
    days: np.ndarray
    tof_row: np.ndarray


def _windows(cp_proba: np.ndarray, cfg: PipelineConfig) -> Windows:
    """The windows ``cfg`` finds in the per-day changepoint answers, before any trend/flat answer."""
    cp_signal = (cp_proba >= cfg.cp_threshold).astype(np.int64)
    fired = np.flatnonzero(cp_signal)
    window_id = np.cumsum(cp_signal)
    window_start = np.append(-1, fired - CP_LAG_DAYS)[window_id]
    offsets = np.arange(len(cp_signal)) - window_start
    days = np.flatnonzero((window_id > 0) & (offsets >= cfg.entry_lag))
    tof_row = np.full(len(cp_proba), -1)
    return Windows(cp_signal, fired, window_id, window_start, days, tof_row)


@dataclass(frozen=True, eq=False)
class StockScores:
    """Both stages' answers about one stock, scored once for every config of a sweep.

    ``score_stocks`` is the one builder, for one stock or many. ``cp_proba``
    holds each day's changepoint answer, NaN on days without one: the answer
    about row t becomes actionable on day t + CP_LAG_DAYS. Each config's
    threshold turns these answers into its ``Windows``, derived once and kept
    in ``windows``, keyed by the config. ``tof_X`` holds the rows
    ``features.prefix_features`` builds, as for training, for each distinct
    (window start, day) prefix of all configs, ``tof_proba`` their answers
    and ``tof_text`` the answers' trace cells, each read-only, and each
    config's ``tof_row`` points a day at the row behind its answer. Row -1 of
    ``tof_proba`` and ``tof_text`` is the missing answer, NaN and empty, so
    ``tof_row`` gathers a full column from either. A prefix has the same bits
    from any window that holds it, so each config reads the answers and
    features it would have scored alone.

    The trace text no threshold changes is formatted once: ``lead`` holds
    each day's ``"<date>,<cp_proba>,"``, and ``tof_text`` each distinct
    prefix's answer.
    """

    series: QuoteSeries
    cp_proba: np.ndarray
    lead: np.ndarray
    windows: dict[PipelineConfig, Windows]
    tof_X: np.ndarray
    tof_proba: np.ndarray
    tof_text: np.ndarray

    def __len__(self) -> int:
        return len(self.series)


def score_stocks(
    spans: Mapping[str, QuoteSeries],
    cp: gbdt.GbdtModel | CpScorer,
    tof: gbdt.GbdtModel | TofScorer,
    configs: Sequence[PipelineConfig],
    log_mode: bool,
) -> dict[str, StockScores]:
    """Each stock's ``StockScores`` by name, every stage scored over all the stocks at once.

    Both stages' features are taken in ``log_mode``, the space the models were
    trained in. A model stage scores the stacked rows of every stock in one
    ``gbdt.predict_proba`` call: every changepoint row, then every stock's
    distinct trend/flat prefixes. A scorer is called once per stock and stage,
    with the stock's series and rows. A row's answer does not depend on the
    rows beside it, so a stock gets the bits of ``score_stocks({name: series},
    ...)[name]``.
    """
    for series in spans.values():
        n = len(series)
        if n < CP_MIN_BARS:
            raise SeriesTooShortError(f"{series.stockname}: {n} bars < {CP_MIN_BARS}")
        if not configs:
            raise ConfigError(f"{series.stockname}: no config given to score the stock for")
    if not spans:
        return {}
    cp_rows = [cp_feature_matrix(series, log_mode) for series in spans.values()]
    cp_keys = [(series, ts) for series, (ts, _) in zip(spans.values(), cp_rows)]
    cp_answers = _score(cp, [X for _, X in cp_rows], cp_keys)

    # each stock's windows and the distinct prefixes they ask about
    parts, tof_keys = [], []
    for series, (ts, _), answers in zip(spans.values(), cp_rows, cp_answers):
        n = len(series)
        cp_proba = np.full(n, np.nan)
        cp_proba[ts + CP_LAG_DAYS] = answers
        cp_proba.flags.writeable = False  # every config's trace shares it
        lead = _lead_text(series.dates, cp_proba)
        windows = {cfg: _windows(cp_proba, cfg) for cfg in configs}
        keys = [w.window_start[w.days] * n + w.days for w in windows.values()]
        distinct, which = np.unique(np.concatenate(keys), return_inverse=True)
        at = 0
        for w in windows.values():
            w.tof_row[w.days] = which[at : at + len(w.days)]
            at += len(w.days)
            for column in w:  # every run of the config shares them
                column.flags.writeable = False
        starts, days = np.divmod(distinct, n)
        tof_X = prefix_features(series, starts, days - starts + 1, log_mode)
        tof_X.flags.writeable = False
        parts.append(
            dict(series=series, cp_proba=cp_proba, lead=lead, windows=windows, tof_X=tof_X)
        )
        tof_keys.append((series, starts, days))
    tof_answers = _score(tof, [part["tof_X"] for part in parts], tof_keys)

    scores = {}
    for stock, part, answers in zip(spans, parts, tof_answers):
        tof_proba = np.append(answers, np.nan)
        tof_proba.flags.writeable = False
        scores[stock] = StockScores(**part, tof_proba=tof_proba, tof_text=_answer_text(tof_proba))
    return scores


def run_pipeline(scores: StockScores, cfg: PipelineConfig) -> tuple[SignalTrace, StockStats]:
    """Walk the days of one config of ``scores`` in order, and trade."""
    series = scores.series
    if cfg not in scores.windows:
        raise ConfigError(f"{series.stockname}: the stock was not scored for {cfg}")
    w = scores.windows[cfg]
    n = len(scores)

    tof_proba = scores.tof_proba[w.tof_row]
    tof_signal = np.full(n, -1, dtype=np.int64)
    tof_signal[w.days] = tof_proba[w.days] >= cfg.tof_threshold

    # The position state machine, one window at a time. A window trades at
    # most once: its first trend answer opens a position at that day's close,
    # in the direction of the sign of its prefix's close slope, and the
    # position closes on the window's next flat answer (unless holding), on
    # the day the next changepoint acts, or at the series end.
    direction = np.zeros(n, dtype=np.int64)
    state = np.full(n, "flat", dtype="<U10")
    positions: list[Position] = []
    bounds = np.append(w.fired, n).tolist()
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
        sign = 1 if tof_features(scores.tof_X[w.tof_row[entry]]).reg_close >= 0.0 else -1
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
        cp_signal=w.cp_signal,
        window_id=w.window_id,
        window_start=w.window_start,
        tof_proba=tof_proba,
        tof_signal=tof_signal,
        direction=direction,
        position_state=state,
        positions=positions,
        lead=scores.lead,
        tof_text=scores.tof_text[w.tof_row],
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
