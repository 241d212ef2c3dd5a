"""Regime-switching market simulator with ground truth and noisy experts.

Log close follows a per-regime drift plus Gaussian noise; each day is built
from eight intraday sub-steps of the same walk so open/high/low/close are
consistent by construction. Expert simulation perturbs the true windows with
three independent noise sources: boundary jitter (imprecise clicks),
tendency flips (disagreement about what a period is) and split/merge events
(one trader's single long trend is another's two shorter ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date as Date, timedelta
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError
from .labels import ExpertWindow
from .market_data import FLAT, TREND, ExpertLabelRow, QuoteSeries

SUBSTEPS = 8
VOLUME_NOISE = 0.2
TREND_LENGTH_BOUNDS = (40, 600)


@dataclass(frozen=True)
class RegimeSpec:
    """One stretch of the walk: up/down drift or a driftless flat."""

    kind: str  # "up" | "down" | "flat"
    length: int
    drift: float
    volatility: float
    volume_level: float = 1_000_000.0
    volume_trend: float = 0.0

    def validate(self) -> None:
        if self.kind not in ("up", "down", "flat"):
            raise ConfigError(f"unknown regime kind {self.kind!r}")
        if self.length < 1:
            raise ConfigError("regime length must be >= 1")
        if self.volatility < 0.0:
            raise ConfigError("volatility must be >= 0")
        if self.kind == "up" and self.drift <= 0.0:
            raise ConfigError("up regimes need positive drift")
        if self.kind == "down" and self.drift >= 0.0:
            raise ConfigError("down regimes need negative drift")
        if self.kind == "flat" and self.drift != 0.0:
            raise ConfigError("flat regimes need zero drift")
        if self.volume_level <= 0.0:
            raise ConfigError("volume_level must be positive")


@dataclass(frozen=True)
class SamplerConfig:
    """Random regime sequence: trends alternate with flats until n_days."""

    n_days: int
    trend_length: tuple[int, int] = TREND_LENGTH_BOUNDS
    flat_length: tuple[int, int] = (20, 200)
    drift_range: tuple[float, float] = (0.0015, 0.004)
    volatility_range: tuple[float, float] = (0.004, 0.012)
    start_flat_prob: float = 0.5
    volume_level: float = 1_000_000.0
    trend_volume_trend: float = 0.003

    def validate(self) -> None:
        if self.n_days < 1:
            raise ConfigError("n_days must be >= 1")
        lo, hi = self.trend_length
        if not (TREND_LENGTH_BOUNDS[0] <= lo <= hi <= TREND_LENGTH_BOUNDS[1]):
            raise ConfigError(f"trend lengths must stay within {TREND_LENGTH_BOUNDS}")
        if self.flat_length[0] < 1 or self.flat_length[0] > self.flat_length[1]:
            raise ConfigError("bad flat_length bounds")
        if self.drift_range[0] <= 0.0:
            raise ConfigError("drift_range must be positive (sign is drawn per regime)")


@dataclass(frozen=True)
class ExpertProfile:
    """Noise knobs for one simulated expert; all-zero means a perfect copy."""

    jitter_days: int = 0
    disagree_prob: float = 0.0
    split_merge_prob: float = 0.0

    def validate(self) -> None:
        if self.jitter_days < 0:
            raise ConfigError("jitter_days must be >= 0")
        for p in (self.disagree_prob, self.split_merge_prob):
            if not 0.0 <= p <= 1.0:
                raise ConfigError("probabilities must lie in [0, 1]")


def business_dates(start: Date, n: int) -> list[Date]:
    """n consecutive weekdays starting at (or after) start."""
    out: list[Date] = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def sample_regimes(cfg: SamplerConfig, rng: np.random.Generator) -> list[RegimeSpec]:
    cfg.validate()
    regimes: list[RegimeSpec] = []
    total = 0
    is_flat = bool(rng.random() < cfg.start_flat_prob)
    while total < cfg.n_days:
        volatility = float(rng.uniform(*cfg.volatility_range))
        if is_flat:
            length = int(rng.integers(cfg.flat_length[0], cfg.flat_length[1] + 1))
            regimes.append(
                RegimeSpec(
                    kind="flat",
                    length=length,
                    drift=0.0,
                    volatility=volatility,
                    volume_level=cfg.volume_level,
                )
            )
        else:
            length = int(rng.integers(cfg.trend_length[0], cfg.trend_length[1] + 1))
            magnitude = float(rng.uniform(*cfg.drift_range))
            up = bool(rng.random() < 0.5)
            regimes.append(
                RegimeSpec(
                    kind="up" if up else "down",
                    length=length,
                    drift=magnitude if up else -magnitude,
                    volatility=volatility,
                    volume_level=cfg.volume_level,
                    volume_trend=cfg.trend_volume_trend,
                )
            )
        total += length
        is_flat = not is_flat

    excess = total - cfg.n_days
    if excess > 0:
        last = regimes[-1]
        trimmed = last.length - excess
        if last.kind != "flat" and trimmed < cfg.trend_length[0]:
            # a truncated trend would violate the length bounds; pad flat instead
            regimes[-1] = RegimeSpec(
                kind="flat",
                length=trimmed,
                drift=0.0,
                volatility=last.volatility,
                volume_level=cfg.volume_level,
            )
        else:
            regimes[-1] = replace(last, length=trimmed)
    return regimes


def gen_series(
    regimes: Sequence[RegimeSpec] | SamplerConfig,
    seed: int | Sequence[int],
    stockname: str = "SYN",
    start_date: Date = Date(2010, 1, 4),
    start_price: float = 100.0,
) -> tuple[QuoteSeries, list[ExpertWindow]]:
    """Simulate one stock and return it with its true windows."""
    rng = np.random.default_rng(seed)
    if isinstance(regimes, SamplerConfig):
        regimes = sample_regimes(regimes, rng)
    regimes = list(regimes)
    if not regimes:
        raise ConfigError("need at least one regime")
    for r in regimes:
        r.validate()

    n_days = sum(r.length for r in regimes)
    dates = business_dates(start_date, n_days)
    opens, highs, lows, closes, volumes = [], [], [], [], []
    windows: list[ExpertWindow] = []
    log_close = math.log(start_price)
    row = 0
    for r in regimes:
        incs = rng.normal(
            r.drift / SUBSTEPS, r.volatility / math.sqrt(SUBSTEPS), size=(r.length, SUBSTEPS)
        )
        paths = log_close + np.cumsum(incs.reshape(-1)).reshape(r.length, SUBSTEPS)
        vol_noise = rng.normal(0.0, VOLUME_NOISE, size=r.length)
        log_vol = math.log(r.volume_level) + r.volume_trend * np.arange(r.length) + vol_noise
        volumes.append(np.maximum(1.0, np.round(np.exp(log_vol))))
        days = np.exp(paths)
        opens.append(days[:, 0])
        highs.append(days.max(axis=1))
        lows.append(days.min(axis=1))
        closes.append(days[:, -1])
        log_close = float(paths[-1, -1])
        windows.append(
            ExpertWindow(
                stockname=stockname,
                expert="truth",
                start_date=dates[row],
                end_date=dates[row + r.length - 1],
                tendency=FLAT if r.kind == "flat" else TREND,
                direction={"up": 1, "down": -1, "flat": 0}[r.kind],
            )
        )
        row += r.length
    columns = (np.concatenate(c) for c in (opens, highs, lows, closes, volumes))
    return QuoteSeries(stockname, dates, *columns), windows


@dataclass(frozen=True)
class _Segment:
    start: int
    end: int
    tendency: str


def _split_merge(
    segments: list[_Segment], prob: float, rng: np.random.Generator
) -> list[_Segment]:
    out: list[_Segment] = []
    i = 0
    while i < len(segments):
        seg = segments[i]
        act = rng.random() < prob
        if act and rng.random() < 0.5 and seg.end - seg.start + 1 >= 4:
            cut = int(rng.integers(seg.start + 2, seg.end))
            out.append(_Segment(seg.start, cut - 1, seg.tendency))
            out.append(_Segment(cut, seg.end, seg.tendency))
            i += 1
        elif act and i + 1 < len(segments):
            nxt = segments[i + 1]
            longer = seg if (seg.end - seg.start) >= (nxt.end - nxt.start) else nxt
            out.append(_Segment(seg.start, nxt.end, longer.tendency))
            i += 2
        else:
            out.append(seg)
            i += 1
    return out


def gen_expert_labels(
    true_windows: Sequence[ExpertWindow],
    profile: ExpertProfile,
    seed: int | Sequence[int],
    series: QuoteSeries,
    name: str = "A",
) -> list[ExpertLabelRow]:
    """Emit per-day label rows for one noisy expert derived from the truth.

    With an all-zero profile the rows reproduce the true windows exactly.
    Jittered internal boundaries stay within jitter_days rows of their true
    position and every window keeps at least one day.
    """
    profile.validate()
    if not true_windows:
        raise EmptyInputError("no true windows")
    rng = np.random.default_rng(seed)
    segments = [
        _Segment(
            start=series.index_of(w.start_date),
            end=series.index_of(w.end_date),
            tendency=w.tendency,
        )
        for w in true_windows
    ]

    if profile.split_merge_prob > 0.0:
        segments = _split_merge(segments, profile.split_merge_prob, rng)

    if profile.disagree_prob > 0.0:
        segments = [
            replace(s, tendency=(FLAT if s.tendency == TREND else TREND))
            if rng.random() < profile.disagree_prob
            else s
            for s in segments
        ]

    starts = [s.start for s in segments]
    span_end = segments[-1].end
    if profile.jitter_days > 0:
        j = profile.jitter_days
        for i in range(1, len(segments)):
            true_start = segments[i].start
            next_bound = segments[i + 1].start - 1 if i + 1 < len(segments) else span_end
            lo = max(starts[i - 1] + 1, true_start - j)
            hi = min(next_bound, true_start + j)
            if lo > hi:
                starts[i] = true_start
            else:
                delta = int(rng.integers(-j, j + 1))
                starts[i] = min(max(true_start + delta, lo), hi)

    rows: list[ExpertLabelRow] = []
    dates = series.dates
    for k, seg in enumerate(segments):
        start = starts[k]
        end = starts[k + 1] - 1 if k + 1 < len(segments) else span_end
        for r in range(start, end + 1):
            rows.append(
                ExpertLabelRow(
                    date=dates[r],
                    stockname=series.stockname,
                    id_select=k + 1,
                    tendency=seg.tendency,
                    expert=name,
                )
            )
    return rows


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
    detectable = [
        (series.index_of(w.start_date), w)
        for w in windows
        if 5 <= series.index_of(w.start_date) <= n - 6
    ]
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
