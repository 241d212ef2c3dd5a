"""Regime-switching market simulator with ground truth and noisy experts.

Log close follows a per-regime drift plus Gaussian noise; each day is built
from eight intraday sub-steps of the same walk so open/high/low/close are
consistent by construction. Expert simulation perturbs the true windows with
three independent noise sources: boundary jitter (imprecise clicks),
tendency flips (disagreement about what a period is) and split/merge events
(one trader's single long trend is another's two shorter ones).

``save_truth`` and ``load_truth`` own ``truth.json``, the true windows that
``baseline`` and ``backtest --oracle`` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError, InvariantError, ParseError
from .labels import ExpertWindow, _window_rows
from .market_data import FLAT, TREND, LabelSeries, QuoteSeries, _of_days, _read_json, _write_json

SUBSTEPS = 8
VOLUME_NOISE = 0.2
TREND_LENGTH_BOUNDS = (40, 600)
START_DATE = Date(2010, 1, 4)
START_PRICE = 100.0
START_FLAT_PROB = 0.5  # chance that a sampled sequence opens with a flat
VOLUME_LEVEL = 1_000_000.0  # volume at the start of every regime
TREND_VOLUME_TREND = 0.003  # daily log-volume growth within a sampled trend


@dataclass(frozen=True)
class RegimeSpec:
    """One stretch of the walk: up/down drift or a driftless flat."""

    kind: str  # "up" | "down" | "flat"
    length: int
    drift: float
    volatility: float
    volume_trend: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("up", "down", "flat"):
            raise ConfigError(f"unknown regime kind {self.kind!r}")
        if self.length < 1:
            raise ConfigError("regime length must be >= 1")
        if not 0.0 <= self.volatility < math.inf:
            raise ConfigError("volatility must be finite and >= 0")
        if not math.isfinite(self.drift):
            raise ConfigError("drift must be finite")
        if self.kind == "up" and self.drift <= 0.0:
            raise ConfigError("up regimes need positive drift")
        if self.kind == "down" and self.drift >= 0.0:
            raise ConfigError("down regimes need negative drift")
        if self.kind == "flat" and self.drift != 0.0:
            raise ConfigError("flat regimes need zero drift")


@dataclass(frozen=True)
class SamplerConfig:
    """Random regime sequence: trends alternate with flats until n_days."""

    n_days: int
    trend_length: tuple[int, int] = TREND_LENGTH_BOUNDS
    flat_length: tuple[int, int] = (20, 200)
    drift_range: tuple[float, float] = (0.0015, 0.004)
    volatility_range: tuple[float, float] = (0.004, 0.012)

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise ConfigError("n_days must be >= 1")
        lo, hi = self.trend_length
        if not (TREND_LENGTH_BOUNDS[0] <= lo <= hi <= TREND_LENGTH_BOUNDS[1]):
            raise ConfigError(f"trend lengths must stay within {TREND_LENGTH_BOUNDS}")
        if self.flat_length[0] < 1 or self.flat_length[0] > self.flat_length[1]:
            raise ConfigError("bad flat_length bounds")
        for name in ("drift_range", "volatility_range"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo <= hi < math.inf:
                raise ConfigError(f"{name} must be two finite numbers, low <= high")
        if self.drift_range[0] <= 0.0:
            raise ConfigError("drift_range must be positive (sign is drawn per regime)")
        if self.volatility_range[0] < 0.0:
            raise ConfigError("volatility_range must be >= 0")


@dataclass(frozen=True)
class ExpertProfile:
    """Noise knobs for one simulated expert; all-zero means a perfect copy."""

    jitter_days: int = 0
    disagree_prob: float = 0.0
    split_merge_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.jitter_days < 0:
            raise ConfigError("jitter_days must be >= 0")
        for p in (self.disagree_prob, self.split_merge_prob):
            if not 0.0 <= p <= 1.0:
                raise ConfigError("probabilities must lie in [0, 1]")


def business_dates(start: Date, n: int) -> list[Date]:
    """n consecutive weekdays starting at (or after) start."""
    first = np.busday_offset(np.datetime64(start, "D"), 0, roll="forward")
    return np.busday_offset(first, np.arange(n)).tolist()


def sample_regimes(cfg: SamplerConfig, rng: np.random.Generator) -> list[RegimeSpec]:
    regimes: list[RegimeSpec] = []
    total = 0
    is_flat = bool(rng.random() < START_FLAT_PROB)
    while total < cfg.n_days:
        volatility = float(rng.uniform(*cfg.volatility_range))
        if is_flat:
            length = int(rng.integers(cfg.flat_length[0], cfg.flat_length[1] + 1))
            regimes.append(RegimeSpec(kind="flat", length=length, drift=0.0, volatility=volatility))
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
                    volume_trend=TREND_VOLUME_TREND,
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
                kind="flat", length=trimmed, drift=0.0, volatility=last.volatility
            )
        else:
            regimes[-1] = replace(last, length=trimmed)
    return regimes


def gen_series(
    regimes: Sequence[RegimeSpec] | SamplerConfig,
    seed: int | Sequence[int],
    stockname: str = "SYN",
) -> tuple[QuoteSeries, list[ExpertWindow]]:
    """Simulate one stock and return it with its true windows."""
    rng = np.random.default_rng(seed)
    if isinstance(regimes, SamplerConfig):
        regimes = sample_regimes(regimes, rng)
    regimes = list(regimes)
    if not regimes:
        raise ConfigError("need at least one regime")

    n_days = sum(r.length for r in regimes)
    dates = business_dates(START_DATE, n_days)
    opens, highs, lows, closes, volumes = [], [], [], [], []
    windows: list[ExpertWindow] = []
    log_close = math.log(START_PRICE)
    row = 0
    for r in regimes:
        incs = rng.normal(
            r.drift / SUBSTEPS, r.volatility / math.sqrt(SUBSTEPS), size=(r.length, SUBSTEPS)
        )
        paths = log_close + np.cumsum(incs.reshape(-1)).reshape(r.length, SUBSTEPS)
        vol_noise = rng.normal(0.0, VOLUME_NOISE, size=r.length)
        log_vol = math.log(VOLUME_LEVEL) + r.volume_trend * np.arange(r.length) + vol_noise
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
) -> LabelSeries:
    """Per-day labels of one noisy expert derived from the truth.

    With an all-zero profile the labels reproduce the true windows exactly.
    Jittered internal boundaries stay within jitter_days rows of their true
    position and every window keeps at least one day.
    """
    if not true_windows:
        raise EmptyInputError("no true windows")
    rng = np.random.default_rng(seed)
    segments = [
        _Segment(start, end, w.tendency)
        for w, start, end in zip(true_windows, *_window_rows(true_windows, series))
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

    lengths = np.diff([*starts, span_end + 1])
    return _of_days(
        LabelSeries,
        series.stockname,
        name,
        series.days[starts[0] : span_end + 1],
        np.repeat(np.arange(1, len(segments) + 1, dtype=np.int64), lengths),
        np.repeat([s.tendency == TREND for s in segments], lengths),
    )


def save_truth(
    windows_by_stock: Mapping[str, Sequence[ExpertWindow]],
    n_days: Mapping[str, int],
    seed: int,
    path: str | Path,
) -> None:
    """Write ``truth.json``: the seed, and each stock's row count and true windows."""
    stocks = {
        stock: {
            "n_days": n_days[stock],
            "windows": [
                {"start": w.start_date.isoformat(), "end": w.end_date.isoformat(),
                 "tendency": w.tendency, "direction": w.direction}
                for w in windows
            ],
        }
        for stock, windows in windows_by_stock.items()
    }
    _write_json({"seed": seed, "stocks": stocks}, path)


def load_truth(path: str | Path) -> dict[str, list[ExpertWindow]]:
    """Each stock's windows in a ``save_truth`` file, as expert ``"truth"``.

    Raises ``ParseError`` naming the file when an entry is missing, a date is
    not YYYY-MM-DD, a tendency is neither Trend nor Flat, or a direction does
    not fit its tendency.
    """
    doc = _read_json(path)
    try:
        return {
            stock: [
                ExpertWindow(stock, "truth", Date.fromisoformat(w["start"]),
                             Date.fromisoformat(w["end"]), w["tendency"], w["direction"])
                for w in entry["windows"]
            ]
            for stock, entry in doc["stocks"].items()
        }
    except KeyError as exc:
        raise ParseError(f"{path}: a stock or window has no {exc}") from None
    except (AttributeError, TypeError, ValueError, InvariantError) as exc:
        raise ParseError(f"{path}: not a truth document: {exc}") from None
