"""Feature construction for the two classifiers.

Changepoint rows pack 22 ratios around one trading day (5 closes back, 5
forward, same for volumes, plus high/close and low/close); window rows pack
the close and volume regression slope/R2 pair plus the prefix length.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvariantError, ParseError, TooShortError, ZeroVolumeError
from .labels import ExpertWindow, TriggerSeries, _ols
from .market_data import TREND, QuoteSeries

CP_CONTEXT = 5

CP_FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"close_back_{k}" for k in range(1, 6))
    + tuple(f"close_fwd_{k}" for k in range(1, 6))
    + tuple(f"vol_back_{k}" for k in range(1, 6))
    + tuple(f"vol_fwd_{k}" for k in range(1, 6))
    + ("high", "low")
)

TOF_FEATURE_NAMES: tuple[str, ...] = ("reg_close", "close_r2", "reg_vol", "vol_r2", "len_trend")

FRACTIONS: tuple[int, ...] = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def cp_feature_matrix(
    series: QuoteSeries, log_mode: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The 22 ratio features of every row with +/-5 rows of context.

    Returns ``(ts, X)`` where ``ts`` are row indices into the series and ``X``
    has one 22-feature row per entry of ``ts``. Raw mode needs a positive
    volume on every row of ``ts``, log mode on every row of the series.
    """
    n = len(series)
    if n < 2 * CP_CONTEXT + 1:
        return np.empty(0, dtype=np.int64), np.empty((0, len(CP_FEATURE_NAMES)))
    closes = series.closes
    volumes = series.volumes
    highs = series.column("high")
    lows = series.column("low")
    ts = np.arange(CP_CONTEXT, n - CP_CONTEXT, dtype=np.int64)

    if np.any(volumes[ts] <= 0.0):
        raise ZeroVolumeError("zero volume at a context-complete row")
    if log_mode and np.any(volumes <= 0.0):
        raise ZeroVolumeError("zero volume makes log ratios undefined")

    cols: list[np.ndarray] = []
    for k in range(1, CP_CONTEXT + 1):
        cols.append(closes[ts - k] / closes[ts])
    for k in range(1, CP_CONTEXT + 1):
        cols.append(closes[ts + k] / closes[ts])
    for k in range(1, CP_CONTEXT + 1):
        cols.append(volumes[ts - k] / volumes[ts])
    for k in range(1, CP_CONTEXT + 1):
        cols.append(volumes[ts + k] / volumes[ts])
    cols.append(highs[ts] / closes[ts])
    cols.append(lows[ts] / closes[ts])
    X = np.column_stack(cols)
    if log_mode:
        X = np.log(X)
    return ts, X


@dataclass(frozen=True)
class TofRow:
    """Regression features of one window prefix.

    ``target`` and ``fraction`` are bookkeeping attached by the dataset
    builders; only the five named features feed the classifier.
    """

    reg_close: float
    close_r2: float
    reg_vol: float
    vol_r2: float
    len_trend: int
    target: int | None = None
    fraction: int | None = None

    @property
    def direction_hint(self) -> int:
        return 1 if self.reg_close >= 0.0 else -1

    def vector(self) -> np.ndarray:
        return np.array(
            [self.reg_close, self.close_r2, self.reg_vol, self.vol_r2, float(self.len_trend)],
            dtype=np.float64,
        )


def tof_features(
    closes: Sequence[float], volumes: Sequence[float], log_mode: bool = False
) -> TofRow:
    """Slope/R2 of (log) close and volume over the prefix, plus its length."""
    closes = np.asarray(closes, dtype=np.float64)
    volumes = np.asarray(volumes, dtype=np.float64)
    if len(closes) < 2 or len(volumes) != len(closes):
        raise TooShortError(f"need >= 2 aligned points, got {len(closes)}/{len(volumes)}")
    if log_mode:
        if np.any(volumes <= 0.0):
            raise ZeroVolumeError("zero volume makes log regression undefined")
        closes = np.log(closes)
        volumes = np.log(volumes)
    reg_close, close_r2 = _ols(closes)
    reg_vol, vol_r2 = _ols(volumes)
    return TofRow(
        reg_close=reg_close,
        close_r2=close_r2,
        reg_vol=reg_vol,
        vol_r2=vol_r2,
        len_trend=len(closes),
    )


MIN_LEN_TREND = 6


def _fraction_days(pct: int, n: int) -> int:
    # round(p% of n) half up, in exact integer arithmetic
    return max(2, (2 * pct * n + 100) // 200)


def augment_fractions(
    window: ExpertWindow, quotes: QuoteSeries, log_mode: bool = False
) -> list[TofRow]:
    """Window prefixes at 5,10,20..100% of its length, minus too-short rows.

    Prefixes shorter than ``MIN_LEN_TREND`` days are dropped: the changepoint
    stage already lags five days, so nothing shorter ever needs recognizing.
    """
    i0 = quotes.index_of(window.start_date)
    i1 = quotes.index_of(window.end_date)
    n = i1 - i0 + 1
    closes = quotes.closes
    volumes = quotes.volumes
    target = int(window.tendency == TREND)
    rows: list[TofRow] = []
    for pct in FRACTIONS:
        k = _fraction_days(pct, n)
        if k < MIN_LEN_TREND or k > n:
            continue
        row = tof_features(closes[i0 : i0 + k], volumes[i0 : i0 + k], log_mode=log_mode)
        rows.append(
            TofRow(
                reg_close=row.reg_close,
                close_r2=row.close_r2,
                reg_vol=row.reg_vol,
                vol_r2=row.vol_r2,
                len_trend=row.len_trend,
                target=target,
                fraction=pct,
            )
        )
    return rows


@dataclass
class FeatureDataset:
    """Columnar dataset with per-row bookkeeping for splitting and reporting."""

    kind: str  # "cp" | "tof"
    feature_names: tuple[str, ...]
    dates: list[Date]
    stocknames: list[str]
    X: np.ndarray
    y: np.ndarray
    fractions: list[int] | None = None

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or not (len(self.X) == len(self.y) == len(self.dates)):
            raise InvariantError("dataset columns disagree in length")

    def __len__(self) -> int:
        return len(self.y)

    def take(self, idx: np.ndarray) -> "FeatureDataset":
        return FeatureDataset(
            kind=self.kind,
            feature_names=self.feature_names,
            dates=[self.dates[i] for i in idx],
            stocknames=[self.stocknames[i] for i in idx],
            X=self.X[idx],
            y=self.y[idx],
            fractions=None if self.fractions is None else [self.fractions[i] for i in idx],
        )

    def deduplicate(self) -> "FeatureDataset":
        """Drop rows whose (feature vector, target) already occurred."""
        Xc = np.ascontiguousarray(self.X)
        seen: set[bytes] = set()
        keep: list[int] = []
        for i in range(len(self)):
            key = Xc[i].tobytes() + bytes([int(self.y[i])])
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return self.take(np.asarray(keep, dtype=np.int64))


def build_cp_dataset(
    series: QuoteSeries, triggers: TriggerSeries, log_mode: bool = False
) -> FeatureDataset:
    """Changepoint rows for every labeled date with full +/-5-row context."""
    ts, X = cp_feature_matrix(series, log_mode=log_mode)
    dates = series.dates
    keep = [i for i, t in enumerate(ts) if triggers.covers(dates[t])]
    kept_ts = [int(ts[i]) for i in keep]
    return FeatureDataset(
        kind="cp",
        feature_names=CP_FEATURE_NAMES,
        dates=[dates[t] for t in kept_ts],
        stocknames=[series.stockname] * len(kept_ts),
        X=X[keep] if keep else np.empty((0, len(CP_FEATURE_NAMES))),
        y=np.array([triggers.value(dates[t]) for t in kept_ts], dtype=np.int64),
    )


def build_tof_dataset(
    windows: Sequence[ExpertWindow], quotes: QuoteSeries, log_mode: bool = False
) -> FeatureDataset:
    """Fraction-augmented window rows, each dated by its window start."""
    dates: list[Date] = []
    stocknames: list[str] = []
    fractions: list[int] = []
    vectors: list[np.ndarray] = []
    targets: list[int] = []
    for w in windows:
        for row in augment_fractions(w, quotes, log_mode=log_mode):
            dates.append(w.start_date)
            stocknames.append(w.stockname)
            fractions.append(int(row.fraction or 0))
            vectors.append(row.vector())
            targets.append(int(row.target or 0))
    X = np.vstack(vectors) if vectors else np.empty((0, len(TOF_FEATURE_NAMES)))
    return FeatureDataset(
        kind="tof",
        feature_names=TOF_FEATURE_NAMES,
        dates=dates,
        stocknames=stocknames,
        X=X,
        y=np.array(targets, dtype=np.int64),
        fractions=fractions,
    )


def write_feature_csv(X: np.ndarray, y: np.ndarray, names: Sequence[str], path: str | Path) -> None:
    """Bare interchange format: the named feature columns plus ``target``."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(names) + ["target"])
        for i in range(len(X)):
            writer.writerow([repr(float(v)) for v in X[i]] + [int(y[i])])


def read_feature_csv(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    expected = list(names) + ["target"]
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected:
            raise ParseError(f"{path}: expected header {expected}, got {header}")
        rows = [line for line in reader if line]
    X = np.array([[float(v) for v in row[:-1]] for row in rows], dtype=np.float64)
    y = np.array([int(row[-1]) for row in rows], dtype=np.int64)
    if len(rows) == 0:
        X = np.empty((0, len(names)))
    return X, y
