"""Feature construction for the two classifiers.

Changepoint rows pack 22 ratios around one trading day (5 closes back, 5
forward, same for volumes, plus high/close and low/close); window rows pack
the close and volume regression slope/R2 pair plus the prefix length.

The feature CSVs, ``tof_test_meta.csv`` and ``fraction_accuracy.csv`` are
written (and the first two read) here, beside the datasets they hold.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyInputError, InvariantError, ParseError, TooShortError, ZeroVolumeError
from .labels import ExpertWindow, _ols, _row_keys
from .market_data import TREND, QuoteSeries, _days

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


class TofRow(NamedTuple):
    """Regression features of one window prefix, in ``TOF_FEATURE_NAMES`` order."""

    reg_close: float
    close_r2: float
    reg_vol: float
    vol_r2: float
    len_trend: int


def tof_features(
    closes: Sequence[float], volumes: Sequence[float], log_mode: bool = False
) -> TofRow:
    """Slope/R2 of (log) close and volume over the prefix, plus its length.

    Log mode needs positive volumes and positive, finite closes. A slice of
    the log of a column is bitwise the log of the slice, so a caller with
    many prefixes of one series can take the logs once and pass log slices
    with ``log_mode=False``.
    """
    closes = np.asarray(closes, dtype=np.float64)
    volumes = np.asarray(volumes, dtype=np.float64)
    if len(closes) < 2 or len(volumes) != len(closes):
        raise TooShortError(f"need >= 2 aligned points, got {len(closes)}/{len(volumes)}")
    if log_mode:
        if np.any(volumes <= 0.0):
            raise ZeroVolumeError("zero volume makes log regression undefined")
        if not np.all(np.isfinite(closes) & (closes > 0.0)):
            raise InvariantError("log regression needs positive, finite closes")
        closes = np.log(closes)
        volumes = np.log(volumes)
    return TofRow(*_ols(closes), *_ols(volumes), len_trend=len(closes))


MIN_LEN_TREND = 6


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
    closes = quotes.closes
    volumes = quotes.volumes
    fractions = [pct for pct in FRACTIONS if MIN_LEN_TREND <= _fraction_days(pct, n) <= n]
    rows = [
        tof_features(closes[i0 : i0 + k], volumes[i0 : i0 + k], log_mode=log_mode)
        for k in (_fraction_days(pct, n) for pct in fractions)
    ]
    X = np.array(rows, dtype=np.float64).reshape(-1, len(TOF_FEATURE_NAMES))
    return np.array(fractions, dtype=np.int64), X


@dataclass
class FeatureDataset:
    """Columnar dataset with per-row bookkeeping for splitting and reporting.

    ``days`` holds each row's date as a day number (``date.toordinal``),
    ``stocknames`` is a string array and ``fractions`` (trend/flat rows only)
    the window fraction each row was cut at.
    """

    kind: str  # "cp" | "tof"
    feature_names: tuple[str, ...]
    days: np.ndarray
    stocknames: np.ndarray
    X: np.ndarray
    y: np.ndarray
    fractions: np.ndarray | None = None

    def __post_init__(self) -> None:
        columns = [self.y, self.days, self.stocknames]
        if self.fractions is not None:
            columns.append(self.fractions)
        if self.X.ndim != 2 or any(len(c) != len(self.X) for c in columns):
            raise InvariantError("dataset columns disagree in length")

    def __len__(self) -> int:
        return len(self.y)

    def take(self, idx: np.ndarray) -> "FeatureDataset":
        return replace(
            self,
            days=self.days[idx],
            stocknames=self.stocknames[idx],
            X=self.X[idx],
            y=self.y[idx],
            fractions=None if self.fractions is None else self.fractions[idx],
        )

    def deduplicate(self) -> "FeatureDataset":
        """Drop rows whose (feature vector, target) already occurred."""
        _, first = np.unique(_row_keys(self.X, self.y), return_index=True)
        return self.take(np.sort(first))

    @classmethod
    def concat(cls, parts: Sequence["FeatureDataset"]) -> "FeatureDataset":
        """The rows of ``parts``, datasets of one kind, in order."""
        if len({(p.kind, p.feature_names) for p in parts}) != 1:
            raise InvariantError("concat needs datasets of one kind")
        rows = [p for p in parts if len(p)]
        if not rows:
            raise EmptyInputError(f"no {parts[0].kind} rows were produced")
        columns = ["days", "stocknames", "X", "y"]
        if rows[0].fractions is not None:
            columns.append("fractions")
        return replace(
            rows[0], **{c: np.concatenate([getattr(p, c) for p in rows]) for c in columns}
        )


def build_cp_dataset(
    series: QuoteSeries, windows: Sequence[ExpertWindow], log_mode: bool = False
) -> FeatureDataset:
    """Changepoint rows for every labeled date with full +/-5-row context.

    The labeled span runs from the first window's start to the last window's
    end; the target is 1 on the start of every window but the first.
    """
    if not windows:
        raise EmptyInputError("no windows")
    ts, X = cp_feature_matrix(series, log_mode=log_mode)
    days = _days(series.dates)[ts]
    keep = (days >= windows[0].start_date.toordinal()) & (days <= windows[-1].end_date.toordinal())
    days = days[keep]
    return FeatureDataset(
        kind="cp",
        feature_names=CP_FEATURE_NAMES,
        days=days,
        stocknames=np.full(len(days), series.stockname),
        X=X[keep],
        y=np.isin(days, _days([w.start_date for w in windows[1:]])).astype(np.int64),
    )


def build_tof_dataset(
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


def write_feature_csv(X: np.ndarray, y: np.ndarray, names: Sequence[str], path: str | Path) -> None:
    """Bare interchange format: the named feature columns plus ``target``."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(list(names) + ["target"])
        # numbers need no CSV quoting: join each row as csv.writer would
        handle.writelines(
            ",".join(map(repr, row)) + f",{target}\r\n"
            for row, target in zip(
                np.asarray(X, dtype=np.float64).tolist(), np.asarray(y, dtype=np.int64).tolist()
            )
        )


def read_feature_csv(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The features and integer targets of a ``write_feature_csv`` file.

    Raises ``ParseError`` naming the file on a wrong header, a cell that is
    not a number, a short row or a target other than 0 or 1.
    """
    path = Path(path)
    expected = list(names) + ["target"]
    row = np.dtype([("X", np.float64, (len(names),)), ("y", np.int64)])
    with path.open(newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle), None)
        if header != expected:
            raise ParseError(f"{path}: expected header {expected}, got {header}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                rows = np.loadtxt(handle, delimiter=",", dtype=row, ndmin=1)
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}") from None
    if np.any((rows["y"] != 0) & (rows["y"] != 1)):
        raise ParseError(f"{path}: a target is neither 0 nor 1")
    return np.ascontiguousarray(rows["X"]), np.ascontiguousarray(rows["y"])


TOF_META_COLUMNS = ("date", "stockname", "fraction")


def write_tof_meta(ds: FeatureDataset, path: str | Path) -> None:
    """Write ``tof_test_meta.csv``: each trend/flat row's date, stock and window fraction."""
    dates = [Date.fromordinal(day).isoformat() for day in ds.days.tolist()]
    stocks = ds.stocknames.tolist()
    if any("\r" in stock for stock in stocks):  # the "\n" line end quotes no bare "\r"
        raise InvariantError("a stockname holds a carriage return")
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TOF_META_COLUMNS)
        writer.writerows(zip(dates, stocks, ds.fractions.tolist()))


def read_tof_meta(path: str | Path, n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The day numbers, stocknames and fractions of a ``write_tof_meta`` file.

    Raises ``ParseError`` naming the file on a wrong header, a bad row, or a
    row count other than ``n_rows``, that of the feature file it describes.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = rows.pop(0) if rows else None
    if header != list(TOF_META_COLUMNS):
        raise ParseError(f"{path}: expected header {','.join(TOF_META_COLUMNS)}, got {header}")
    if len(rows) != n_rows:
        raise ParseError(f"{path}: {len(rows)} rows for the {n_rows} rows of its feature file")
    try:
        days = np.array([Date.fromisoformat(d).toordinal() for d, _, _ in rows], dtype=np.int64)
        fractions = np.array([int(f) for _, _, f in rows], dtype=np.int64)
    except ValueError:
        raise ParseError(f"{path}: a row is not a date, a stockname and an integer") from None
    return days, np.array([stock for _, stock, _ in rows], dtype=str), fractions


def write_fraction_accuracy(fractions: np.ndarray, hits: np.ndarray, path: str | Path) -> None:
    """Write ``fraction_accuracy.csv``: per window fraction, its rows and their share of hits."""
    values, group = np.unique(fractions, return_inverse=True)
    n = np.bincount(group, minlength=len(values))
    accuracy = np.bincount(group, weights=hits, minlength=len(values)) / n
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write("fraction,n,accuracy\n")
        handle.writelines(
            f"{frac},{count},{acc!r}\n"
            for frac, count, acc in zip(values.tolist(), n.tolist(), accuracy.tolist())
        )
