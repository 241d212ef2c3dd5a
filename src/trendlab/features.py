"""Feature construction for the two classifiers.

Changepoint rows pack 22 ratios around one trading day (5 closes back, 5
forward, same for volumes, plus high/close and low/close); window rows pack
the close and volume regression slope/R2 pair plus the prefix length.
``prefix_features`` builds every window row, those of the training fractions
(``build_tof_dataset``) and those a backtest scores (``pipeline.score_stocks``).

The feature CSVs, ``tof_test_meta.csv`` and ``fraction_accuracy.csv`` are
written (and the first two read) here, beside the datasets they hold.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptyInputError, InvariantError, ParseError, TooShortError, ZeroVolumeError
from .labels import ExpertWindow, _prefix_fits, _row_groups, _runs
from .market_data import TREND, QuoteSeries, _csv_errors, _date, _day, _day_text, _days

CP_CONTEXT = 5  # bars on each side of a changepoint row
CP_MIN_BARS = 2 * CP_CONTEXT + 1  # the fewest bars that hold a changepoint row

# each bar's ratio to the row's, CP_CONTEXT rows back and forward, then high and low to close
CP_FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{bar}_{side}_{k}"
    for bar in ("close", "vol")
    for side in ("back", "fwd")
    for k in range(1, CP_CONTEXT + 1)
) + ("high", "low")

TOF_FEATURE_NAMES: tuple[str, ...] = ("reg_close", "close_r2", "reg_vol", "vol_r2", "len_trend")

FRACTIONS: tuple[int, ...] = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def cp_feature_matrix(series: QuoteSeries, log_mode: bool) -> tuple[np.ndarray, np.ndarray]:
    """The 22 ratio features of every row with +/-5 rows of context.

    Returns ``(ts, X)`` where ``ts`` are row indices into the series and ``X``
    has one 22-feature row per entry of ``ts``. Raw mode needs a positive
    volume on every row of ``ts``, log mode on every row of the series.
    """
    n = len(series)
    if n < CP_MIN_BARS:
        return np.empty(0, dtype=np.int64), np.empty((0, len(CP_FEATURE_NAMES)))
    closes = series.closes
    volumes = series.volumes
    highs = series.column("high")
    lows = series.column("low")
    ts = np.arange(CP_CONTEXT, n - CP_CONTEXT, dtype=np.int64)
    _check_volumes(series, 0 if log_mode else CP_CONTEXT)

    cols = [
        bars[ts + side * k] / bars[ts]
        for bars in (closes, volumes)
        for side in (-1, 1)
        for k in range(1, CP_CONTEXT + 1)
    ]  # in CP_FEATURE_NAMES order
    X = np.column_stack([*cols, highs[ts] / closes[ts], lows[ts] / closes[ts]])
    if log_mode:
        X = np.log(X)
    return ts, X


class TofRow(NamedTuple):
    """The five columns of one window row, in ``TOF_FEATURE_NAMES`` order."""

    reg_close: float
    close_r2: float
    reg_vol: float
    vol_r2: float
    len_trend: int


def tof_features(row: np.ndarray) -> TofRow:
    """The columns of one ``prefix_features`` row, by name."""
    *fits, length = row.tolist()
    return TofRow(*fits, int(length))


def _check_volumes(series: QuoteSeries, skip: int) -> None:
    """Raise ``ZeroVolumeError`` naming the first zero volume not within ``skip`` rows of an end."""
    bad = np.flatnonzero(series.volumes[skip : len(series) - skip] <= 0.0)
    if bad.size:  # loading accepts it: only a feature that divides by it or takes its log fails
        day = _date(series.days[skip + bad[0]])
        raise ZeroVolumeError(series.stockname, f"{series.stockname}: zero volume on {day}")


def _log_bars(series: QuoteSeries) -> tuple[np.ndarray, np.ndarray]:
    """The logs of the closes and volumes, which must be positive (and the closes finite)."""
    _check_volumes(series, 0)
    closes, volumes = series.closes, series.volumes
    if not np.all(np.isfinite(closes) & (closes > 0.0)):
        raise InvariantError("log regression needs positive, finite closes")
    return np.log(closes), np.log(volumes)


def prefix_features(
    series: QuoteSeries, starts: np.ndarray, lengths: np.ndarray, log_mode: bool
) -> np.ndarray:
    """The window row of each prefix of ``lengths[i]`` bars from row ``starts[i]``, in input order.

    Each distinct start fits its longest prefix once (``labels._prefix_fits``,
    on sums shifted by the start's bar), and its rows are gathered from those
    fits, so a prefix has the same bits from any window that holds it. Log
    mode takes the logs of the whole series once, so every bar must be valid
    for them. A prefix of under 2 bars, or one past the series end, raises
    ``TooShortError``.
    """
    closes, volumes = _log_bars(series) if log_mode else (series.closes, series.volumes)
    order = np.argsort(starts, kind="stable")
    X = np.empty((len(starts), len(TOF_FEATURE_NAMES)))
    for lo, hi in _runs(starts[order]):
        rows = order[lo:hi]
        s, k = int(starts[rows[0]]), lengths[rows]
        n = int(k.max())
        if not 0 <= s <= s + n <= len(closes) or k.min() < 2:
            raise TooShortError(f"prefixes of {k.min()}..{n} bars from row {s} of {len(closes)}")
        # one row per fit: close slope, close R2, volume slope, volume R2
        fits = np.stack(_prefix_fits(np.stack((closes[s : s + n], volumes[s : s + n]))), axis=1)
        X[rows, :4] = fits.reshape(4, n)[:, k - 1].T
    X[:, 4] = lengths
    return X


MIN_LEN_TREND = 6


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
        """Drop rows whose (feature vector, target) already occurred.

        Rows are grouped by one stable sort of their exact bytes and target
        (``labels._row_groups``), so ``-0.0`` and ``0.0`` differ; it keeps
        each first row.
        """
        _, first = np.unique(_row_groups(self.X, self.y), return_index=True)
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
    series: QuoteSeries, windows: Sequence[ExpertWindow], log_mode: bool
) -> FeatureDataset:
    """Changepoint rows for every labeled date with full +/-5-row context.

    The labeled span runs from the first window's start to the last window's
    end; the target is 1 on the start of every window but the first.
    """
    if not windows:
        raise EmptyInputError("no windows")
    ts, X = cp_feature_matrix(series, log_mode=log_mode)
    days = series.days[ts]
    keep = (days >= _day(windows[0].start_date)) & (days <= _day(windows[-1].end_date))
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
    windows: Sequence[ExpertWindow], quotes: QuoteSeries, log_mode: bool
) -> FeatureDataset:
    """Each window's prefixes at 5,10,20..100% of its length, dated by its start.

    A prefix is round(p% of the length) days, half up; prefixes shorter than
    ``MIN_LEN_TREND`` days are dropped: the changepoint stage already lags
    five days, so nothing shorter ever needs recognizing.
    """
    if not windows:
        raise EmptyInputError("no windows")
    start_days = _days([w.start_date for w in windows])
    starts = quotes.rows_of(start_days)
    n = quotes.rows_of(_days([w.end_date for w in windows])) - starts + 1
    pct = np.array(FRACTIONS, dtype=np.int64)
    lengths = (2 * pct * n[:, None] + 100) // 200  # exact integer arithmetic
    window, fraction = np.nonzero(lengths >= MIN_LEN_TREND)
    X = prefix_features(quotes, starts[window], lengths[window, fraction], log_mode=log_mode)
    return FeatureDataset(
        kind="tof",
        feature_names=TOF_FEATURE_NAMES,
        days=start_days[window],
        stocknames=np.array([w.stockname for w in windows])[window],
        X=X,
        y=np.array([w.tendency == TREND for w in windows], dtype=np.int64)[window],
        fractions=pct[fraction],
    )


WRITE_BLOCK_ROWS = 1024  # rows turned into Python numbers at a time


def write_feature_csv(X: np.ndarray, y: np.ndarray, names: Sequence[str], path: str | Path) -> None:
    """Bare interchange format: the named feature columns plus ``target``.

    Rows are formatted a block at a time, so only one block is ever held as
    Python floats.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(list(names) + ["target"])
        for start in range(0, len(X), WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            # numbers need no CSV quoting: join each row as csv.writer would
            handle.writelines(
                ",".join(map(repr, row)) + f",{target}\r\n"
                for row, target in zip(X[block].tolist(), y[block].tolist())
            )


def _data_lines(handle: Iterable[str], path: Path) -> Iterator[str]:
    """The lines of ``handle``, the rows after a header, each checked to hold a row.

    ``np.loadtxt`` skips blank lines and comments without a word, so a row
    commented out would vanish; here either raises ``ParseError`` naming
    the file and line.
    """
    for line_no, line in enumerate(handle, start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            what = "a commented-out row" if text else "a blank line"
            raise ParseError(f"{path}:{line_no}: {what}, not a row")
        yield line


def read_feature_csv(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The features and integer targets of a ``write_feature_csv`` file.

    Raises ``ParseError`` naming the file on a wrong header, a cell that is
    not a number, a short row or a target other than 0 or 1, and naming the
    file and line on a blank line, a line that starts with ``#`` (a row
    commented out) and a feature that is NaN or infinite.
    """
    path = Path(path)
    expected = list(names) + ["target"]
    row = np.dtype([("X", np.float64, (len(names),)), ("y", np.int64)])
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        with _csv_errors(path, reader):
            header = next(reader, None)
        if header != expected:
            raise ParseError(f"{path}: expected header {expected}, got {header}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                rows = np.loadtxt(
                    _data_lines(handle, path), delimiter=",", dtype=row, ndmin=1, comments=None
                )
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}") from None
    if np.any((rows["y"] != 0) & (rows["y"] != 1)):
        raise ParseError(f"{path}: a target is neither 0 nor 1")
    bad = np.argwhere(~np.isfinite(rows["X"]))
    if bad.size:
        i, j = bad[0].tolist()
        value = float(rows["X"][i, j])
        raise ParseError(f"{path}:{i + 2}: {names[j]} is {value!r}, not a finite number")
    return np.ascontiguousarray(rows["X"]), np.ascontiguousarray(rows["y"])


TOF_META_COLUMNS = ("date", "stockname", "fraction")


def write_tof_meta(ds: FeatureDataset, path: str | Path) -> None:
    """Write ``tof_test_meta.csv``: each trend/flat row's date, stock and window fraction."""
    dates = _day_text(ds.days)
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
        reader = csv.reader(handle)
        with _csv_errors(path, reader):
            rows = list(reader)
    header = rows.pop(0) if rows else None
    if header != list(TOF_META_COLUMNS):
        raise ParseError(f"{path}: expected header {','.join(TOF_META_COLUMNS)}, got {header}")
    if len(rows) != n_rows:
        raise ParseError(f"{path}: {len(rows)} rows for the {n_rows} rows of its feature file")
    try:
        days = _days([Date.fromisoformat(d) for d, _, _ in rows])
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
