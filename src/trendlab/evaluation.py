"""Classification metrics, stratified cross-validation and grid search."""

from __future__ import annotations

import csv
import itertools
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import gbdt
from .errors import FoldDegenerateError, ShapeError, SingleClassError
from .market_data import _write_json


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the rank statistic.

    Equals the probability that a positive outscores a negative, counting
    ties as one half, so the tie convention is exact rather than an artifact
    of threshold interpolation.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError("scores and labels must be equal-length vectors")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs both classes present")
    order = np.argsort(s, kind="stable")
    sv = s[order]
    new_group = np.empty(len(sv), dtype=bool)
    new_group[0] = True
    new_group[1:] = sv[1:] != sv[:-1]
    starts = np.nonzero(new_group)[0]
    ends = np.append(starts[1:], len(sv))
    avg_rank = (starts + ends - 1) / 2.0 + 1.0  # 1-based average rank per tie group
    ranks = np.empty(len(sv), dtype=np.float64)
    ranks[order] = np.repeat(avg_rank, ends - starts)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class ClassReport:
    """Per-class precision/recall/F1 with the usual aggregate rows.

    Metrics with a zero denominator are reported as 0 and recorded in
    ``flags`` so degenerate extremes stay well defined.
    """

    precision: dict[int, float]
    recall: dict[int, float]
    f1: dict[int, float]
    support: dict[int, int]
    accuracy: float
    auc: float | None
    f1_macro: float
    weighted_avg: dict[str, float]
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        """The report as a ``train`` or ``test`` block of ``<which>_metrics.json``."""
        per_class = {
            str(c): {k: getattr(self, k)[c] for k in ("precision", "recall", "f1", "support")}
            for c in (0, 1)
        }
        return {
            "n_records": self.support[0] + self.support[1],
            "auc": self.auc,
            "accuracy": self.accuracy,
            "f1_weighted": self.weighted_avg["f1"],
            "f1_macro": self.f1_macro,
            "per_class": per_class,
            "flags": list(self.flags),
        }


def _safe_div(num: float, den: float, flags: list[str], flag: str) -> float:
    if den == 0:
        flags.append(flag)
        return 0.0
    return num / den


def class_report(
    pred: Sequence[int], labels: Sequence[int], scores: Sequence[float] | None = None
) -> ClassReport:
    p = np.asarray(pred, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape:
        raise ShapeError("pred and labels must be equal-length")
    flags: list[str] = []
    precision: dict[int, float] = {}
    recall: dict[int, float] = {}
    f1: dict[int, float] = {}
    support: dict[int, int] = {}
    for c in (0, 1):
        tp = int(((p == c) & (y == c)).sum())
        fp = int(((p == c) & (y != c)).sum())
        fn = int(((p != c) & (y == c)).sum())
        support[c] = tp + fn
        precision[c] = _safe_div(tp, tp + fp, flags, f"zero_predicted_class_{c}")
        recall[c] = _safe_div(tp, tp + fn, flags, f"zero_support_class_{c}")
        denom = precision[c] + recall[c]
        f1[c] = 0.0 if denom == 0 else 2 * precision[c] * recall[c] / denom

    accuracy = float((p == y).mean()) if len(y) else 0.0
    auc: float | None = None
    if scores is not None:
        try:
            auc = roc_auc(scores, y)
        except SingleClassError:
            flags.append("auc_undefined_single_class")
    total = support[0] + support[1]
    weighted_avg = {
        name: (vals[0] * support[0] + vals[1] * support[1]) / total if total else 0.0
        for name, vals in (("precision", precision), ("recall", recall), ("f1", f1))
    }
    return ClassReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        accuracy=accuracy,
        auc=auc,
        f1_macro=(f1[0] + f1[1]) / 2.0,
        weighted_avg=weighted_avg,
        flags=tuple(flags),
    )


def save_train_metrics(
    which: str,
    params: gbdt.GbdtParams,
    balance_str: str,
    train: ClassReport,
    test: ClassReport,
    path: str | Path,
) -> None:
    """Write ``<which>_metrics.json``: a fit's parameters, train balance and both reports."""
    doc = {"which": which, "params": asdict(params), "balance_str": balance_str}
    _write_json({**doc, "train": train.to_dict(), "test": test.to_dict()}, path)


SCORING = ("f1_macro", "auc", "accuracy", "f1_minority")


def _score(name: str, y_true: np.ndarray, proba: np.ndarray) -> float:
    if name == "auc":
        return roc_auc(proba, y_true)
    pred = (proba >= 0.5).astype(np.int64)
    report = class_report(pred, y_true)
    if name == "f1_macro":
        return report.f1_macro
    if name == "accuracy":
        return report.accuracy
    if name == "f1_minority":
        return report.f1[1]
    raise ValueError(f"unknown scoring {name!r}; expected one of {SCORING}")


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row order determined by content only, so folding ignores input order."""
    # lexsort treats the last key as primary: X[:, 0] first, then X[:, 1], ... then y
    return np.lexsort((y,) + tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)))


def _fold_of_rows(X: np.ndarray, y: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical row order, and each row's fold.

    Each class's rows are shuffled in turn and dealt round-robin across the
    folds, continuing from where the previous class stopped, so no fold stays
    empty once ``k <= len(y)``.
    """
    if k < 2:
        raise FoldDegenerateError("k must be >= 2")
    if k > len(y):
        raise FoldDegenerateError(f"cannot make {k} folds from {len(y)} rows")
    canon = _canonical_order(X, y)
    rng = np.random.default_rng(seed)
    shuffled = []
    for c in sorted(np.unique(y)):
        rows = canon[y[canon] == c]
        shuffled.append(rows[rng.permutation(rows.size)])
    fold_of = np.empty(len(y), dtype=np.int64)
    fold_of[np.concatenate(shuffled)] = np.arange(len(y)) % k
    return canon, fold_of


def _fold_splits(
    X: np.ndarray, y: np.ndarray, k: int, scoring: str, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, held-out) row ids of each fold, both in canonical row order."""
    canon, fold_of = _fold_of_rows(X, y, k, seed)
    splits = []
    for i in range(k):
        held_out = fold_of[canon] == i
        train_idx, test_idx = canon[~held_out], canon[held_out]
        if len(np.unique(y[train_idx])) < 2:
            raise FoldDegenerateError(f"fold {i}: training side has a single class")
        if scoring == "auc" and len(np.unique(y[test_idx])) < 2:
            raise FoldDegenerateError(f"fold {i}: held-out side has a single class")
        splits.append((train_idx, test_idx))
    return splits


def _fit_fold(
    X: np.ndarray,
    y: np.ndarray,
    params: gbdt.GbdtParams,
    split: tuple[np.ndarray, np.ndarray],
    scoring: str,
) -> tuple[float, float]:
    """(held-out score, fit seconds) of one fold; a process pool's task."""
    train_idx, test_idx = split
    started = time.perf_counter()
    model = gbdt.fit(X[train_idx], y[train_idx], params)
    seconds = time.perf_counter() - started
    return _score(scoring, y[test_idx], gbdt.predict_proba(model, X[test_idx])), seconds


@dataclass(frozen=True)
class SearchEntry:
    params: dict[str, object]
    mean_score: float
    fold_scores: tuple[float, ...]
    fit_seconds: tuple[float, ...]


@dataclass(frozen=True)
class SearchResult:
    entries: tuple[SearchEntry, ...]
    best_params: dict[str, object]
    best_score: float
    param_names: tuple[str, ...]

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(list(self.param_names) + ["mean_score", "fit_seconds"])
            for e in self.entries:
                writer.writerow(
                    [e.params[name] for name in self.param_names]
                    + [repr(e.mean_score), repr(sum(e.fit_seconds))]
                )

    def save_best(self, path: str | Path) -> None:
        """Write the best grid point and its score as JSON."""
        _write_json({"best_params": self.best_params, "best_score": self.best_score}, path)


def grid_search(
    X: object,
    y: object,
    grid: Mapping[str, Sequence[object]],
    base_params: gbdt.GbdtParams | None = None,
    n_draws: int | None = None,
    k: int = 5,
    scoring: str = "f1_macro",
    seed: int = 0,
    workers: int = 1,
) -> SearchResult:
    """Score every grid point, or ``n_draws`` seeded draws without replacement, by CV.

    ``grid`` maps GbdtParams field names to candidate values; everything not
    in the grid comes from ``base_params``. Every grid point uses the same
    folds. The (grid point, fold) fits are independent: with ``workers`` > 1
    they run on a process pool of at most ``workers`` processes, one per CPU
    at most, and are reduced in (grid point, fold) order as at one worker.
    """
    names = tuple(grid.keys())
    if not names or any(len(v) == 0 for v in grid.values()):
        raise ValueError("grid must name at least one parameter with at least one value")
    combos = list(itertools.product(*[list(grid[name]) for name in names]))
    if n_draws is not None:
        if n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(combos), size=min(n_draws, len(combos)), replace=False)
        combos = [combos[int(i)] for i in pick]

    base = base_params or gbdt.GbdtParams()
    Xa = np.asarray(X, dtype=np.float64)
    ya = np.asarray(y, dtype=np.int64)
    splits = _fold_splits(Xa, ya, k, scoring, seed)
    points = [dict(zip(names, combo)) for combo in combos]
    tasks = [(replace(base, **point), split) for point in points for split in splits]
    n_workers = min(workers, os.cpu_count() or 1, len(tasks))
    if n_workers > 1:
        # imported here, as only a parallel search should pay for the import
        # of the process pool and multiprocessing (tens of ms per command)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_fit_fold, Xa, ya, p, s, scoring) for p, s in tasks]
            results = [f.result() for f in futures]
    else:
        results = [_fit_fold(Xa, ya, p, s, scoring) for p, s in tasks]
    entries: list[SearchEntry] = []
    for i, point in enumerate(points):
        scores, seconds = zip(*results[i * len(splits) : (i + 1) * len(splits)])
        entries.append(
            SearchEntry(
                params=point,
                mean_score=float(np.mean(scores)),
                fold_scores=scores,
                fit_seconds=seconds,
            )
        )
    best = max(entries, key=lambda e: e.mean_score)
    return SearchResult(
        entries=tuple(entries),
        best_params=dict(best.params),
        best_score=best.mean_score,
        param_names=names,
    )
