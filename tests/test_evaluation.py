"""Metrics oracles, cross-validation mechanics and grid search."""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendlab.errors import FoldDegenerateError, ShapeError, SingleClassError
from trendlab.evaluation import _fold_of_rows, class_report, grid_search, roc_auc
from trendlab.gbdt import GbdtParams


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return float(wins) / (len(pos) * len(neg))


def test_auc_worked_examples():
    assert roc_auc([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)


def test_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 200))
        scores = np.round(rng.normal(0, 1, size=n), 1)  # coarse rounding forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        assert roc_auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )


@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=2, max_size=60).filter(
        lambda pairs: {y for _, y in pairs} == {0, 1}
    )
)
def test_auc_equals_pair_count_ties_half(pairs):
    # five score values: most draws hold ties within and across the classes
    scores, labels = zip(*pairs)
    pos = [s for s, y in pairs if y == 1]
    neg = [s for s, y in pairs if y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    assert roc_auc(scores, labels) == wins / (len(pos) * len(neg))


def test_auc_invariances():
    rng = np.random.default_rng(1)
    scores = rng.normal(0, 1, size=50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(1 - scores, labels) == pytest.approx(1 - base, abs=1e-12)


def test_auc_single_class_error():
    with pytest.raises(SingleClassError):
        roc_auc([0.2, 0.4], [1, 1])


def test_class_report_perfect():
    report = class_report([0, 1, 0, 1], [0, 1, 0, 1], [0.1, 0.9, 0.2, 0.8])
    assert report.precision == {0: 1.0, 1: 1.0}
    assert report.recall == {0: 1.0, 1: 1.0}
    assert report.f1 == {0: 1.0, 1: 1.0}
    assert report.accuracy == 1.0
    assert report.auc == 1.0
    assert report.f1_macro == 1.0


def test_class_report_all_majority_on_extreme_imbalance():
    labels = np.array([0] * 1000 + [1])
    pred = np.zeros(1001, dtype=int)
    report = class_report(pred, labels)
    assert report.f1[1] == 0.0
    assert report.f1[0] == pytest.approx(2 * (1000 / 1001) / (1 + 1000 / 1001), abs=1e-12)
    assert 0.49 <= report.f1_macro <= 0.50
    assert "zero_predicted_class_1" in report.flags


def test_class_report_minority_f1_from_confusion_matrix():
    # tp=198 fp=2277 fn=2: precision exactly 8%, recall exactly 99%
    labels = np.array([1] * 200 + [0] * 10000)
    pred = np.zeros_like(labels)
    pred[:198] = 1  # 198 true positives
    pred[200 : 200 + 2277] = 1  # 2277 false positives
    report = class_report(pred, labels)
    assert report.precision[1] == pytest.approx(0.08, abs=1e-12)
    assert report.recall[1] == pytest.approx(0.99, abs=1e-12)
    assert report.f1[1] == pytest.approx(2 * 0.08 * 0.99 / (0.08 + 0.99), abs=1e-12)
    assert report.f1[1] == pytest.approx(0.14804, abs=1e-4)


def test_f1_macro_one_iff_exact():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    assert class_report(labels, labels).f1_macro == 1.0
    wrong = labels.copy()
    wrong[0] ^= 1
    assert class_report(wrong, labels).f1_macro < 1.0


def test_weighted_avg_row():
    labels = [0, 0, 0, 1]
    pred = [0, 0, 1, 1]
    report = class_report(pred, labels)
    support = report.support
    expected = (report.f1[0] * support[0] + report.f1[1] * support[1]) / 4
    assert report.weighted_avg["f1"] == pytest.approx(expected, abs=1e-12)


def _toy_imbalanced(n_neg=300, n_pos=12, seed=3):
    rng = np.random.default_rng(seed)
    X_neg = rng.normal(0, 1, size=(n_neg, 3))
    X_pos = rng.normal(1.5, 1, size=(n_pos, 3))
    X = np.vstack([X_neg, X_pos])
    y = np.array([0] * n_neg + [1] * n_pos)
    return X, y


def _cv(X, y, params, **kwargs):
    """Mean held-out score of one parameter set: a one-point grid search."""
    return grid_search(X, y, {"seed": [params.seed]}, base_params=params, **kwargs).best_score


def test_kfold_constant_model_scores_half_macro():
    # constant features force single-leaf trees: the model predicts the majority
    X = np.ones((404, 2))
    y = np.array([0] * 400 + [1] * 4)
    score = _cv(X, y, GbdtParams(n_estimators=3), k=4, scoring="f1_macro", seed=0)
    assert score == pytest.approx(0.5, abs=0.01)


def test_kfold_leave_one_out_runs():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, size=(10, 2))
    y = np.array([0, 1] * 5)
    score = _cv(X, y, GbdtParams(n_estimators=2), k=10, scoring="f1_macro", seed=0)
    assert 0.0 <= score <= 1.0


def test_kfold_deterministic_and_permutation_invariant():
    X, y = _toy_imbalanced()
    params = GbdtParams(n_estimators=5, max_depth=2)
    a = _cv(X, y, params, k=5, scoring="f1_macro", seed=7)
    b = _cv(X, y, params, k=5, scoring="f1_macro", seed=7)
    assert a == b
    rng = np.random.default_rng(5)
    perm = rng.permutation(len(y))
    c = _cv(X[perm], y[perm], params, k=5, scoring="f1_macro", seed=7)
    assert c == a


def _folds(X, y, k, seed):
    """Each fold's rows in canonical order, as ``_fold_splits`` holds them out."""
    canon, fold_of = _fold_of_rows(X, y, k, seed)
    return [canon[fold_of[canon] == j] for j in range(k)]


def test_kfold_degenerate_cases():
    X, y = _toy_imbalanced(n_neg=10, n_pos=1)
    with pytest.raises(FoldDegenerateError):
        _cv(X, y, GbdtParams(n_estimators=2), k=3, scoring="auc", seed=0)
    with pytest.raises(FoldDegenerateError):
        _folds(X, y, k=20, seed=0)
    with pytest.raises(FoldDegenerateError):
        _folds(X, y, k=1, seed=0)


def test_stratified_folds_cover_and_balance():
    X, y = _toy_imbalanced(n_neg=50, n_pos=10)
    folds = _folds(X, y, k=5, seed=0)
    all_idx = np.concatenate(folds)
    assert sorted(all_idx) == list(range(60))
    for fold in folds:
        assert (y[fold] == 1).sum() == 2  # 10 positives dealt evenly over 5 folds


def test_as_many_folds_as_rows_hold_one_row_each():
    X, y = _toy_imbalanced(n_neg=10, n_pos=1)
    folds = _folds(X, y, k=len(y), seed=3)
    assert [len(fold) for fold in folds] == [1] * len(y)
    assert sorted(np.concatenate(folds).tolist()) == list(range(len(y)))
    assert all(fold.dtype == np.int64 for fold in folds)


def test_grid_search_single_point():
    X, y = _toy_imbalanced(n_neg=60, n_pos=12)
    result = grid_search(
        X, y, {"max_depth": [2]}, base_params=GbdtParams(n_estimators=3), k=3, seed=0
    )
    assert result.best_params == {"max_depth": 2}
    assert len(result.entries) == 1
    assert result.best_score == result.entries[0].mean_score


def test_grid_search_full_vs_randomized_coverage():
    X, y = _toy_imbalanced(n_neg=60, n_pos=12)
    grid = {"max_depth": [1, 2, 3], "learning_rate": [0.1, 0.3]}
    base = GbdtParams(n_estimators=2)
    full = grid_search(X, y, grid, base_params=base, k=2, seed=0)
    rand = grid_search(X, y, grid, base_params=base, n_draws=6, k=2, seed=0)
    full_set = {tuple(sorted(e.params.items())) for e in full.entries}
    rand_set = {tuple(sorted(e.params.items())) for e in rand.entries}
    assert full_set == rand_set
    assert len(full.entries) == 6


def test_grid_search_reproducible_and_validates():
    X, y = _toy_imbalanced(n_neg=40, n_pos=10)
    grid = {"max_depth": [1, 2, 3, 4]}
    base = GbdtParams(n_estimators=2)
    a = grid_search(X, y, grid, base_params=base, n_draws=2, k=2, seed=3)
    b = grid_search(X, y, grid, base_params=base, n_draws=2, k=2, seed=3)
    assert [e.params for e in a.entries] == [e.params for e in b.entries]
    assert len(a.entries) == 2
    with pytest.raises(ValueError):
        grid_search(X, y, {}, k=2)
    with pytest.raises(ValueError):
        grid_search(X, y, {"max_depth": []}, k=2)
    with pytest.raises(ValueError):
        grid_search(X, y, grid, n_draws=0, k=2)


def test_grid_search_best_is_max_and_csv(tmp_path):
    X, y = _toy_imbalanced(n_neg=80, n_pos=16)
    grid = {"max_depth": [1, 3], "n_estimators": [2, 6]}
    result = grid_search(X, y, grid, base_params=GbdtParams(), k=2, seed=1)
    assert result.best_score == max(e.mean_score for e in result.entries)
    out = tmp_path / "search.csv"
    result.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "max_depth,n_estimators,mean_score,fit_seconds"
    assert len(lines) == 1 + 4


def test_reference_grid_shape_runs_end_to_end():
    # the depth x estimators x lambda search space, shrunk to toy sizes
    X, y = _toy_imbalanced(n_neg=50, n_pos=10)
    grid = {
        "max_depth": [1, 2],
        "n_estimators": [2, 4],
        "reg_lambda": [0.0, 1.0, 5.0],
    }
    result = grid_search(X, y, grid, base_params=GbdtParams(), k=2, seed=0)
    assert len(result.entries) == 12
    assert set(result.best_params) == {"max_depth", "n_estimators", "reg_lambda"}


def _search_table(result):
    """A search result without its timings."""
    entries = [(e.params, e.mean_score, e.fold_scores) for e in result.entries]
    return entries, result.best_params, result.best_score


@pytest.mark.parametrize("n_draws", [None, 3], ids=["full", "randomized"])
def test_grid_search_same_at_one_and_two_workers(n_draws, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool even on one CPU
    X, y = _toy_imbalanced(n_neg=60, n_pos=15)
    grid = {"max_depth": [1, 3], "learning_rate": [0.1, 0.5]}
    args = dict(base_params=GbdtParams(n_estimators=4), n_draws=n_draws, k=3, seed=2)
    one = grid_search(X, y, grid, workers=1, **args)
    two = grid_search(X, y, grid, workers=2, **args)
    assert _search_table(one) == _search_table(two)
    assert all(len(e.fit_seconds) == 3 for e in two.entries)


def test_grid_search_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    X, y = _toy_imbalanced(n_neg=20, n_pos=10)
    X[0, 0] = np.nan
    with pytest.raises(ShapeError, match="NaN or infinite"):
        grid_search(X, y, {"max_depth": [1, 2]}, base_params=GbdtParams(n_estimators=2),
                    k=2, workers=2)


def test_grid_search_caps_workers_at_the_cpu_count(monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs each task at submit, in this process, and records the pool size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    X, y = _toy_imbalanced(n_neg=40, n_pos=10)
    grid = {"max_depth": [1, 2]}
    base = GbdtParams(n_estimators=2)
    capped = grid_search(X, y, grid, base_params=base, k=2, workers=10**9)
    assert sizes == [3]  # 3 CPUs, 4 fits
    grid_search(X, y, {"max_depth": [1]}, base_params=base, k=2, workers=10**9)
    assert sizes == [3, 2]  # 2 fits
    serial = grid_search(X, y, grid, base_params=base, k=2)
    assert sizes == [3, 2]
    assert _search_table(capped) == _search_table(serial)
