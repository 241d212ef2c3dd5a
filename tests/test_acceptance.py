"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

from __future__ import annotations

import json
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest

from reference_ledger import lagged_regime_ledger
from test_gbdt import brute_force_root_split, first_split_of
from trendlab import gbdt
from trendlab.cli import main
from trendlab.evaluation import class_report, roc_auc
from trendlab.features import CP_FEATURE_NAMES, FeatureDataset, build_cp_dataset, build_tof_dataset
from trendlab.gbdt import GbdtParams, fit, predict_proba
from trendlab.labels import (
    count_contradictions,
    extract_windows,
    split_by_date,
    trigger_correction,
)
from trendlab.pipeline import (
    CP_LAG_DAYS,
    PipelineConfig,
    StockStats,
    aggregate,
    oracle_cp_scorer,
    oracle_tof_scorer,
    run_pipeline,
    score_stocks,
    trend_profit,
)
from trendlab.synth import (
    ExpertProfile,
    RegimeSpec,
    SamplerConfig,
    gen_expert_labels,
    gen_series,
)


def _announce(num: int, name: str) -> None:
    print(f"[PASS] criterion {num}: {name}")


def test_criterion_1_profit_arithmetic_exactness():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        entry = float(rng.uniform(0.5, 500.0))
        exit_ = float(rng.uniform(0.5, 500.0))
        up = (exit_ - entry) / entry  # long: buy, then sell
        down = (entry - exit_) / entry  # short: sell, then buy back
        assert abs(trend_profit(entry, exit_, 1) - up) <= 1e-12
        assert abs(trend_profit(entry, exit_, -1) - down) <= 1e-12

    for _ in range(1000):
        n_stocks = int(rng.integers(1, 6))
        stats = []
        for s in range(n_stocks):
            profit_lng = float(rng.normal(0, 0.2))
            profit_sht = float(rng.normal(0, 0.2))
            days_lng = int(rng.integers(0, 300))
            days_sht = int(rng.integers(0, 300))
            stats.append(
                StockStats(
                    stockname=f"S{s}", profit=profit_lng + profit_sht,
                    days_in=days_lng + days_sht, times_in=int(rng.integers(0, 20)),
                    profit_lng=profit_lng, days_in_lng=days_lng, times_in_lng=0,
                    profit_sht=profit_sht, days_in_sht=days_sht, times_in_sht=0,
                )
            )
        ndp = int(rng.integers(1, 5000))
        report = aggregate(stats, num_datapoints=ndp)
        profit = sum(s.profit for s in stats)
        days = sum(s.days_in for s in stats)
        assert abs(report.profit - profit) <= 1e-12
        if days:
            assert abs(report.day_profit - profit / days) <= 1e-12
            assert abs(report.year_profit - (profit / days) * 250) <= 1e-12
        else:
            assert report.day_profit == 0.0 and report.year_profit == 0.0
        assert abs(report.year_profit_avg - profit / ndp * 250) <= 1e-12
    _announce(1, "profit arithmetic matches the independent re-derivation to 1e-12")


def test_criterion_2_gbdt_split_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    trials = 0
    while checked < 50 and trials < 200:
        trials += 1
        n = int(rng.integers(20, 201))
        k = int(rng.integers(1, 6))
        X = np.round(rng.normal(0, 1, size=(n, k)), int(rng.integers(1, 4)))
        signal = X[:, int(rng.integers(0, k))] + rng.normal(0, 0.6, size=n)
        y = (signal > np.median(signal) * rng.uniform(0.5, 1.5)).astype(int)
        if y.min() == y.max():
            continue
        spw = float(rng.choice([1.0, 2.0, 10.0]))
        params = GbdtParams(n_estimators=1, max_depth=1, scale_pos_weight=spw)
        oracle = brute_force_root_split(X, y, params)
        model = fit(X, y, params)
        root = model.trees[0]
        if oracle is None:
            assert root.is_leaf
            checked += 1
            continue
        feature, threshold = first_split_of(model)
        assert (feature, threshold) == (oracle[1], oracle[2])
        # recompute the fitted split's gain from its own partition
        w = np.where(y == 1, spw, 1.0)
        g = (0.5 - y) * w
        h = 0.25 * w
        mask = X[:, feature] < threshold
        GL, HL = g[mask].sum(), h[mask].sum()
        GR, HR = g[~mask].sum(), h[~mask].sum()
        lam = params.reg_lambda
        gain = 0.5 * (
            GL * GL / (HL + lam) + GR * GR / (HR + lam) - (GL + GR) ** 2 / (HL + HR + lam)
        )
        assert gain == pytest.approx(oracle[0], abs=1e-9)
        checked += 1
    assert checked >= 50
    _announce(2, f"root split matched exhaustive enumeration on {checked} datasets")


def test_criterion_3_auc_oracle():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 80:
        n = int(rng.integers(2, 201))
        decimals = int(rng.integers(0, 3))  # coarse scores force many ties
        scores = np.round(rng.normal(0, 1, size=n), decimals)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (len(pos) * len(neg))
        assert roc_auc(scores, labels) == pytest.approx(float(brute), abs=1e-12)
        checked += 1
    _announce(3, f"rank AUC equals brute-force pairwise counting on {checked} datasets")


def test_criterion_4_f1_macro_extremes():
    labels = np.array([0] * 1000 + [1])
    report = class_report(np.zeros(1001, dtype=int), labels)
    assert 0.49 <= report.f1_macro <= 0.50
    perfect = class_report(labels, labels)
    assert perfect.f1_macro == 1.0
    _announce(4, f"all-majority f1_macro {report.f1_macro:.4f} in [0.49, 0.50]; perfect is 1.0")


def _imbalanced_cp_task(seed: int, n_neg: int = 3000, n_pos: int = 30, k: int = 10):
    rng = np.random.default_rng(seed)
    X_neg = rng.normal(0, 0.02, size=(n_neg, k))
    X_pos = rng.normal(0, 0.02, size=(n_pos, k))
    X_pos[:, :3] += 0.025  # changepoints shift a few of the ratio features
    X = np.vstack([X_neg, X_pos])
    y = np.array([0] * n_neg + [1] * n_pos)
    return X, y


def test_criterion_5_imbalance_handling():
    X_train, y_train = _imbalanced_cp_task(200)
    X_test, y_test = _imbalanced_cp_task(201)
    balance = float((y_train == 0).sum() / (y_train == 1).sum())
    assert balance == 100.0
    recalls = {}
    for spw in (1.0, balance):
        params = GbdtParams(n_estimators=40, max_depth=3, scale_pos_weight=spw, seed=7)
        model = fit(X_train, y_train, params)
        pred = predict_proba(model, X_test) >= 0.5
        recalls[spw] = float((pred[y_test == 1] == 1).mean())
    assert recalls[balance] > recalls[1.0]
    _announce(
        5,
        f"minority recall {recalls[balance]:.3f} with scale_pos_weight=balance vs "
        f"{recalls[1.0]:.3f} at 1",
    )


def test_criterion_6_fraction_accuracy_monotonicity():
    cfg = SamplerConfig(
        n_days=6500,
        trend_length=(120, 400),
        flat_length=(120, 300),
        drift_range=(0.002, 0.004),
        volatility_range=(0.012, 0.02),
    )
    parts = []
    n_windows = 0
    for i in range(24):
        series, windows = gen_series(cfg, seed=[99, i], stockname=f"S{i:02d}")
        n_windows += len(windows)
        parts.append(build_tof_dataset(windows, series, log_mode=True))
    assert n_windows >= 500
    days = np.concatenate([p.days for p in parts])
    X = np.vstack([p.X for p in parts])
    y = np.concatenate([p.y for p in parts])
    fractions = np.concatenate([p.fractions for p in parts])
    split_day = int(np.sort(days)[int(len(days) * 0.7)])
    split = split_by_date(days, y, Date.fromordinal(split_day))
    params = GbdtParams(n_estimators=80, max_depth=4, learning_rate=0.2, reg_lambda=3.0)
    model = fit(X[split.train_idx], y[split.train_idx], params)
    pred = predict_proba(model, X[split.test_idx]) >= 0.5
    y_test = y[split.test_idx]
    frac_test = fractions[split.test_idx]
    accuracies = []
    for frac in (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
        idx = np.flatnonzero(frac_test == frac)
        assert idx.size, f"no test rows at fraction {frac}%"
        accuracies.append(float(np.mean(pred[idx] == y_test[idx])))
    gap = accuracies[-1] - accuracies[0]
    inversions = sum(1 for a, b in zip(accuracies, accuracies[1:]) if b < a)
    assert gap >= 0.10
    assert inversions <= 2
    _announce(
        6,
        f"accuracy rises {accuracies[0]:.1%} -> {accuracies[-1]:.1%} over fractions "
        f"({n_windows} windows, {inversions} inversions)",
    )


def _two_expert_contradictions(correct: bool) -> int:
    cfg = SamplerConfig(
        n_days=2000, trend_length=(40, 100), flat_length=(30, 80),
        drift_range=(0.002, 0.004), volatility_range=(0.006, 0.012),
    )
    parts = []
    for i in range(6):
        series, truth = gen_series(cfg, seed=[31, i], stockname=f"S{i:02d}")
        for j, name in enumerate(("D", "G")):
            rows = gen_expert_labels(
                truth, ExpertProfile(jitter_days=3), seed=[31, i, j], series=series, name=name
            )
            windows = extract_windows(rows, series)
            if correct:
                windows = trigger_correction(windows, series)
            parts.append(build_cp_dataset(series, windows, log_mode=True))
    ds = FeatureDataset(
        kind="cp",
        feature_names=CP_FEATURE_NAMES,
        days=np.concatenate([p.days for p in parts]),
        stocknames=np.concatenate([p.stocknames for p in parts]),
        X=np.vstack([p.X for p in parts]),
        y=np.concatenate([p.y for p in parts]),
    ).deduplicate()
    return count_contradictions(ds.X, ds.y).n_contradicting_rows


def test_criterion_7_trigger_correction_reduces_contradictions():
    before = _two_expert_contradictions(correct=False)
    after = _two_expert_contradictions(correct=True)
    assert before > 0
    assert after < before
    reduction = 100.0 * (before - after) / before
    _announce(
        7,
        f"trigger correction cut contradictions {before} -> {after} ({reduction:.0f}% reduction)",
    )


def _oracle_regimes():
    return [
        RegimeSpec("flat", 60, 0.0, 0.0008),
        RegimeSpec("up", 80, 0.004, 0.0008),
        RegimeSpec("flat", 50, 0.0, 0.0008),
        RegimeSpec("down", 70, -0.004, 0.0008),
        RegimeSpec("flat", 40, 0.0, 0.0008),
        RegimeSpec("up", 90, 0.004, 0.0008),
        RegimeSpec("down", 60, -0.004, 0.0008),
    ]


def test_criterion_8_pipeline_oracle_and_no_look_ahead():
    series, windows = gen_series(_oracle_regimes(), seed=300, stockname="ORC")
    cfg = PipelineConfig()
    # one oracle answers the series and each truncation of it, from the windows clipped to it
    cp, tof = oracle_cp_scorer({"ORC": windows}), oracle_tof_scorer({"ORC": windows})
    trace, stats = run_pipeline(score_stocks({"ORC": series}, cp, tof, [cfg], True)["ORC"], cfg)
    ledger = lagged_regime_ledger(windows, series, entry_lag=cfg.entry_lag)
    assert stats.times_in == len(ledger) > 0
    assert stats.profit == pytest.approx(sum(e.profit for e in ledger), abs=1e-9)
    for entry in ledger:  # entry directions verified against an independent fit
        prefix = np.log(series.closes[entry.window_start_row : entry.entry_row + 1])
        slope = np.polyfit(np.arange(len(prefix)), prefix, 1)[0]
        assert np.sign(slope) == entry.direction

    rng = np.random.default_rng(301)
    for d in rng.integers(20, len(series) - 1, size=20):
        d = int(d)
        truncated = series[: d + 1]
        scores_t = score_stocks({"ORC": truncated}, cp, tof, [cfg], True)["ORC"]
        trace_t, _ = run_pipeline(scores_t, cfg)
        known = slice(d - CP_LAG_DAYS + 1)
        for column in ("cp_proba", "cp_signal", "tof_proba", "tof_signal"):
            np.testing.assert_array_equal(
                getattr(trace, column)[known], getattr(trace_t, column)[known]
            )
    _announce(8, "oracle backtest equals the generator ledger; 20 truncation replays clean")


CHAIN_SYNTH = [
    "synth", "--seed", "555", "--stocks", "2", "--days", "700",
    "--trend-len", "40,90", "--flat-len", "20,60",
    "--drift", "0.002,0.005", "--volatility", "0.002,0.004",
    "--jitter-days", "1", "--disagree-prob", "0.02", "--split-merge-prob", "0.0",
]


def _run_chain(root: Path, threads: str) -> dict[str, bytes]:
    """Every artifact of the chain; search tables without their timing column."""
    data, prep, models, reports = (root / x for x in ("data", "prep", "models", "reports"))
    assert main(CHAIN_SYNTH + ["-o", str(data)]) == 0
    assert main(["prepare", "--data", str(data), "-o", str(prep), "--trigger-correction"]) == 0
    for which, n in (("cp", "20"), ("tof", "25")):
        assert main(
            ["train", which, "--prepared", str(prep), "-o", str(models),
             "--n-estimators", n, "--max-depth", "3", "--threads", threads]
        ) == 0
    grid = root / "grid.ini"
    grid.write_text("[grid]\nmax_depth = 2,3\nlearning_rate = 0.1,0.3\n")
    assert main(
        ["gridsearch", "tof", "--prepared", str(prep), "-o", str(root / "search"),
         "--grid", str(grid), "--folds", "3", "--n-estimators", "10", "--threads", threads]
    ) == 0
    assert main(
        ["backtest", "--data", str(data), "--prepared", str(prep),
         "--models", str(models), "-o", str(reports)]
    ) == 0
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    table = root / "search" / "search_tof.csv"
    lines = table.read_text().splitlines()
    assert lines[0].endswith(",fit_seconds")
    out[str(table.relative_to(root))] = "\n".join(x.rsplit(",", 1)[0] for x in lines).encode()
    return out


def test_criterion_9_end_to_end_determinism(tmp_path):
    first = _run_chain(tmp_path / "run1", threads="1")
    second = _run_chain(tmp_path / "run2", threads="1")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    threaded = _run_chain(tmp_path / "run3", threads="all")
    assert first.keys() == threaded.keys()
    for name in first:
        assert first[name] == threaded[name], f"{name} differs between threads=1 and threads=all"
    _announce(9, f"{len(first)} artifacts byte-identical across reruns and worker counts")


def test_criterion_10_end_to_end_sanity(tmp_path):
    data, prep, models, reports = (tmp_path / x for x in ("data", "prep", "models", "reports"))
    assert main(
        ["synth", "--seed", "123", "--stocks", "3", "--days", "1600",
         "--trend-len", "50,120", "--flat-len", "30,80",
         "--drift", "0.002,0.005", "--volatility", "0.001,0.003",
         "--jitter-days", "1", "--disagree-prob", "0.02", "--split-merge-prob", "0.0",
         "-o", str(data)]
    ) == 0
    assert main(["prepare", "--data", str(data), "-o", str(prep), "--trigger-correction"]) == 0
    for which in ("cp", "tof"):
        assert main(
            ["train", which, "--prepared", str(prep), "-o", str(models),
             "--n-estimators", "60", "--max-depth", "3"]
        ) == 0
    assert main(
        ["backtest", "--data", str(data), "--prepared", str(prep),
         "--models", str(models), "-o", str(reports)]
    ) == 0
    assert main(["baseline", "--data", str(data), "-o", str(reports)]) == 0
    report = json.loads((reports / "backtest_report_t0.50.json").read_text())
    baseline = json.loads((reports / "baseline_report.json").read_text())
    never_trade = 0.0
    assert report["YearProfit"] > 0.0
    assert report["YearProfit"] > never_trade
    truth = baseline["experts"]["truth"]
    assert truth["YearProfit"] > report["YearProfit"]
    _announce(
        10,
        f"model YearProfit {report['YearProfit']:.1%} beats never-trade; ground truth "
        f"{truth['YearProfit']:.1%} beats the model",
    )
