"""Two-stage simulation, profit arithmetic and the generator-side oracle."""

from __future__ import annotations

import tempfile
from dataclasses import FrozenInstanceError, replace
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_series
from reference_features import WindowSums
from reference_features import tof_features as reference_tof_features
from reference_ledger import lagged_regime_ledger
from reference_pipeline import (
    reference_run_pipeline,
    reference_trace_csv,
    row_oracle_cp_scorer,
    row_oracle_tof_scorer,
)
from trendlab import gbdt, pipeline
from trendlab.errors import ConfigError, SeriesTooShortError, ShapeError
from trendlab.features import build_cp_dataset, build_tof_dataset, tof_features
from trendlab.labels import ExpertWindow
from trendlab.market_data import FLAT, TREND, QuoteSeries
from trendlab.pipeline import (
    BUSINESS_DAYS_PER_YEAR,
    CP_LAG_DAYS,
    PipelineConfig,
    Position,
    SignalTrace,
    StockScores,
    StockStats,
    _answer_text,
    _lead_text,
    aggregate,
    backtest_span,
    backtest_spans,
    clip_windows_to_span,
    expert_baseline,
    oracle_cp_scorer,
    oracle_tof_scorer,
    run_pipeline,
    score_stocks,
    trend_profit,
)
from trendlab.synth import RegimeSpec, SamplerConfig, gen_series


def _scores(series, cp, tof, configs, log_mode=True) -> StockScores:
    """The scores of one stock scored alone."""
    return score_stocks({series.stockname: series}, cp, tof, configs, log_mode)[series.stockname]


def _oracles(windows, series):
    """The two oracle scorers of one stock's true windows."""
    truth = {series.stockname: windows}
    return oracle_cp_scorer(truth), oracle_tof_scorer(truth)


def _run(series, cp, tof, cfg=PipelineConfig(), log_mode=True):
    """One config's run: the stock scored for that config alone, then walked."""
    return run_pipeline(_scores(series, cp, tof, [cfg], log_mode), cfg)


def test_trend_profit_formulas():
    assert trend_profit(100.0, 110.0, 1) == pytest.approx(0.10, abs=1e-15)
    assert trend_profit(100.0, 90.0, -1) == pytest.approx(0.10, abs=1e-15)
    assert trend_profit(100.0, 100.0, 1) == 0.0
    assert trend_profit(100.0, 100.0, -1) == 0.0
    with pytest.raises(ValueError):
        trend_profit(0.0, 10.0, 1)
    with pytest.raises(ValueError):
        trend_profit(10.0, 10.0, 0)


def test_trend_profit_antisymmetry_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        entry = float(rng.uniform(1, 500))
        exit_ = float(rng.uniform(1, 500))
        assert trend_profit(entry, exit_, 1) == -trend_profit(entry, exit_, -1)
        c = float(rng.uniform(0.1, 10))
        assert trend_profit(c * entry, c * exit_, 1) == pytest.approx(
            trend_profit(entry, exit_, 1), abs=1e-12
        )


def test_aggregate_arithmetic():
    stats = StockStats(
        stockname="A", profit=0.10, days_in=125, times_in=3,
        profit_lng=0.10, days_in_lng=125, times_in_lng=3,
        profit_sht=0.0, days_in_sht=0, times_in_sht=0,
    )
    report = aggregate([stats], num_datapoints=500)
    assert report.day_profit == pytest.approx(0.0008, abs=1e-15)
    assert report.year_profit == pytest.approx(0.20, abs=1e-12)
    assert report.year_profit_avg == pytest.approx(0.05, abs=1e-15)
    assert report.num_stocks == 1


def test_aggregate_empty_ledger_flags():
    report = aggregate([StockStats(stockname="A")], num_datapoints=100)
    assert report.day_profit == 0.0
    assert report.year_profit == 0.0
    assert "no_days_in_position" in report.flags
    with pytest.raises(ValueError):
        aggregate([], num_datapoints=0)


def _random_positions(rng, stockname="A", n=8):
    positions = []
    row = 0
    for _ in range(n):
        entry_row = row + int(rng.integers(1, 5))
        exit_row = entry_row + int(rng.integers(0, 20))
        direction = 1 if rng.random() < 0.5 else -1
        entry, exit_ = float(rng.uniform(50, 150)), float(rng.uniform(50, 150))
        positions.append(
            Position(
                stockname=stockname, direction=direction,
                entry_date=Date(2015, 1, 1), exit_date=Date(2015, 6, 1),
                entry_close=entry, exit_close=exit_,
                entry_row=entry_row, exit_row=exit_row,
                profit=trend_profit(entry, exit_, direction), exit_reason="test",
            )
        )
        row = exit_row
    return positions


def test_stock_stats_additivity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        stats = StockStats.from_positions("A", _random_positions(rng))
        assert stats.profit == pytest.approx(stats.profit_lng + stats.profit_sht, abs=1e-12)
        assert stats.days_in == stats.days_in_lng + stats.days_in_sht
        assert stats.times_in == stats.times_in_lng + stats.times_in_sht


def test_run_pipeline_too_short():
    series = make_series(100 + np.arange(10.0))
    with pytest.raises(SeriesTooShortError):
        _run(series, lambda _, ts, X: np.zeros(len(ts)), lambda _, s, d, X: np.zeros(len(d)))


def test_run_pipeline_never_firing_cp_means_no_positions():
    series = make_series(100 + np.arange(60.0))
    trace, stats = _run(
        series, lambda _, ts, X: np.zeros(len(ts)), lambda _, s, d, X: np.ones(len(d))
    )
    assert stats.times_in == 0
    assert stats.profit == 0.0
    assert stats.days_in == 0
    assert (trace.position_state == "flat").all()


def test_run_pipeline_always_cp_flat_tof_means_no_positions():
    series = make_series(100 + np.arange(60.0))
    trace, stats = _run(
        series, lambda _, ts, X: np.ones(len(ts)), lambda _, s, d, X: np.zeros(len(d))
    )
    assert stats.times_in == 0
    assert trace.cp_signal.any()
    assert (trace.tof_signal <= 0).all()


def _oracle_universe(seed=12):
    regimes = [
        RegimeSpec("flat", 60, 0.0, 0.0008),
        RegimeSpec("up", 80, 0.004, 0.0008),
        RegimeSpec("flat", 50, 0.0, 0.0008),
        RegimeSpec("down", 70, -0.004, 0.0008),
        RegimeSpec("flat", 40, 0.0, 0.0008),
        RegimeSpec("up", 90, 0.004, 0.0008),
    ]
    return gen_series(regimes, seed=seed, stockname="ORC")


def test_pipeline_oracle_matches_generator_ledger():
    series, windows = _oracle_universe()
    cfg = PipelineConfig()
    trace, stats = _run(
        series,
        *_oracles(windows, series),
        cfg,
    )
    ledger = lagged_regime_ledger(windows, series, entry_lag=cfg.entry_lag)
    assert stats.times_in == len(ledger)
    assert stats.profit == pytest.approx(sum(e.profit for e in ledger), abs=1e-9)
    # positions line up entry/exit row for row with the ledger
    got = [(p.entry_row, p.exit_row, p.direction) for p in trace.positions]
    want = [(e.entry_row, e.exit_row, e.direction) for e in ledger]
    assert got == want
    # the ledger's directions agree with an independent regression over each prefix
    for e in ledger:
        start = e.window_start_row
        prefix = np.log(series.closes[start : e.entry_row + 1])
        slope = np.polyfit(np.arange(len(prefix)), prefix, 1)[0]
        assert np.sign(slope) == e.direction


def test_no_look_ahead_replay_truncation():
    series, windows = _oracle_universe(seed=21)
    cfg = PipelineConfig()
    cp, tof = _oracles(windows, series)
    full_trace, _ = _run(series, cp, tof, cfg)
    rng = np.random.default_rng(3)
    for d in rng.integers(20, len(series) - 1, size=8):
        truncated = series[: int(d) + 1]
        trace_t, _ = _run(truncated, cp, tof, cfg)  # the oracles clip the windows to it
        known = slice(int(d) - CP_LAG_DAYS + 1)
        assert full_trace.dates[known] == trace_t.dates[known]
        for column in ("cp_proba", "cp_signal", "tof_proba", "tof_signal"):
            np.testing.assert_array_equal(
                getattr(full_trace, column)[known], getattr(trace_t, column)[known]
            )


SMALL_UNIVERSE = SamplerConfig(
    n_days=350, trend_length=(40, 90), flat_length=(20, 60),
    drift_range=(0.002, 0.005), volatility_range=(0.004, 0.01),
)


@pytest.fixture(scope="module")
def trained_models():
    """Small cp/tof models per feature space, trained on one synth series."""
    train_series, train_windows = gen_series(
        SamplerConfig(n_days=1500, trend_length=(40, 90), flat_length=(20, 60)),
        seed=[17, 0], stockname="TRN",
    )
    models = {}
    for log_mode in (True, False):
        cp_ds = build_cp_dataset(train_series, train_windows, log_mode=log_mode)
        balance = float((cp_ds.y == 0).sum() / (cp_ds.y == 1).sum())
        cp = gbdt.fit(cp_ds.X, cp_ds.y, gbdt.GbdtParams(
            n_estimators=10, max_depth=3, scale_pos_weight=balance))
        tof_ds = build_tof_dataset(train_windows, train_series, log_mode=log_mode)
        tof = gbdt.fit(tof_ds.X, tof_ds.y, gbdt.GbdtParams(n_estimators=10, max_depth=3))
        models[log_mode] = (cp, tof)
    return models


def _assert_same_run(got, want, tmp_path):
    (trace, stats), (ref_trace, ref_stats) = got, want
    assert trace.stockname == ref_trace.stockname
    trace.to_csv(tmp_path / "got.csv")
    ref_trace.to_csv(tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert trace.positions == ref_trace.positions
    assert stats == ref_stats


@pytest.mark.parametrize("log_mode", [True, False])
@pytest.mark.parametrize("hold", [False, True])
@pytest.mark.parametrize("min_window_days", [6, 9])
def test_batch_pipeline_matches_per_row_reference(
    trained_models, tmp_path, log_mode, hold, min_window_days
):
    series, windows = gen_series(SMALL_UNIVERSE, seed=[17, 1], stockname="TST")
    cp_model, tof_model = trained_models[log_mode]
    probas = np.random.default_rng(5).choice([0.2, 0.6, 0.9], size=len(series), p=[0.9, 0.07, 0.03])

    def row_tof(start, t, row):
        return min(1.0, abs(row.reg_close) * 200.0) if (t - start) % 7 else 0.25

    def batch_tof(series, starts, days, X):
        return np.where((days - starts) % 7 != 0, np.minimum(1.0, np.abs(X[:, 0]) * 200.0), 0.25)

    scorer_pairs = {
        "models": ((cp_model, tof_model), (cp_model, tof_model)),
        "oracles": (
            _oracles(windows, series),
            (row_oracle_cp_scorer(windows, series), row_oracle_tof_scorer(windows, series)),
        ),
        "callables": (
            (lambda _, ts, X: probas[ts], batch_tof), (lambda t, row: float(probas[t]), row_tof)
        ),
    }
    exits = set()
    for name, ((cp, tof), (row_cp, row_tof_scorer)) in scorer_pairs.items():
        for threshold in (0.3, 0.5, 0.8):
            cfg = PipelineConfig(
                cp_threshold=threshold, hold_until_changepoint=hold, min_window_days=min_window_days
            )
            got = _run(series, cp, tof, cfg, log_mode)
            want = reference_run_pipeline(series, row_cp, row_tof_scorer, cfg, log_mode)
            _assert_same_run(got, want, tmp_path)
            exits |= {p.exit_reason for p in got[0].positions}
    # the comparison covered the changepoint exit and, unless holding, the trend/flat exit
    assert "changepoint" in exits
    assert ("tof_flat" in exits) != hold


def test_no_look_ahead_replay_trained_models(trained_models):
    series, _ = gen_series(SMALL_UNIVERSE, seed=[17, 2], stockname="TST")
    cp_model, tof_model = trained_models[True]
    cfg = PipelineConfig()
    full_trace, _ = _run(series, cp_model, tof_model, cfg)
    assert full_trace.positions
    columns = ("cp_proba", "cp_signal", "window_id", "window_start", "tof_proba", "tof_signal")
    rng = np.random.default_rng(8)
    for d in rng.integers(20, len(series) - 1, size=15):
        d = int(d)
        trace_t, _ = _run(series[: d + 1], cp_model, tof_model, cfg)
        assert full_trace.dates[: d + 1] == trace_t.dates
        for column in columns:
            np.testing.assert_array_equal(
                getattr(full_trace, column)[: d + 1], getattr(trace_t, column)
            )
        entered = [(p.entry_row, p.direction) for p in full_trace.positions if p.entry_row <= d]
        assert [(p.entry_row, p.direction) for p in trace_t.positions] == entered


def test_each_stage_is_scored_in_one_call(trained_models, monkeypatch):
    series, windows = gen_series(SMALL_UNIVERSE, seed=[17, 3], stockname="TST")
    cp, tof = _oracles(windows, series)
    calls = {"cp": 0, "tof": 0}

    def counting_cp(series, ts, X):
        calls["cp"] += 1
        return cp(series, ts, X)

    def counting_tof(series, starts, days, X):
        calls["tof"] += 1
        return tof(series, starts, days, X)

    trace, _ = _run(series, counting_cp, counting_tof)
    assert calls == {"cp": 1, "tof": 1}
    assert trace.positions

    predict_proba = gbdt.predict_proba
    rows = []

    def counting_predict_proba(model, X):
        rows.append(len(X))
        return predict_proba(model, X)

    monkeypatch.setattr(gbdt, "predict_proba", counting_predict_proba)
    trace, _ = _run(series, *trained_models[True])
    assert len(rows) == 2
    assert rows[1] == np.count_nonzero(~np.isnan(trace.tof_proba))


@pytest.mark.parametrize("hold", [False, True], ids=["closing", "holding"])
def test_the_walk_reads_one_prefix_per_position(trained_models, monkeypatch, hold):
    series, _ = gen_series(SMALL_UNIVERSE, seed=[17, 1], stockname="TST")
    configs = [PipelineConfig(cp_threshold=t, hold_until_changepoint=hold) for t in (0.3, 0.5, 0.8)]
    scores = _scores(series, *trained_models[True], configs)
    lengths = []

    def counting_tof_features(row):
        lengths.append(tof_features(row).len_trend)
        return tof_features(row)

    monkeypatch.setattr(pipeline, "tof_features", counting_tof_features)
    positions = 0
    for cfg in configs:
        lengths.clear()
        trace, _ = run_pipeline(scores, cfg)
        # each position's direction comes from the prefix that ends on its entry day
        entries = [p.entry_row for p in trace.positions]
        assert lengths == [e - trace.window_start[e] + 1 for e in entries]
        positions += len(entries)
    assert positions


@pytest.mark.parametrize("log_mode", [True, False])
def test_each_answer_and_direction_is_read_from_its_scored_row(trained_models, log_mode):
    series, _ = gen_series(SMALL_UNIVERSE, seed=[17, 4], stockname="TST")
    cp_model, tof_model = trained_models[log_mode]
    configs = [PipelineConfig(cp_threshold=t) for t in (0.3, 0.5, 0.8)]
    scores = _scores(series, cp_model, tof_model, configs, log_mode)
    assert not scores.tof_X.flags.writeable
    bars = series.closes, series.volumes
    if log_mode:
        bars = np.log(bars[0]), np.log(bars[1])
    positions = 0
    for cfg in configs:
        w = scores.windows[cfg]
        trace, _ = run_pipeline(scores, cfg)
        days = np.flatnonzero(w.tof_row >= 0)
        np.testing.assert_array_equal(days, w.days)
        np.testing.assert_array_equal(np.isnan(trace.tof_proba), w.tof_row < 0)
        rows = scores.tof_X[w.tof_row[days]]
        want = gbdt.predict_proba(tof_model, rows)
        assert trace.tof_proba[days].tobytes() == want.tobytes()
        # each day's row is its prefix from the window start, as one window would build it
        for d in days[:: max(1, len(days) // 40)].tolist():
            start = int(w.window_start[d])
            prefix = WindowSums(bars[0][start : d + 1], bars[1][start : d + 1])
            want_row = np.array(reference_tof_features(prefix, d - start + 1), dtype=np.float64)
            assert scores.tof_X[w.tof_row[d]].tobytes() == want_row.tobytes()
        for p in trace.positions:
            reg_close = scores.tof_X[w.tof_row[p.entry_row], 0]
            assert p.direction == (1 if reg_close >= 0.0 else -1)
        positions += len(trace.positions)
    assert positions


# --- every stock of a backtest scored at once ---


@pytest.fixture(scope="module")
def deep_models():
    """Depth-7 cp/tof models in log space, so both stages run the walking tree evaluator."""
    train_series, train_windows = gen_series(
        SamplerConfig(n_days=1500, trend_length=(40, 90), flat_length=(20, 60)),
        seed=[17, 0], stockname="TRN",
    )
    cp_ds = build_cp_dataset(train_series, train_windows, log_mode=True)
    balance = float((cp_ds.y == 0).sum() / (cp_ds.y == 1).sum())
    params = gbdt.GbdtParams(n_estimators=4, max_depth=7)
    cp = gbdt.fit(cp_ds.X, cp_ds.y, replace(params, scale_pos_weight=balance))
    tof_ds = build_tof_dataset(train_windows, train_series, log_mode=True)
    return cp, gbdt.fit(tof_ds.X, tof_ds.y, params)


def _backtest_stocks() -> dict[str, QuoteSeries]:
    """Three synth stocks of different lengths and a flat one, by name."""
    spans = {
        f"S{k}": gen_series(replace(SMALL_UNIVERSE, n_days=days), seed=[17, 10 + k],
                            stockname=f"S{k}")[0]
        for k, days in enumerate((350, 200, 420))
    }
    spans["FLAT"] = make_series(np.full(120, 100.0), stockname="FLAT")
    return spans


def _assert_same_scores(got: StockScores, want: StockScores) -> None:
    assert got.series is want.series and got.windows.keys() == want.windows.keys()
    for name in ("cp_proba", "tof_X", "tof_proba"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable
    for name in ("lead", "tof_text"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    for cfg, w in got.windows.items():
        for name, a, b in zip(w._fields, w, want.windows[cfg]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable


@pytest.mark.parametrize("depth, log_mode", [(3, True), (3, False), (7, True)])
def test_score_stocks_gives_each_stock_the_bits_it_gets_alone(
    trained_models, deep_models, monkeypatch, depth, log_mode
):
    cp, tof = deep_models if depth == 7 else trained_models[log_mode]
    spans = _backtest_stocks()
    # thresholds above every answer about the flat stock, so it asks about no prefix
    configs = [PipelineConfig(cp_threshold=t) for t in (0.6, 0.75, 0.9)]
    alone = {stock: _scores(series, cp, tof, configs, log_mode) for stock, series in spans.items()}
    assert np.nanmax(alone["FLAT"].cp_proba) < 0.6
    assert alone["FLAT"].tof_X.shape == (0, 5)
    assert all(alone[s].tof_X.shape[0] for s in spans if s != "FLAT")

    rows = []
    predict_proba = gbdt.predict_proba

    def counting(model, X):
        rows.append(len(X))
        return predict_proba(model, X)

    monkeypatch.setattr(gbdt, "predict_proba", counting)
    scores = score_stocks(spans, cp, tof, configs, log_mode)
    assert list(scores) == list(spans)
    for stock, want in alone.items():
        _assert_same_scores(scores[stock], want)
    # one call per stage, over the rows of every stock
    assert rows == [
        sum(np.count_nonzero(~np.isnan(s.cp_proba)) for s in alone.values()),
        sum(len(s.tof_X) for s in alone.values()),
    ]


def test_score_stocks_calls_a_scorer_once_per_stock_with_its_rows():
    spans = _backtest_stocks()
    calls = []

    def cp(series, ts, X):  # the close five days later is up by 2%
        calls.append(("cp", len(ts)))
        return np.where(X[:, 9] > 0.02, 0.9, 0.1)

    def tof(series, starts, days, X):
        calls.append(("tof", len(starts)))
        return np.where(X[:, 1] > 0.5, 0.9, 0.1)

    configs = [PipelineConfig(cp_threshold=t) for t in (0.5, 0.95)]
    scores = score_stocks(spans, cp, tof, configs, True)
    # each stock's rows in its own call, even the flat stock's none
    assert calls == [("cp", len(s) - 2 * CP_LAG_DAYS) for s in spans.values()] + [
        ("tof", len(s.tof_X)) for s in scores.values()
    ]
    assert scores["FLAT"].tof_X.shape == (0, 5)
    assert all(len(scores[s].tof_X) for s in spans if s != "FLAT")
    for stock, series in spans.items():
        _assert_same_scores(scores[stock], _scores(series, cp, tof, configs))
    assert score_stocks({}, cp, tof, configs, True) == {}


def test_score_stocks_checks_every_stock_before_scoring():
    spans = _backtest_stocks()
    spans["TINY"] = make_series(100 + np.arange(10.0), stockname="TINY")

    def never(*args):
        raise AssertionError("scored before the checks")

    with pytest.raises(SeriesTooShortError, match="TINY: 10 bars < 11"):
        score_stocks(spans, never, never, [PipelineConfig()], True)
    del spans["TINY"]
    with pytest.raises(ConfigError, match="S0: no config given"):
        score_stocks(spans, never, never, [], True)


def test_a_scorer_reads_each_stocks_own_series():
    spans = _backtest_stocks()

    def cp(series, ts, X):  # the fractional part of each row's close
        return np.modf(series.closes[ts])[0]

    def tof(series, starts, days, X):  # that of the close's growth over the prefix
        return np.modf(series.closes[days] / series.closes[starts] * 10.0)[0]

    configs = [PipelineConfig(cp_threshold=t) for t in (0.5, 0.9)]
    scores = score_stocks(spans, cp, tof, configs, True)
    for stock, series in spans.items():
        _assert_same_scores(scores[stock], _scores(series, cp, tof, configs))
    # the stocks' answers about the same row differ, so no stock was answered from another's bars
    rows = slice(2 * CP_LAG_DAYS, 120)
    answers = {scores[s].cp_proba[rows].tobytes() for s in spans}
    assert len(answers) == len(spans)
    assert all(len(scores[s].tof_X) for s in spans if s != "FLAT")


def test_one_oracle_gives_each_stock_the_bits_it_gets_alone():
    generated = {
        f"S{k}": gen_series(replace(SMALL_UNIVERSE, n_days=days), seed=[17, 10 + k],
                            stockname=f"S{k}")
        for k, days in enumerate((350, 200, 420))
    }
    truth = {stock: windows for stock, (_, windows) in generated.items()}
    # test spans that start inside a window, so the oracles clip the true windows to them
    spans = {
        stock: series[31 * (k + 1) :] for k, (stock, (series, _)) in enumerate(generated.items())
    }
    cp, tof = oracle_cp_scorer(truth), oracle_tof_scorer(truth)
    configs = [PipelineConfig(cp_threshold=t, min_window_days=m) for t, m in ((0.5, 6), (0.5, 9))]
    scores = score_stocks(spans, cp, tof, configs, True)
    assert list(scores) == list(spans)
    for stock, span in spans.items():
        _assert_same_scores(scores[stock], _scores(span, cp, tof, configs))
        # the answers fire on the stock's own window starts, clipped to its span
        starts = [span.index_of(w.start_date) for w in clip_windows_to_span(truth[stock], span)]
        rows = [t for t in starts if CP_LAG_DAYS <= t < len(span) - CP_LAG_DAYS]
        assert (np.flatnonzero(scores[stock].cp_proba == 1.0) - CP_LAG_DAYS).tolist() == rows
        assert len(scores[stock].tof_X)


# --- one StockScores for several configs ---


def _table_stages(kind, trained_models, series, windows, log_mode):
    if kind == "models":
        return trained_models[log_mode]
    oracle_cp, tof = _oracles(windows, series)
    if kind == "oracles":  # 0/1 answers: every threshold gives the same windows
        return oracle_cp, tof
    probas = np.random.default_rng(6).choice(
        [0.2, 0.4, 0.6, 0.9], size=len(series), p=[0.88, 0.05, 0.04, 0.03]
    )
    return (lambda _, ts, X: probas[ts]), tof


@pytest.mark.parametrize("log_mode", [True, False])
@pytest.mark.parametrize("kind", ["models", "oracles", "callables"])
@pytest.mark.parametrize(
    "settings",
    [((0.5, 6),), ((0.8, 6), (0.3, 6), (0.55, 6)), ((0.35, 6), (0.5, 9), (0.85, 6), (0.3, 9))],
    ids=["one-threshold", "unsorted-thresholds", "mixed-entry-lags"],
)
def test_a_shared_table_gives_each_config_its_own_run(
    trained_models, tmp_path, log_mode, kind, settings
):
    series, windows = gen_series(SMALL_UNIVERSE, seed=[17, 4], stockname="TST")
    cp, tof = _table_stages(kind, trained_models, series, windows, log_mode)
    received = []

    def wrapping_tof(series, starts, days, X):
        received.extend(zip(starts.tolist(), days.tolist()))
        return gbdt.predict_proba(tof, X) if kind == "models" else tof(series, starts, days, X)

    configs = [PipelineConfig(cp_threshold=t, min_window_days=m) for t, m in settings]
    scores = _scores(series, cp, wrapping_tof, configs, log_mode)
    asked = []
    for cfg in configs:
        got = run_pipeline(scores, cfg)
        # the run of the stock scored for this config alone
        _assert_same_run(got, _run(series, cp, tof, cfg, log_mode), tmp_path)
        trace = got[0]
        # the text every run of the stock shares: each answer's cell is formatted once
        assert trace.lead is scores.lead and not trace.lead.flags.writeable
        assert not scores.tof_text.flags.writeable
        formatted = {id(cell) for cell in scores.tof_text.tolist()}
        assert all(id(cell) in formatted for cell in trace.tof_text.tolist())
        days = np.flatnonzero(~np.isnan(trace.tof_proba))
        asked.extend(zip(trace.window_start[days].tolist(), days.tolist()))
    # each distinct prefix any config asks about is scored, and scored once
    assert 0 < len(received) == len(set(received))
    assert set(received) == set(asked)
    if kind == "callables" and len(configs) > 1:
        assert len(received) < len(asked)  # the configs share prefixes


@pytest.mark.parametrize(
    "name, value",
    [("cp_threshold", 1.0), ("cp_threshold", float("nan")), ("tof_threshold", 0.0),
     ("min_window_days", 1)],
)
def test_config_checks_itself_when_built_or_replaced(name, value):
    with pytest.raises(ConfigError):
        PipelineConfig(**{name: value})
    with pytest.raises(ValueError):  # a ConfigError is a ValueError
        replace(PipelineConfig(), **{name: value})


def test_scores_walk_only_the_configs_they_were_scored_for():
    series, windows = gen_series(SMALL_UNIVERSE, seed=[17, 4], stockname="TST")
    cp, tof = _table_stages("oracles", None, series, windows, True)
    with pytest.raises(ConfigError, match="TST: no config given"):
        _scores(series, cp, tof, [])
    cfg = PipelineConfig()
    scores = _scores(series, cp, tof, [cfg, cfg], log_mode=False)
    assert scores.series is series and len(scores) == len(series)
    with pytest.raises(FrozenInstanceError):  # score_stocks sets every field once
        scores.cp_proba = np.zeros(len(series))
    assert list(scores.windows) == [cfg]
    for other in (replace(cfg, cp_threshold=0.3), replace(cfg, min_window_days=9)):
        with pytest.raises(ConfigError, match="TST: the stock was not scored for"):
            run_pipeline(scores, other)
    never = _scores(series, lambda _, ts, X: np.zeros(len(ts)), tof, [cfg])
    trace, stats = run_pipeline(never, cfg)
    assert never.windows[cfg].days.size == 0 and stats.times_in == 0


def test_scorer_must_return_one_probability_per_row():
    series = make_series(100 + np.arange(60.0))
    with pytest.raises(ShapeError):
        _run(series, lambda _, ts, X: 0.0, lambda _, s, d, X: np.zeros(len(d)))
    with pytest.raises(ShapeError):
        _run(series, lambda _, ts, X: np.ones(len(ts)), lambda _, s, d, X: np.zeros(len(d) + 1))


def test_scorer_must_return_probabilities():
    # NaN marks a missing answer in the trace columns, so a scorer's NaN is an error
    series = make_series(100 + np.arange(60.0))
    with pytest.raises(ShapeError, match=r"\[0, 1\]"):
        _run(series, lambda _, ts, X: np.full(len(ts), np.nan), lambda _, s, d, X: np.ones(len(d)))
    with pytest.raises(ShapeError, match=r"\[0, 1\]"):
        _run(series, lambda _, ts, X: np.ones(len(ts)), lambda _, s, d, X: np.full(len(d), 1.5))


def test_trace_columns_mark_missing_answers():
    series, windows = _oracle_universe(seed=42)
    trace, _ = _run(series, *_oracles(windows, series))
    assert trace.dates == series.dates
    assert all(len(getattr(trace, c)) == len(series) for c in ("cp_proba", "position_state"))
    # the answer about row t (t >= CP_LAG_DAYS) acts on day t + CP_LAG_DAYS
    assert np.isnan(trace.cp_proba[: 2 * CP_LAG_DAYS]).all()
    assert not np.isnan(trace.cp_proba[2 * CP_LAG_DAYS :]).any()
    assert ((trace.window_id == 0) == (trace.window_start == -1)).all()
    assert ((trace.tof_signal == -1) == np.isnan(trace.tof_proba)).all()
    assert np.isnan(trace.tof_proba[trace.window_id == 0]).all()
    held = np.isin(trace.position_state, ("enter", "in", "exit_enter"))
    assert (trace.direction[held] != 0).all()
    assert (trace.direction[trace.position_state == "flat"] == 0).all()


def test_monotone_gating_higher_threshold_positions_subset():
    rng = np.random.default_rng(4)
    closes = 100 * np.exp(np.cumsum(rng.normal(0.001, 0.01, 300)))
    series = make_series(closes)
    probas = rng.choice([0.3, 0.7, 0.97], size=300, p=[0.7, 0.2, 0.1])

    def cp(series, ts, X):
        return probas[ts]

    def tof(series, starts, days, X):
        return np.ones(len(days))  # invariant to the window start: gating is the only difference

    entries = {}
    for threshold in (0.5, 0.95):
        cfg = PipelineConfig(cp_threshold=threshold)
        trace, _ = _run(series, cp, tof, cfg)
        entries[threshold] = {p.entry_date for p in trace.positions}
    assert entries[0.95] <= entries[0.5]
    assert len(entries[0.95]) < len(entries[0.5])


def test_hold_until_changepoint_ignores_tof_flips():
    series, windows = _oracle_universe(seed=51)
    cp, _ = _oracles(windows, series)

    def flaky_tof(series, starts, days, X):
        # says trend at first, then flips to flat forever within each window
        return np.where(days - starts <= 8, 1.0, 0.0)

    closing = PipelineConfig(hold_until_changepoint=False)
    trace_close, stats_close = _run(series, cp, flaky_tof, closing)
    holding = PipelineConfig(hold_until_changepoint=True)
    trace_hold, stats_hold = _run(series, cp, flaky_tof, holding)
    # closing mode exits early on the flip; holding mode rides to the next signal
    assert any(p.exit_reason == "tof_flat" for p in trace_close.positions)
    assert all(p.exit_reason in ("changepoint", "series_end") for p in trace_hold.positions)
    assert stats_close.days_in < stats_hold.days_in


def test_pipeline_price_scale_invariance():
    series, windows = _oracle_universe(seed=31)
    scaled = make_series(
        series.closes * 4.0, volumes=series.volumes, stockname="ORC",
        start=series.dates[0],
    )
    cfg = PipelineConfig()
    _, stats = _run(series, *_oracles(windows, series), cfg)
    windows_scaled = [
        ExpertWindow(
            stockname="ORC", expert="truth",
            start_date=w.start_date, end_date=w.end_date,
            tendency=w.tendency, direction=w.direction,
        )
        for w in windows
    ]
    _, stats_scaled = _run(scaled, *_oracles(windows_scaled, scaled), cfg)
    assert stats_scaled.profit == pytest.approx(stats.profit, abs=1e-12)
    assert stats_scaled.days_in == stats.days_in


def test_expert_baseline_single_window():
    closes = np.linspace(100, 150, 250)
    series = make_series(closes)
    window = ExpertWindow(
        stockname=series.stockname, expert="E",
        start_date=series.dates[0], end_date=series.dates[-1],
        tendency=TREND, direction=1,
    )
    report = expert_baseline({series.stockname: [window]}, {series.stockname: series})
    assert report.profit == pytest.approx(0.5, abs=1e-12)
    assert report.days_in == 250
    assert report.year_profit == pytest.approx(0.5, abs=1e-12)
    assert report.year_profit_avg == pytest.approx(0.5, abs=1e-12)
    # on a test span, the window is clipped to the span
    clipped = expert_baseline({series.stockname: [window]}, {series.stockname: series[125:]})
    assert clipped.profit == pytest.approx(150 / closes[125] - 1, abs=1e-12)
    assert clipped.days_in == clipped.num_datapoints == 125


def test_expert_baseline_counts_every_row_of_a_span_as_a_backtest_does():
    series = make_series(np.linspace(100, 150, 250))
    # labels that stop 50 rows before the series ends
    window = ExpertWindow(
        stockname=series.stockname, expert="E",
        start_date=series.dates[0], end_date=series.dates[199],
        tendency=TREND, direction=1,
    )
    span = series[100:]
    report = expert_baseline({series.stockname: [window]}, {series.stockname: span})
    assert report.days_in == 100
    assert report.num_datapoints == len(span) == 150
    assert report.profit == pytest.approx(series.closes[199] / series.closes[100] - 1, abs=1e-12)
    # a stock without a span is left out, as a backtest skips it
    other = replace(window, stockname="OTHER")
    both = expert_baseline({series.stockname: [window], "OTHER": [other]}, {series.stockname: span})
    assert both == report
    assert expert_baseline({"OTHER": [other]}, {series.stockname: span}) is None


def test_expert_baseline_all_flat_is_zero():
    series = make_series(100 + np.arange(50.0))
    window = ExpertWindow(
        stockname=series.stockname, expert="E",
        start_date=series.dates[0], end_date=series.dates[-1],
        tendency=FLAT, direction=0,
    )
    quotes = {series.stockname: series}
    report = expert_baseline({series.stockname: [window]}, quotes)
    assert report.profit == 0.0
    assert report.times_in == 0
    # no window in the span: no report
    assert expert_baseline({series.stockname: []}, quotes) is None
    assert expert_baseline({}, quotes) is None
    early = replace(window, end_date=series.dates[4])
    assert expert_baseline({series.stockname: [early]}, {series.stockname: series[5:]}) is None


def test_expert_baseline_average_underperforms_best_expert():
    # two experts, one of them sloppy: the voted stream loses the clean edges
    from conftest import segment_labels
    from trendlab.labels import extract_windows, voted_windows

    rng = np.random.default_rng(6)
    up = 100 * np.exp(np.cumsum(np.full(60, 0.01) + rng.normal(0, 0.001, 60)))
    down = up[-1] * np.exp(np.cumsum(np.full(60, -0.01) + rng.normal(0, 0.001, 60)))
    series = make_series(np.concatenate([up, down]))
    good = extract_windows(
        segment_labels(series, [(60, TREND), (60, TREND)], expert="D"), series
    )
    sloppy_b = extract_windows(
        segment_labels(series, [(40, TREND), (40, FLAT), (40, TREND)], expert="B"), series
    )
    sloppy_c = extract_windows(
        segment_labels(series, [(45, TREND), (35, FLAT), (40, TREND)], expert="C"), series
    )
    voted = voted_windows([good, sloppy_b, sloppy_c], series)
    quotes = {series.stockname: series}
    rep_good = expert_baseline({series.stockname: good}, quotes)
    rep_voted = expert_baseline({series.stockname: voted}, quotes)
    assert rep_voted.year_profit_avg < rep_good.year_profit_avg


def test_trace_csv_round_trip_columns(tmp_path):
    series, windows = _oracle_universe(seed=41)
    trace, _ = _run(series, *_oracles(windows, series))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,cp_proba,cp_signal,window_id,tof_proba,tof_signal,direction,position_state"
    assert len(lines) == len(series) + 1
    states = {line.split(",")[-1] for line in lines[1:]}
    assert states <= {"flat", "enter", "in", "exit", "exit_enter"}


# answers with long or edge reprs, or none; window ids past any small table
_PROBAS = st.one_of(
    st.just(float("nan")),
    st.sampled_from([0.1 + 0.2, 5e-324, 0.0, 1.0, float(np.nextafter(1.0, 0.0)), 1 - 1e-9]),
    st.floats(0.0, 1.0),
)
_STATES = ("flat", "in", "enter", "exit", "exit_enter")


def _days(cells):
    return st.lists(cells, min_size=11, max_size=11)


@given(
    cp_proba=_days(_PROBAS),
    cp_signal=_days(st.integers(0, 1)),
    window_id=_days(st.one_of(st.integers(0, 12), st.sampled_from([5000, 5001]))),
    tof_proba=_days(_PROBAS),
    tof_signal=_days(st.integers(-1, 1)),
    direction=_days(st.integers(-1, 1)),
    position_state=_days(st.sampled_from(_STATES)),
)
@example(
    cp_proba=[np.nan, 0.1 + 0.2, 5e-324, 0.0, 1.0, 0.9999999999999999, 1 - 1e-9, 0.5, 0.25,
              1e-300, np.nan],
    cp_signal=[0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1],
    window_id=[0, 1, 1, 2, 3, 9, 10, 11, 5000, 5000, 5001],
    tof_proba=[np.nan, np.nan, 0.7, 0.1 + 0.2, 5e-324, 0.0, 1.0, 0.9999999999999999, 0.5,
               np.nan, 0.3],
    tof_signal=[-1, -1, 1, 0, 0, 0, 1, 1, 1, -1, 0],
    direction=[0, 0, 1, 1, -1, 0, 0, 1, -1, 0, -1],
    position_state=["flat", "flat", "enter", "in", "exit_enter", "exit", "flat", "enter", "in",
                    "in", "exit"],
)
def test_trace_csv_writes_the_bytes_of_the_per_cell_writer(
    cp_proba, cp_signal, window_id, tof_proba, tof_signal, direction, position_state
):
    dates = make_series(100 + np.arange(11.0)).dates
    cp_proba, tof_proba = np.array(cp_proba), np.array(tof_proba)
    trace = SignalTrace(
        stockname="ACME",
        dates=dates,
        cp_proba=cp_proba,
        cp_signal=np.array(cp_signal),
        window_id=np.array(window_id),
        window_start=np.full(11, -1),
        tof_proba=tof_proba,
        tof_signal=np.array(tof_signal),
        direction=np.array(direction),
        position_state=np.array(position_state, dtype="<U10"),
        positions=[],
        lead=_lead_text(dates, cp_proba),
        tof_text=_answer_text(tof_proba),
    )
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        trace.to_csv(got)
        reference_trace_csv(trace, want)
        assert got.read_bytes() == want.read_bytes()


def test_clip_windows_to_span():
    series = make_series(100 + np.arange(30.0))
    w = ExpertWindow(
        stockname=series.stockname, expert="E",
        start_date=series.dates[5], end_date=series.dates[25],
        tendency=TREND, direction=1,
    )
    clipped = clip_windows_to_span([w], series[10:21])
    assert len(clipped) == 1
    assert clipped[0].start_date == series.dates[10]
    assert clipped[0].end_date == series.dates[20]
    trimmed = clip_windows_to_span([w], series[20:])
    assert trimmed[0].start_date == series.dates[20]  # straddling window trimmed inward
    assert trimmed[0].end_date == series.dates[25]
    assert clip_windows_to_span([w], series) == [w]
    gone = clip_windows_to_span(
        [ExpertWindow(series.stockname, "E", series.dates[0], series.dates[2], TREND, 1)],
        series[5:],
    )
    assert gone == []


def test_year_constant():
    assert BUSINESS_DAYS_PER_YEAR == 250


def test_backtest_span_starts_at_the_split_and_needs_a_changepoint_row():
    series = make_series(np.linspace(10.0, 20.0, 30))
    span = backtest_span(series, series.dates[30 - (2 * CP_LAG_DAYS + 1)])
    assert span.dates == series.dates[-(2 * CP_LAG_DAYS + 1) :]
    assert backtest_span(series, series.dates[30 - 2 * CP_LAG_DAYS]) is None
    # a split date before the first quote keeps the whole series
    assert backtest_span(series, Date(2000, 1, 1)).dates == series.dates


def test_backtest_spans_flag_each_stock_too_short_to_keep():
    long = make_series(np.linspace(10.0, 20.0, 30), stockname="LONG")
    short = make_series(np.linspace(10.0, 20.0, 20), stockname="SHORT")
    split = long.dates[10]
    spans, flags = backtest_spans({"SHORT": short, "LONG": long}, split)
    assert list(spans) == ["LONG"]
    assert spans["LONG"].dates == backtest_span(long, split).dates
    assert flags == ("skipped_short_test_span:SHORT",)
    with pytest.raises(SeriesTooShortError, match="no stock had a long enough test span"):
        backtest_spans({"SHORT": short}, split)
