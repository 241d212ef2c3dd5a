"""Two-stage simulation, profit arithmetic and the generator-side oracle."""

from __future__ import annotations

from datetime import date as Date

import numpy as np
import pytest

from conftest import make_series
from trendlab.errors import EmptyInputError, SeriesTooShortError
from trendlab.labels import ExpertWindow
from trendlab.market_data import FLAT, TREND
from trendlab.pipeline import (
    BUSINESS_DAYS_PER_YEAR,
    PipelineConfig,
    Position,
    StockStats,
    aggregate,
    clip_windows_to_span,
    expert_baseline,
    oracle_cp_scorer,
    oracle_tof_scorer,
    run_pipeline,
    trend_profit,
)
from trendlab.synth import RegimeSpec, gen_series, lagged_regime_ledger


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
        run_pipeline(series, lambda t, row: 0.0, lambda s, t, row: 0.0)


def test_run_pipeline_never_firing_cp_means_no_positions():
    series = make_series(100 + np.arange(60.0))
    trace, stats = run_pipeline(series, lambda t, row: 0.0, lambda s, t, row: 1.0)
    assert stats.times_in == 0
    assert stats.profit == 0.0
    assert stats.days_in == 0
    assert all(r.position_state == "flat" for r in trace.rows)


def test_run_pipeline_always_cp_flat_tof_means_no_positions():
    series = make_series(100 + np.arange(60.0))
    trace, stats = run_pipeline(series, lambda t, row: 1.0, lambda s, t, row: 0.0)
    assert stats.times_in == 0
    assert any(r.cp_signal == 1 for r in trace.rows)
    assert all((r.tof_signal in (None, 0)) for r in trace.rows)


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
    cfg = PipelineConfig(log_mode=True)
    trace, stats = run_pipeline(
        series,
        oracle_cp_scorer(windows, series),
        oracle_tof_scorer(windows, series),
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
    cfg = PipelineConfig(log_mode=True)
    cp = oracle_cp_scorer(windows, series)
    tof = oracle_tof_scorer(windows, series)
    full_trace, _ = run_pipeline(series, cp, tof, cfg)
    rng = np.random.default_rng(3)
    for d in rng.integers(20, len(series) - 1, size=8):
        truncated = series[: int(d) + 1]
        windows_t = clip_windows_to_span(windows, truncated, end_date=truncated.dates[-1])
        trace_t, _ = run_pipeline(
            truncated, oracle_cp_scorer(windows_t, truncated),
            oracle_tof_scorer(windows_t, truncated), cfg,
        )
        horizon = int(d) - cfg.cp_lag_days
        for full_row, cut_row in zip(full_trace.rows[: horizon + 1], trace_t.rows[: horizon + 1]):
            assert full_row.date == cut_row.date
            assert full_row.cp_proba == cut_row.cp_proba
            assert full_row.cp_signal == cut_row.cp_signal
            assert full_row.tof_proba == cut_row.tof_proba
            assert full_row.tof_signal == cut_row.tof_signal


def test_monotone_gating_higher_threshold_positions_subset():
    rng = np.random.default_rng(4)
    closes = 100 * np.exp(np.cumsum(rng.normal(0.001, 0.01, 300)))
    series = make_series(closes)
    probas = rng.choice([0.3, 0.7, 0.97], size=300, p=[0.7, 0.2, 0.1])

    def cp(t, row):
        return float(probas[t])

    def tof(start, t, row):
        return 1.0  # invariant to the window start: gating is the only difference

    entries = {}
    for threshold in (0.5, 0.95):
        cfg = PipelineConfig(cp_threshold=threshold, log_mode=True)
        trace, _ = run_pipeline(series, cp, tof, cfg)
        entries[threshold] = {p.entry_date for p in trace.positions}
    assert entries[0.95] <= entries[0.5]
    assert len(entries[0.95]) < len(entries[0.5])


def test_hold_until_changepoint_ignores_tof_flips():
    series, windows = _oracle_universe(seed=51)
    cp = oracle_cp_scorer(windows, series)
    flip_state = {"calls": 0}

    def flaky_tof(start, t, row):
        # says trend at first, then flips to flat forever within each window
        flip_state["calls"] += 1
        return 1.0 if t - start <= 8 else 0.0

    closing = PipelineConfig(log_mode=True, hold_until_changepoint=False)
    trace_close, stats_close = run_pipeline(series, cp, flaky_tof, closing)
    holding = PipelineConfig(log_mode=True, hold_until_changepoint=True)
    trace_hold, stats_hold = run_pipeline(series, cp, flaky_tof, holding)
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
    cfg = PipelineConfig(log_mode=True)
    _, stats = run_pipeline(
        series, oracle_cp_scorer(windows, series), oracle_tof_scorer(windows, series), cfg
    )
    windows_scaled = [
        ExpertWindow(
            stockname="ORC", expert="truth",
            start_date=w.start_date, end_date=w.end_date,
            tendency=w.tendency, direction=w.direction,
        )
        for w in windows
    ]
    _, stats_scaled = run_pipeline(
        scaled, oracle_cp_scorer(windows_scaled, scaled),
        oracle_tof_scorer(windows_scaled, scaled), cfg,
    )
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
    report = expert_baseline(series, [window])
    assert report.profit == pytest.approx(0.5, abs=1e-12)
    assert report.days_in == 250
    assert report.year_profit == pytest.approx(0.5, abs=1e-12)
    assert report.year_profit_avg == pytest.approx(0.5, abs=1e-12)


def test_expert_baseline_all_flat_is_zero():
    series = make_series(100 + np.arange(50.0))
    window = ExpertWindow(
        stockname=series.stockname, expert="E",
        start_date=series.dates[0], end_date=series.dates[-1],
        tendency=FLAT, direction=0,
    )
    report = expert_baseline(series, [window])
    assert report.profit == 0.0
    assert report.times_in == 0
    with pytest.raises(EmptyInputError):
        expert_baseline(series, [])


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
    rep_good = expert_baseline(series, good)
    rep_voted = expert_baseline(series, voted)
    assert rep_voted.year_profit_avg < rep_good.year_profit_avg


def test_trace_csv_round_trip_columns(tmp_path):
    series, windows = _oracle_universe(seed=41)
    trace, _ = run_pipeline(
        series, oracle_cp_scorer(windows, series), oracle_tof_scorer(windows, series)
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,cp_proba,cp_signal,window_id,tof_proba,tof_signal,direction,position_state"
    assert len(lines) == len(series) + 1
    states = {line.split(",")[-1] for line in lines[1:]}
    assert states <= {"flat", "enter", "in", "exit", "exit_enter"}


def test_clip_windows_to_span():
    series = make_series(100 + np.arange(30.0))
    w = ExpertWindow(
        stockname=series.stockname, expert="E",
        start_date=series.dates[5], end_date=series.dates[25],
        tendency=TREND, direction=1,
    )
    clipped = clip_windows_to_span([w], series, start_date=series.dates[10], end_date=series.dates[20])
    assert len(clipped) == 1
    assert clipped[0].start_date == series.dates[10]
    assert clipped[0].end_date == series.dates[20]
    trimmed = clip_windows_to_span([w], series, start_date=series.dates[20])
    assert trimmed[0].start_date == series.dates[20]  # straddling window trimmed inward
    assert trimmed[0].end_date == series.dates[25]
    gone = clip_windows_to_span(
        [ExpertWindow(series.stockname, "E", series.dates[0], series.dates[2], TREND, 1)],
        series, start_date=series.dates[5],
    )
    assert gone == []


def test_year_constant():
    assert BUSINESS_DAYS_PER_YEAR == 250
