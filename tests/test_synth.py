"""Market generator, expert simulation and their round-trip guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from trendlab.errors import ConfigError
from trendlab.features import tof_features
from trendlab.labels import count_contradictions, extract_windows, new_trigger
from trendlab.market_data import OHLCV_COLUMNS, TREND
from trendlab.synth import (
    ExpertProfile,
    RegimeSpec,
    SamplerConfig,
    business_dates,
    gen_expert_labels,
    gen_series,
    sample_regimes,
)


def test_gen_series_deterministic():
    cfg = SamplerConfig(n_days=300, trend_length=(40, 100), flat_length=(20, 60))
    a_series, a_windows = gen_series(cfg, seed=5)
    b_series, b_windows = gen_series(cfg, seed=5)
    assert a_series.dates == b_series.dates
    for c in OHLCV_COLUMNS:
        assert np.array_equal(a_series.column(c), b_series.column(c))
    assert a_windows == b_windows
    c_series, _ = gen_series(cfg, seed=6)
    assert not np.array_equal(a_series.closes, c_series.closes)


def test_gen_series_zero_noise_constant_close():
    series, _ = gen_series([RegimeSpec("flat", 30, 0.0, 0.0)], seed=0)
    assert np.allclose(series.closes, series.closes[0])
    up, _ = gen_series([RegimeSpec("up", 30, 0.01, 0.0)], seed=0)
    assert np.all(np.diff(np.log(up.closes)) > 0)


def test_gen_series_bars_satisfy_invariants():
    cfg = SamplerConfig(n_days=500)
    for seed in range(4):
        series, _ = gen_series(cfg, seed=seed)
        series.validate()
        assert len(series) == 500


def test_sampled_trend_lengths_within_bounds():
    cfg = SamplerConfig(n_days=4000)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        regimes = sample_regimes(cfg, rng)
        assert sum(r.length for r in regimes) == 4000
        for r in regimes:
            if r.kind != "flat":
                assert 40 <= r.length <= 600


def test_gen_series_validates_config():
    with pytest.raises(ConfigError):
        gen_series([], seed=0)
    with pytest.raises(ConfigError):
        gen_series([RegimeSpec("up", 10, -0.01, 0.01)], seed=0)
    with pytest.raises(ConfigError):
        gen_series([RegimeSpec("flat", 10, 0.01, 0.01)], seed=0)
    with pytest.raises(ConfigError):
        gen_series([RegimeSpec("sideways", 10, 0.0, 0.01)], seed=0)


def test_identity_profile_round_trips_exactly():
    cfg = SamplerConfig(n_days=600, trend_length=(40, 120), flat_length=(20, 60))
    series, truth = gen_series(cfg, seed=9)
    rows = gen_expert_labels(truth, ExpertProfile(), seed=1, series=series, name="D")
    recovered = extract_windows(rows, series)
    assert len(recovered) == len(truth)
    for got, want in zip(recovered, truth):
        assert got.start_date == want.start_date
        assert got.end_date == want.end_date
        assert got.tendency == want.tendency


def test_jittered_boundaries_stay_within_bound():
    cfg = SamplerConfig(n_days=900, trend_length=(40, 120), flat_length=(20, 60))
    series, truth = gen_series(cfg, seed=10)
    true_starts = {series.index_of(w.start_date) for w in truth}
    for seed in range(5):
        rows = gen_expert_labels(
            truth, ExpertProfile(jitter_days=3), seed=seed, series=series, name="D"
        )
        recovered = extract_windows(rows, series)
        assert len(recovered) == len(truth)
        for w in recovered:
            start = series.index_of(w.start_date)
            assert min(abs(start - s) for s in true_starts) <= 3


def test_two_disagreeing_experts_produce_contradictions():
    from trendlab.features import build_cp_dataset

    cfg = SamplerConfig(n_days=1500, trend_length=(40, 80), flat_length=(20, 40))
    series, truth = gen_series(cfg, seed=11)
    assert len(truth) >= 20
    hits = 0
    for seed in range(3):
        parts = []
        for j, name in enumerate(("D", "G")):
            rows = gen_expert_labels(
                truth,
                ExpertProfile(jitter_days=2, disagree_prob=0.2),
                seed=[seed, j],
                series=series,
                name=name,
            )
            windows = extract_windows(rows, series)
            parts.append(build_cp_dataset(series, new_trigger(windows), log_mode=True))
        X = np.vstack([p.X for p in parts])
        y = np.concatenate([p.y for p in parts])
        if count_contradictions(X, y).n_contradicting_rows > 0:
            hits += 1
    assert hits == 3


def test_clean_up_regime_slope_sign():
    # drift/volatility ratio of 4: the full-regime slope sign matches the
    # regime direction in virtually every draw
    failures = 0
    for seed in range(100):
        series, _ = gen_series([RegimeSpec("up", 60, 0.004, 0.001)], seed=seed)
        row = tof_features(series.closes, series.volumes, log_mode=True)
        if row.reg_close <= 0:
            failures += 1
    assert failures <= 2


def test_split_merge_changes_window_count():
    cfg = SamplerConfig(n_days=2000, trend_length=(40, 80), flat_length=(20, 40))
    series, truth = gen_series(cfg, seed=12)
    rows = gen_expert_labels(
        truth, ExpertProfile(split_merge_prob=0.5), seed=3, series=series, name="D"
    )
    recovered = extract_windows(rows, series)
    assert len(recovered) != len(truth)
    # the labeled span still covers the whole truth span contiguously
    assert recovered[0].start_date == truth[0].start_date
    assert recovered[-1].end_date == truth[-1].end_date
    for prev, cur in zip(recovered, recovered[1:]):
        assert series.index_of(cur.start_date) == series.index_of(prev.end_date) + 1


def test_business_dates_skip_weekends():
    from datetime import date as Date

    dates = business_dates(Date(2010, 1, 4), 10)
    assert len(dates) == 10
    assert all(d.weekday() < 5 for d in dates)
    assert dates[0] == Date(2010, 1, 4)
    assert dates[5] == Date(2010, 1, 11)  # the weekend is skipped


def test_expert_profile_validation():
    with pytest.raises(ConfigError):
        ExpertProfile(jitter_days=-1).validate()
    with pytest.raises(ConfigError):
        ExpertProfile(disagree_prob=1.5).validate()
