"""Market generator, expert simulation and their round-trip guarantees."""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass, replace
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import row_of
from reference_features import WindowSums, tof_features
from trendlab.errors import ConfigError, ParseError
from trendlab.labels import ExpertWindow, count_contradictions, extract_windows
from trendlab.market_data import FLAT, OHLCV_COLUMNS, TREND
from trendlab.synth import (
    ExpertProfile,
    RegimeSpec,
    SamplerConfig,
    business_dates,
    gen_expert_labels,
    gen_series,
    load_truth,
    sample_regimes,
    save_truth,
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
    true_starts = {row_of(series, w.start_date) for w in truth}
    for seed in range(5):
        rows = gen_expert_labels(
            truth, ExpertProfile(jitter_days=3), seed=seed, series=series, name="D"
        )
        recovered = extract_windows(rows, series)
        assert len(recovered) == len(truth)
        for w in recovered:
            start = row_of(series, w.start_date)
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
            parts.append(build_cp_dataset(series, windows, log_mode=True))
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
        window = WindowSums(np.log(series.closes), np.log(series.volumes))
        row = tof_features(window, len(series))
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
        assert row_of(series, cur.start_date) == row_of(series, prev.end_date) + 1


def test_business_dates_skip_weekends():
    from datetime import date as Date

    dates = business_dates(Date(2010, 1, 4), 10)
    assert len(dates) == 10
    assert all(d.weekday() < 5 for d in dates)
    assert dates[0] == Date(2010, 1, 4)
    assert dates[5] == Date(2010, 1, 11)  # the weekend is skipped


def test_expert_profile_validation():
    with pytest.raises(ConfigError):
        ExpertProfile(jitter_days=-1)
    with pytest.raises(ConfigError):
        ExpertProfile(disagree_prob=1.5)


@pytest.mark.parametrize(
    "valid, name, value",
    [
        (RegimeSpec("up", 10, 0.01, 0.01), "kind", "sideways"),
        (RegimeSpec("up", 10, 0.01, 0.01), "length", 0),
        (RegimeSpec("up", 10, 0.01, 0.01), "drift", -0.01),
        (RegimeSpec("up", 10, 0.01, 0.01), "volatility", -0.01),
        (RegimeSpec("up", 10, 0.01, 0.01), "volatility", math.nan),
        (RegimeSpec("up", 10, 0.01, 0.01), "drift", math.inf),
        (SamplerConfig(n_days=100), "n_days", 0),
        (SamplerConfig(n_days=100), "trend_length", (10, 20)),
        (SamplerConfig(n_days=100), "flat_length", (30, 20)),
        (SamplerConfig(n_days=100), "drift_range", (0.0, 0.01)),
        (SamplerConfig(n_days=100), "drift_range", (0.01, 0.001)),
        (SamplerConfig(n_days=100), "drift_range", (math.nan, 0.01)),
        (SamplerConfig(n_days=100), "volatility_range", (0.01, math.inf)),
        (SamplerConfig(n_days=100), "volatility_range", (-0.01, 0.01)),
        (SamplerConfig(n_days=100), "volatility_range", (0.02, 0.01)),
        (ExpertProfile(), "jitter_days", -1),
        (ExpertProfile(), "split_merge_prob", math.nan),
    ],
    ids=lambda v: type(v).__name__ if is_dataclass(v) else str(v),
)
def test_settings_check_themselves_when_built_or_replaced(valid, name, value):
    with pytest.raises(ConfigError):
        type(valid)(**{**vars(valid), name: value})
    with pytest.raises(ValueError):  # a ConfigError is a ValueError
        replace(valid, **{name: value})


_DATES = st.dates(Date(1990, 1, 1), Date(2040, 12, 31))


@st.composite
def _truth(draw) -> dict[str, list[ExpertWindow]]:
    """True windows of a few stocks, each with any dates, tendency and fitting direction."""
    truth = {}
    for stock in draw(st.lists(st.text(min_size=1, max_size=8), max_size=4, unique=True)):
        windows = []
        for _ in range(draw(st.integers(0, 5))):
            start, end = sorted([draw(_DATES), draw(_DATES)])
            direction = draw(st.sampled_from([1, -1, 0]))
            tendency = FLAT if direction == 0 else TREND
            windows.append(ExpertWindow(stock, "truth", start, end, tendency, direction))
        truth[stock] = windows
    return truth


@given(_truth(), st.integers(0, 2**32 - 1))
def test_truth_save_load_save_round_trip(tmp_path_factory, truth, seed):
    folder = tmp_path_factory.mktemp("truth")
    first, second = folder / "first.json", folder / "second.json"
    n_days = {stock: 7 * len(windows) for stock, windows in truth.items()}
    save_truth(truth, n_days, seed, first)
    loaded = load_truth(first)
    assert loaded == truth
    save_truth(loaded, n_days, seed, second)
    assert second.read_bytes() == first.read_bytes()
    assert json.loads(first.read_text())["seed"] == seed


def test_save_truth_writes_the_generator_windows(tmp_path):
    cfg = SamplerConfig(n_days=300, trend_length=(40, 100), flat_length=(20, 60))
    series, windows = gen_series(cfg, seed=5, stockname="SYN00")
    save_truth({"SYN00": windows}, {"SYN00": len(series)}, 5, tmp_path / "truth.json")
    assert load_truth(tmp_path / "truth.json") == {"SYN00": windows}
    entry = json.loads((tmp_path / "truth.json").read_text())["stocks"]["SYN00"]
    assert entry["n_days"] == len(series) == 300
    assert entry["windows"][0] == {
        "start": windows[0].start_date.isoformat(),
        "end": windows[0].end_date.isoformat(),
        "tendency": windows[0].tendency,
        "direction": windows[0].direction,
    }


WINDOW = {"start": "2012-01-02", "end": "2012-03-01", "tendency": "Trend", "direction": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"seed": 1}, "has no 'stocks'"),
        ({"stocks": {"S": {"n_days": 3}}}, "has no 'windows'"),
        ({"stocks": {"S": {"windows": [{**WINDOW, "tendency": None}]}}}, "tendency None"),
        ({"stocks": {"S": {"windows": [{k: v for k, v in WINDOW.items() if k != "end"}]}}},
         "has no 'end'"),
        ({"stocks": {"S": {"windows": [{**WINDOW, "start": "2012-13-01"}]}}}, "not a truth document"),
        ({"stocks": {"S": {"windows": [{**WINDOW, "start": 20120102}]}}}, "not a truth document"),
        ({"stocks": {"S": {"windows": [{**WINDOW, "tendency": "Bogus"}]}}},
         "tendency 'Bogus' is neither Trend nor Flat"),
        ({"stocks": {"S": {"windows": [{**WINDOW, "direction": 0}]}}},
         "direction 0 inconsistent with tendency Trend"),
        ({"stocks": {"S": {"windows": [{**WINDOW, "tendency": "Flat"}]}}},
         "direction 1 inconsistent with tendency Flat"),
        ({"stocks": {"S": {"windows": [{**WINDOW, "direction": 2}]}}},
         "direction 2 inconsistent with tendency Trend"),
        ({"stocks": ["S"]}, "not a truth document"),
    ],
    ids=["no-stocks", "no-windows", "null-tendency", "no-end", "bad-date", "date-not-text",
         "bogus-tendency", "trend-without-direction", "flat-with-direction", "direction-two",
         "stocks-not-an-object"],
)
def test_load_truth_rejects_a_bad_document_naming_the_file(tmp_path, doc, message):
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as caught:
        load_truth(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert message in str(caught.value)
