"""Ratio features, regression features and fraction augmentation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_series, segment_labels
from trendlab.errors import TooShortError, ZeroVolumeError
from trendlab.features import (
    CP_FEATURE_NAMES,
    FRACTIONS,
    TOF_FEATURE_NAMES,
    augment_fractions,
    build_tof_dataset,
    cp_feature_matrix,
    read_feature_csv,
    tof_features,
    write_feature_csv,
)
from trendlab.labels import extract_windows
from trendlab.market_data import TREND


def _cp_row(series, t, log_mode):
    """Per-row reference for one row of ``cp_feature_matrix``, written out longhand."""
    closes, volumes = series.closes, series.volumes
    ks = range(1, 6)
    raw = (
        [closes[t - k] / closes[t] for k in ks]
        + [closes[t + k] / closes[t] for k in ks]
        + [volumes[t - k] / volumes[t] for k in ks]
        + [volumes[t + k] / volumes[t] for k in ks]
        + [series.column("high")[t] / closes[t], series.column("low")[t] / closes[t]]
    )
    return np.log(raw) if log_mode else np.array(raw)


def _cp_rows(series, log_mode):
    """Feature rows of ``cp_feature_matrix`` keyed by series row."""
    ts, X = cp_feature_matrix(series, log_mode=log_mode)
    return dict(zip(ts.tolist(), X))


def test_cp_features_constant_series():
    series = make_series([100.0] * 11, volumes=[500.0] * 11)
    log_row = _cp_rows(series, log_mode=True)[5]
    assert np.allclose(log_row[:20], 0.0)
    assert log_row[CP_FEATURE_NAMES.index("high")] == pytest.approx(math.log(1.01))
    raw_row = _cp_rows(series, log_mode=False)[5]
    assert np.allclose(raw_row[:20], 1.0)


def test_cp_features_arithmetic():
    closes = [95.0, 96, 97, 98, 95, 100, 101, 102, 103, 104, 105]
    series = make_series(closes, volumes=[1000.0] * 11)
    back_1 = CP_FEATURE_NAMES.index("close_back_1")
    raw = _cp_rows(series, log_mode=False)[5]
    assert raw[back_1] == pytest.approx(95.0 / 100.0)
    log = _cp_rows(series, log_mode=True)[5]
    assert log[back_1] == pytest.approx(math.log(0.95), abs=1e-12)
    assert log[back_1] == pytest.approx(-0.0513, abs=1e-4)


def test_cp_features_skips_rows_without_context():
    ts, X = cp_feature_matrix(make_series([100.0] * 12))
    assert ts.tolist() == [5, 6]
    assert X.shape == (2, len(CP_FEATURE_NAMES))
    ts, X = cp_feature_matrix(make_series([100.0] * 10))
    assert ts.size == 0
    assert X.shape == (0, len(CP_FEATURE_NAMES))


def test_cp_features_zero_volume_errors():
    volumes = [100.0] * 11
    volumes[3] = 0.0
    series = make_series([100.0] * 11, volumes=volumes)
    with pytest.raises(ZeroVolumeError):
        cp_feature_matrix(series, log_mode=True)
    # raw mode only needs the centre volume to be positive
    assert 5 in _cp_rows(series, log_mode=False)
    centre_zero = make_series([100.0] * 11, volumes=[100.0] * 5 + [0.0] + [100.0] * 5)
    with pytest.raises(ZeroVolumeError):
        cp_feature_matrix(centre_zero, log_mode=False)


def test_cp_log_equals_log_of_raw():
    rng = np.random.default_rng(8)
    closes = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, 40)))
    volumes = np.exp(rng.normal(8, 0.5, 40))
    series = make_series(closes, volumes=volumes)
    raw_rows = _cp_rows(series, log_mode=False)
    log_rows = _cp_rows(series, log_mode=True)
    for t in (5, 17, 34):
        assert np.allclose(log_rows[t], np.log(raw_rows[t]), rtol=0, atol=1e-14)


def test_cp_features_scale_invariance():
    rng = np.random.default_rng(9)
    closes = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, 30)))
    volumes = np.exp(rng.normal(8, 0.5, 30))
    base = _cp_rows(make_series(closes, volumes=volumes), log_mode=False)
    scaled = _cp_rows(make_series(closes * 7.5, volumes=volumes * 3.0), log_mode=False)
    for t in (5, 12, 24):
        assert np.allclose(base[t], scaled[t], rtol=1e-12)


def test_cp_feature_matrix_matches_per_row():
    rng = np.random.default_rng(10)
    closes = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, 25)))
    volumes = np.exp(rng.normal(8, 0.5, 25))
    series = make_series(closes, volumes=volumes)
    for log_mode in (False, True):
        ts, X = cp_feature_matrix(series, log_mode=log_mode)
        assert list(ts) == list(range(5, 20))
        for i, t in enumerate(ts):
            assert np.array_equal(X[i], _cp_row(series, int(t), log_mode))


def test_tof_features_exact_line():
    closes = np.exp(0.01 * np.arange(30))
    row = tof_features(closes, np.full(30, 1000.0), log_mode=True)
    assert row.reg_close == pytest.approx(0.01, abs=1e-12)
    assert row.close_r2 == pytest.approx(1.0, abs=1e-9)
    assert row.len_trend == 30
    assert row.direction_hint == 1


def test_tof_features_constant_series():
    row = tof_features([100.0] * 10, [5.0] * 10, log_mode=False)
    assert row.reg_close == 0.0
    assert row.close_r2 == 0.0
    assert row.reg_vol == 0.0
    assert row.vol_r2 == 0.0


def test_tof_features_matches_normal_equations():
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = rng.normal(100, 5, size=10)
        v = rng.uniform(100, 1000, size=10)
        row = tof_features(y, v, log_mode=False)
        # independent oracle: least squares via the design-matrix solve
        A = np.column_stack([np.arange(10.0), np.ones(10)])
        coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
        assert row.reg_close == pytest.approx(coef[0], abs=1e-12)
        fitted = A @ coef
        r2 = 1 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        assert row.close_r2 == pytest.approx(r2, abs=1e-12)


def test_tof_features_shift_invariant_under_scaling():
    rng = np.random.default_rng(13)
    closes = 50 * np.exp(np.cumsum(rng.normal(0.001, 0.02, 40)))
    volumes = np.exp(rng.normal(8, 0.3, 40))
    a = tof_features(closes, volumes, log_mode=True)
    b = tof_features(closes * 3.7, volumes, log_mode=True)
    assert a.reg_close == pytest.approx(b.reg_close, abs=1e-12)
    assert a.close_r2 == pytest.approx(b.close_r2, abs=1e-12)


def test_tof_reg_close_sign_matches_covariance():
    rng = np.random.default_rng(14)
    for _ in range(30):
        y = rng.normal(0, 1, size=12)
        row = tof_features(100 + y, np.full(12, 10.0), log_mode=False)
        cov = float(np.cov(np.arange(12.0), 100 + y)[0, 1])
        assert np.sign(row.reg_close) == np.sign(cov) or cov == 0


def test_tof_features_too_short():
    with pytest.raises(TooShortError):
        tof_features([100.0], [10.0])


def _window_over(series):
    rows = segment_labels(series, [(len(series), TREND)])
    return extract_windows(rows, series)[0]


def test_augment_fractions_drops_short_prefixes():
    series = make_series(100 + np.arange(100.0))
    rows = augment_fractions(_window_over(series), series)
    # 5% of 100 = 5 days < 6: dropped; the ten other fractions survive
    assert len(rows) == 10
    assert [r.fraction for r in rows] == list(FRACTIONS[1:])
    assert rows[0].len_trend == 10
    assert rows[-1].len_trend == 100


def test_augment_fractions_tiny_window_yields_nothing():
    series = make_series([100, 101, 102, 103.0])
    assert augment_fractions(_window_over(series), series) == []


def test_augment_fractions_long_window_keeps_all_eleven():
    series = make_series(100 + np.arange(600.0))
    rows = augment_fractions(_window_over(series), series)
    assert len(rows) == len(FRACTIONS) == 11
    assert rows[0].len_trend == 30


def test_augment_fractions_lengths_nondecreasing_and_min_six():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 300))
        series = make_series(100 * np.exp(np.cumsum(rng.normal(0, 0.01, n))))
        rows = augment_fractions(_window_over(series), series)
        lens = [r.len_trend for r in rows]
        assert all(a <= b for a, b in zip(lens, lens[1:]))
        assert all(length >= 6 for length in lens)


def test_build_tof_dataset_tags_rows():
    series = make_series(100 + np.arange(40.0))
    window = _window_over(series)
    ds = build_tof_dataset([window], series, log_mode=True)
    assert len(ds) == len(augment_fractions(window, series, log_mode=True))
    assert set(ds.stocknames) == {series.stockname}
    assert all(d == window.start_date for d in ds.dates)
    assert set(ds.y) == {1}


def test_feature_csv_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    X = rng.normal(0, 1, size=(20, len(TOF_FEATURE_NAMES)))
    y = rng.integers(0, 2, size=20)
    path = tmp_path / "tof.csv"
    write_feature_csv(X, y, TOF_FEATURE_NAMES, path)
    X2, y2 = read_feature_csv(path, TOF_FEATURE_NAMES)
    assert np.array_equal(X, X2)
    assert np.array_equal(y, y2)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TOF_FEATURE_NAMES) + ",target"


def test_cp_feature_names_are_22():
    assert len(CP_FEATURE_NAMES) == 22
    assert len(TOF_FEATURE_NAMES) == 5
