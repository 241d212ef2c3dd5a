"""Ratio features, regression features and fraction augmentation."""

from __future__ import annotations

import math
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_series, segment_labels
from reference_features import WindowSums, augment_fractions, reference_tof_dataset
from reference_features import tof_features as reference_tof_features
from reference_labels import reference_ols
from trendlab.errors import (
    EmptyInputError,
    InvariantError,
    ParseError,
    TooShortError,
    ZeroVolumeError,
)
from trendlab.features import (
    CP_FEATURE_NAMES,
    FRACTIONS,
    MIN_LEN_TREND,
    TOF_FEATURE_NAMES,
    FeatureDataset,
    build_cp_dataset,
    build_tof_dataset,
    cp_feature_matrix,
    prefix_features,
    read_feature_csv,
    read_tof_meta,
    tof_features,
    write_feature_csv,
    write_fraction_accuracy,
    write_tof_meta,
)
from trendlab.labels import (
    _prefix_fits,
    extract_windows,
    log_close_slope,
    trigger_correction,
    voted_windows,
)
from trendlab.market_data import FLAT, TREND
from trendlab.synth import ExpertProfile, SamplerConfig, gen_expert_labels, gen_series


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
    ts, X = cp_feature_matrix(make_series([100.0] * 12), log_mode=False)
    assert ts.tolist() == [5, 6]
    assert X.shape == (2, len(CP_FEATURE_NAMES))
    ts, X = cp_feature_matrix(make_series([100.0] * 10), log_mode=False)
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


def test_a_zero_volume_error_names_the_stock_and_the_first_bad_date():
    volumes = np.full(16, 100.0)
    volumes[[2, 7, 9]] = 0.0
    series = make_series(100.0 + np.arange(16.0), volumes=volumes, stockname="ZERO")
    days = series.dates
    # log mode takes the log of every volume, raw mode divides by those of rows 5..10
    for log_mode, row in ((True, 2), (False, 7)):
        with pytest.raises(ZeroVolumeError, match=f"^ZERO: zero volume on {days[row]}$") as err:
            cp_feature_matrix(series, log_mode=log_mode)
        assert err.value.stockname == "ZERO"
    with pytest.raises(ZeroVolumeError, match=f"^ZERO: zero volume on {days[2]}$"):
        prefix_features(series, np.array([10]), np.array([4]), log_mode=True)
    windows = extract_windows(segment_labels(series, [(16, FLAT)]), series)
    with pytest.raises(ZeroVolumeError, match=f"^ZERO: zero volume on {days[2]}$"):
        build_tof_dataset(windows, series, log_mode=True)


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


def _tof(closes, volumes, log_mode, length=None, window=False):
    """The row ``prefix_features`` builds of the first ``length`` bars (default all), by name.

    With ``window`` the whole series is asked for beside the prefix, so the
    fit spans every bar and the prefix's row is read from it.
    """
    series = make_series(closes, volumes=np.asarray(volumes, dtype=np.float64))
    lengths = [len(series) if length is None else length] + [len(series)] * window
    X = prefix_features(series, np.zeros(len(lengths), dtype=np.int64), np.array(lengths), log_mode)
    return tof_features(X[0])


def test_tof_features_exact_line():
    closes = np.exp(0.01 * np.arange(30))
    row = _tof(closes, np.full(30, 1000.0), log_mode=True)
    assert row.reg_close == pytest.approx(0.01, abs=1e-12)
    assert row.close_r2 == pytest.approx(1.0, abs=1e-9)
    assert row.len_trend == 30


def test_tof_features_constant_series():
    row = _tof([100.0] * 10, [5.0] * 10, log_mode=False)
    assert row.reg_close == 0.0
    assert row.close_r2 == 0.0
    assert row.reg_vol == 0.0
    assert row.vol_r2 == 0.0


def test_tof_features_matches_normal_equations():
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = rng.normal(100, 5, size=10)
        v = rng.uniform(100, 1000, size=10)
        row = _tof(y, v, log_mode=False)
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
    a = _tof(closes, volumes, log_mode=True)
    b = _tof(closes * 3.7, volumes, log_mode=True)
    assert a.reg_close == pytest.approx(b.reg_close, abs=1e-12)
    assert a.close_r2 == pytest.approx(b.close_r2, abs=1e-12)


def test_tof_reg_close_sign_matches_covariance():
    rng = np.random.default_rng(14)
    for _ in range(30):
        y = rng.normal(0, 1, size=12)
        row = _tof(100 + y, np.full(12, 10.0), log_mode=False)
        cov = float(np.cov(np.arange(12.0), 100 + y)[0, 1])
        assert np.sign(row.reg_close) == np.sign(cov) or cov == 0


def test_tof_features_too_short():
    with pytest.raises(TooShortError):
        _tof([100.0], [10.0], log_mode=False)
    for length in (0, 1, 4):
        with pytest.raises(TooShortError):
            _tof([100.0, 101.0, 99.0], [10.0, 11.0, 12.0], log_mode=False, length=length)


@pytest.mark.parametrize("bad", [0.0, -3.0, np.nan, np.inf])
def test_tof_features_log_mode_rejects_a_bad_close(bad):
    # the logs, and their checks, are taken where the window rows are built
    closes = [100.0, bad, 3.0, 4.0, 5.0, 4.0, 3.0, 2.0]
    series = make_series(closes, volumes=np.arange(1.0, 9.0))
    windows = extract_windows(segment_labels(series, [(8, FLAT)]), series)
    with pytest.raises(InvariantError, match="positive, finite closes"):
        build_tof_dataset(windows, series, log_mode=True)
    if np.isfinite(bad):  # raw mode regresses the closes as they are
        build_tof_dataset(windows, series, log_mode=False)


def test_build_tof_dataset_log_mode_rejects_a_zero_volume():
    series = make_series(100.0 + np.arange(8.0), volumes=[5.0, 4.0, 0.0, 3.0, 2.0, 1.0, 2.0, 3.0])
    windows = extract_windows(segment_labels(series, [(8, FLAT)]), series)
    with pytest.raises(ZeroVolumeError):
        build_tof_dataset(windows, series, log_mode=True)
    build_tof_dataset(windows, series, log_mode=False)
    # the logs are taken over the whole series, so a bar outside every window counts too
    head = extract_windows(segment_labels(series, [(2, FLAT), (6, TREND)]), series)[:1]
    with pytest.raises(ZeroVolumeError):
        build_tof_dataset(head, series, log_mode=True)


# --- the running sums against a two-pass regression of each prefix ----------
#
# ``prefix_features`` reads every prefix of a start from running sums taken
# once, where ``reference_ols`` regresses each prefix on its own. The two round
# differently, so the features are held to stated absolute bounds: 1e-12 on
# R2, and on a slope 1e-12 of the prefix's value range over its length (the
# slope's own scale). Properties of the sums themselves hold bit for bit.

R2_BOUND = 1e-12
SLOPE_BOUND = 1e-12


@st.composite
def _columns(draw, min_size=2, max_size=5000):
    """A positive column: a random walk, noise, a line or a constant, at any scale."""
    n = draw(st.integers(min_size, max_size))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "noise", "line", "constant"]))
    if kind == "walk":
        y = np.exp(np.cumsum(rng.normal(0.0, 0.03, n)))
    elif kind == "noise":
        y = rng.uniform(0.5, 1.5, n)
    elif kind == "line":
        y = 1.0 + 0.01 * np.arange(n)
    else:
        y = np.ones(n)
    return scale * y


def _assert_near_reference(slope, r2, y):
    """``(slope, r2)`` of the whole of ``y`` within the bounds of ``reference_ols``."""
    want_slope, want_r2 = reference_ols(y)
    assert abs(r2 - want_r2) <= R2_BOUND
    assert abs(slope - want_slope) <= SLOPE_BOUND * np.ptp(y) / len(y)


@given(_columns(), st.data())
@example(np.array([1.0, 2.0]), None)
@example(np.array([7.0, 7.0]), None)
@example(np.full(5000, 0.1), None)
@example(np.array([1e-8, 1e8, 1e-8]), None)
def test_prefix_fits_are_within_bounds_of_the_reference(y, data):
    lengths = [2, len(y)]
    if data is not None:
        lengths += data.draw(st.lists(st.integers(2, len(y)), max_size=5))
    for column in (y, np.log(y), -y):
        slopes, r2s = _prefix_fits(column)
        for k in lengths:
            _assert_near_reference(slopes[k - 1], r2s[k - 1], column[:k])


@given(_columns(max_size=600), st.data(), st.booleans())
def test_tof_features_are_within_bounds_of_the_reference(closes, data, log_mode):
    volumes = data.draw(_columns(min_size=len(closes), max_size=len(closes)))
    k = data.draw(st.integers(2, len(closes)))
    row = _tof(closes, volumes, log_mode, k)
    if log_mode:
        closes, volumes = np.log(closes), np.log(volumes)
    assert row.len_trend == k
    _assert_near_reference(row.reg_close, row.close_r2, closes[:k])
    _assert_near_reference(row.reg_vol, row.vol_r2, volumes[:k])


@given(_columns(max_size=600), st.data())
def test_log_close_slope_is_within_bounds_of_the_reference(closes, data):
    series = make_series(closes)
    i0 = data.draw(st.integers(0, len(closes) - 1))
    i1 = data.draw(st.integers(i0, len(closes) - 1))
    logs = np.log(closes[i0 : i1 + 1])
    error = abs(log_close_slope(series, i0, i1) - reference_ols(logs)[0])
    assert error <= SLOPE_BOUND * np.ptp(logs) / len(logs)


@given(_columns(min_size=3), st.data())
def test_log_slices_give_the_bits_of_per_slice_logs(closes, data):
    volumes = data.draw(_columns(min_size=len(closes), max_size=len(closes)))
    log_closes, log_volumes = np.log(closes), np.log(volumes)
    for _ in range(5):
        s = data.draw(st.integers(0, len(closes) - 2))
        d = data.draw(st.integers(s + 1, len(closes) - 1))
        assert np.array_equal(log_closes[s : d + 1], np.log(closes[s : d + 1]))
        window = WindowSums(log_closes[s : d + 1], log_volumes[s : d + 1])
        got = reference_tof_features(window, d - s + 1)
        assert got == _tof(closes[s : d + 1], volumes[s : d + 1], log_mode=True)


@st.composite
def _window_and_prefix(draw):
    """Log closes and volumes of a window, and the length of one of its prefixes."""
    closes = draw(_columns(max_size=400))
    volumes = draw(_columns(min_size=len(closes), max_size=len(closes)))
    return np.log(closes), np.log(volumes), draw(st.integers(2, len(closes)))


def _bits(row):
    return np.array(row, dtype=np.float64).tobytes()


@given(_window_and_prefix(), st.data())
def test_a_prefix_reads_no_bar_after_its_last_day(window, data):
    closes, volumes, k = window
    want = _tof(closes, volumes, False, k, window=True)
    later = data.draw(st.integers(k, len(closes)))  # change every bar from here on
    if later < len(closes):
        factor = data.draw(st.floats(-1e6, 1e6, allow_nan=False))
        closes, volumes = closes.copy(), volumes.copy()
        closes[later:] = closes[later:] * factor + 1.0
        volumes[later:] = volumes[later:] - factor
    got = _tof(closes, volumes, False, k, window=True)
    assert _bits(got) == _bits(want)


@given(_window_and_prefix())
def test_a_longer_window_gives_a_prefix_the_bits_of_its_own(window):
    closes, volumes, k = window
    whole = _tof(closes, volumes, False, k, window=True)
    assert _bits(whole) == _bits(_tof(closes[:k], volumes[:k], False))


@st.composite
def _prefixes(draw):
    """A series, and (start, length) pairs of prefixes in it, in any order and with repeats."""
    closes = draw(_columns(max_size=300))
    volumes = draw(_columns(min_size=len(closes), max_size=len(closes)))
    n = len(closes)
    pair = st.integers(0, n - 2).flatmap(lambda s: st.tuples(st.just(s), st.integers(2, n - s)))
    pairs = draw(st.lists(pair, max_size=30))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    return make_series(closes, volumes=volumes), draw(st.permutations(pairs))


@given(_prefixes(), st.booleans())
def test_prefix_features_are_the_bits_of_each_prefix_alone(prefixes, log_mode):
    series, pairs = prefixes
    starts = np.array([s for s, _ in pairs], dtype=np.int64)
    lengths = np.array([k for _, k in pairs], dtype=np.int64)
    X = prefix_features(series, starts, lengths, log_mode=log_mode)
    assert X.shape == (len(pairs), len(TOF_FEATURE_NAMES))
    closes, volumes = series.closes, series.volumes
    if log_mode:
        closes, volumes = np.log(closes), np.log(volumes)
    for row, (s, k) in zip(X, pairs):
        want = reference_tof_features(WindowSums(closes[s : s + k], volumes[s : s + k]), k)
        assert row.tobytes() == _bits(want)
        assert tof_features(row) == want  # the names a walk reads the row by
        # the same bits from the window that runs on to the series end
        rest = WindowSums(closes[s:], volumes[s:])
        assert row.tobytes() == _bits(reference_tof_features(rest, k))


def test_prefix_features_reject_a_prefix_past_the_series_end():
    series = make_series(100.0 + np.arange(10.0))
    with pytest.raises(TooShortError):
        prefix_features(series, np.array([4]), np.array([7]), log_mode=False)
    # a prefix under 2 bars, or past the end, raises whatever else is asked beside it
    cases = [(0, [1]), (7, [4]), (7, [2, 4]), (7, [3, 1, 2]), (0, [0]), (10, [2]), (-1, [2])]
    for start, lengths in cases:
        with pytest.raises(TooShortError):
            prefix_features(series, np.full(len(lengths), start), np.array(lengths), log_mode=False)


@given(_window_and_prefix(), st.floats(-1e8, 1e8, allow_nan=False))
def test_a_constant_prefix_has_no_slope_and_no_fit(window, value):
    closes, volumes, k = window
    closes, volumes = closes.copy(), volumes.copy()
    closes[:k] = value
    volumes[:k] = -value
    row = _tof(closes, volumes, False, k, window=True)
    assert row == (0.0, 0.0, 0.0, 0.0, k)


def _window_over(series):
    rows = segment_labels(series, [(len(series), TREND)])
    return extract_windows(rows, series)[0]


def _fraction_rows(series, log_mode=False):
    """The kept fractions and rows of one window over the whole series."""
    ds = build_tof_dataset([_window_over(series)], series, log_mode=log_mode)
    return ds.fractions, ds.X


def test_augment_fractions_drops_short_prefixes():
    series = make_series(100 + np.arange(100.0))
    fractions, X = _fraction_rows(series)
    # 5% of 100 = 5 days < 6: dropped; the ten other fractions survive
    assert X.shape == (10, len(TOF_FEATURE_NAMES))
    assert fractions.tolist() == list(FRACTIONS[1:])
    assert X[0, 4] == 10
    assert X[-1, 4] == 100


def test_augment_fractions_tiny_window_yields_nothing():
    series = make_series([100, 101, 102, 103.0])
    fractions, X = _fraction_rows(series)
    assert fractions.shape == (0,)
    assert X.shape == (0, len(TOF_FEATURE_NAMES))


def test_augment_fractions_long_window_keeps_all_eleven():
    series = make_series(100 + np.arange(600.0))
    fractions, X = _fraction_rows(series)
    assert len(fractions) == len(X) == len(FRACTIONS) == 11
    assert X[0, 4] == 30


def test_augment_fractions_lengths_nondecreasing_and_min_six():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 300))
        series = make_series(100 * np.exp(np.cumsum(rng.normal(0, 0.01, n))))
        _, X = _fraction_rows(series)
        lens = X[:, 4].tolist()
        assert all(a <= b for a, b in zip(lens, lens[1:]))
        assert all(length >= 6 for length in lens)


def test_build_tof_dataset_tags_rows():
    series = make_series(100 + np.arange(40.0))
    window = _window_over(series)
    ds = build_tof_dataset([window], series, log_mode=True)
    fractions, X = augment_fractions(window, series, log_mode=True)
    assert np.array_equal(ds.X, X)
    assert np.array_equal(ds.fractions, fractions)
    assert set(ds.stocknames) == {series.stockname}
    assert (ds.days == window.start_date.toordinal()).all()
    assert set(ds.y) == {1}


# --- the one window-row path against windows cut one at a time --------------


def _assert_same_dataset(got, want):
    for column in ("X", "fractions", "days", "stocknames", "y"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column


def _synth_streams(seed):
    """A synth stock and its window streams: truth, each expert, voted, voted and corrected."""
    cfg = SamplerConfig(n_days=900, trend_length=(40, 120), flat_length=(20, 60))
    series, truth = gen_series(cfg, seed=seed, stockname="SYN")
    profile = ExpertProfile(jitter_days=3, disagree_prob=0.1, split_merge_prob=0.2)
    experts = [
        extract_windows(gen_expert_labels(truth, profile, [seed, j], series, name), series)
        for j, name in enumerate("DGK")
    ]
    voted = voted_windows(experts, series)
    streams = {"truth": truth, "voted": voted, "corrected": trigger_correction(voted, series)}
    streams.update({f"expert{j}": windows for j, windows in enumerate(experts)})
    streams["expert0-corrected"] = trigger_correction(experts[0], series)
    return series, streams


@pytest.mark.parametrize("log_mode", [True, False], ids=["log", "raw"])
@pytest.mark.parametrize("seed", [3, 11])
def test_build_tof_dataset_matches_the_per_window_reference(seed, log_mode):
    series, streams = _synth_streams(seed)
    for windows in streams.values():
        _assert_same_dataset(
            build_tof_dataset(windows, series, log_mode=log_mode),
            reference_tof_dataset(windows, series, log_mode=log_mode),
        )


@pytest.mark.parametrize("log_mode", [True, False], ids=["log", "raw"])
def test_build_tof_dataset_matches_the_reference_on_short_windows(log_mode):
    rng = np.random.default_rng(21)
    lengths = [1, 2, 5, MIN_LEN_TREND, 7, 11, 12, 13, 30, 59, 60, 61, 119, 120, 121, 3]
    series = make_series(
        100 * np.exp(np.cumsum(rng.normal(0, 0.02, sum(lengths)))),
        volumes=rng.uniform(500.0, 1500.0, sum(lengths)),
    )
    segments = [(n, TREND if i % 2 else FLAT) for i, n in enumerate(lengths)]
    windows = extract_windows(segment_labels(series, segments), series)
    assert [w.end_date for w in windows][-1] == series.dates[-1]
    got = build_tof_dataset(windows, series, log_mode=log_mode)
    _assert_same_dataset(got, reference_tof_dataset(windows, series, log_mode=log_mode))
    # each window's first kept row is its shortest prefix of MIN_LEN_TREND days or more
    assert got.X[:, 4].min() == MIN_LEN_TREND


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


def test_feature_csv_header_only_reads_empty(tmp_path):
    path = tmp_path / "tof.csv"
    write_feature_csv(np.empty((0, 5)), np.empty(0), TOF_FEATURE_NAMES, path)
    X, y = read_feature_csv(path, TOF_FEATURE_NAMES)
    assert X.shape == (0, 5) and X.dtype == np.float64
    assert y.shape == (0,) and y.dtype == np.int64


@pytest.mark.parametrize(
    "line, message",
    [
        ("0.1,0.2,abc,0.4,0.5,1", "could not convert string 'abc'"),
        ("0.1,0.2,0.3,0.4,1", "columns"),
        ("0.1,0.2,0.3,0.4,0.5,1.5", "could not convert string '1.5' to int64"),
        ("0.1,0.2,0.3,0.4,0.5,", "could not convert string ''"),
        ("0.1,0.2,0.3,0.4,0.5,2", "a target is neither 0 nor 1"),
        ("0.1,0.2,0.3,0.4,0.5,-1", "a target is neither 0 nor 1"),
        ("0.1,nan,0.3,0.4,0.5,1", ":4: close_r2 is nan, not a finite number"),
        ("0.1,0.2,0.3,0.4,-inf,0", ":4: len_trend is -inf, not a finite number"),
        ("", ":4: a blank line, not a row"),
        (" \t", ":4: a blank line, not a row"),
        ("#0.1,0.2,0.3,0.4,0.5,1", ":4: a commented-out row, not a row"),
        ("0.1,0.2,0.3,0.4,0.5,1 # note", "could not convert string '1 # note'"),
    ],
    ids=["bad-cell", "short-row", "non-integer-target", "missing-target", "target-two",
         "target-negative", "nan-feature", "inf-feature", "blank-line", "whitespace-line",
         "comment-line", "trailing-comment"],
)
def test_feature_csv_bad_rows_raise_parse_error_naming_the_file(tmp_path, line, message):
    path = tmp_path / "tof.csv"
    write_feature_csv(np.zeros((2, 5)), np.zeros(2), TOF_FEATURE_NAMES, path)
    with path.open("a", newline="") as handle:
        handle.write(line + "\r\n")
    with pytest.raises(ParseError) as caught:
        read_feature_csv(path, TOF_FEATURE_NAMES)
    assert str(path) in str(caught.value)
    assert message in str(caught.value)


def test_cp_feature_names_are_22():
    assert len(CP_FEATURE_NAMES) == 22
    assert len(TOF_FEATURE_NAMES) == 5


def _tof_rows(days, stocknames, fractions) -> FeatureDataset:
    n = len(days)
    return FeatureDataset(
        kind="tof",
        feature_names=TOF_FEATURE_NAMES,
        days=np.array(days, dtype=np.int64),
        stocknames=np.array(stocknames, dtype=str),
        X=np.zeros((n, len(TOF_FEATURE_NAMES))),
        y=np.zeros(n, dtype=np.int64),
        fractions=np.array(fractions, dtype=np.int64),
    )


# stock names with CSV's special characters, but no carriage return (see below) or NUL
_STOCK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"))


@given(
    st.lists(
        st.tuples(st.dates().map(Date.toordinal), _STOCK, st.integers(-(2**63), 2**63 - 1)),
        max_size=6,
    )
)
def test_tof_meta_write_read_write_round_trip(tmp_path_factory, rows):
    folder = tmp_path_factory.mktemp("meta")
    first, second = folder / "first.csv", folder / "second.csv"
    ds = _tof_rows(*zip(*rows)) if rows else _tof_rows([], [], [])
    write_tof_meta(ds, first)
    days, stocknames, fractions = read_tof_meta(first, len(rows))
    assert np.array_equal(days, ds.days)
    assert stocknames.tolist() == ds.stocknames.tolist()
    assert np.array_equal(fractions, ds.fractions)
    write_tof_meta(_tof_rows(days, stocknames, fractions), second)
    assert second.read_bytes() == first.read_bytes()


def test_tof_meta_bytes_and_carriage_return(tmp_path):
    path = tmp_path / "meta.csv"
    write_tof_meta(_tof_rows([Date(2012, 1, 2).toordinal()] * 2, ["ACME", "A,B"], [5, 100]), path)
    assert path.read_bytes() == b'date,stockname,fraction\n2012-01-02,ACME,5\n2012-01-02,"A,B",100\n'
    # csv quotes a field holding the "\n" line end, but not a bare "\r"
    with pytest.raises(InvariantError, match="carriage return"):
        write_tof_meta(_tof_rows([1], ["A\rB"], [5]), path)


@pytest.mark.parametrize(
    "text, n_rows, message",
    [
        ("", 0, "expected header date,stockname,fraction"),
        ("day,stockname,fraction\n", 0, "expected header date,stockname,fraction"),
        ("date,stockname,fraction\n2012-01-02,ACME,5\n", 2, "1 rows for the 2 rows"),
        ("date,stockname,fraction\n2012-01-02,ACME\n", 1, "a row is not a date"),
        ("date,stockname,fraction\n2012-01-32,ACME,5\n", 1, "a row is not a date"),
        ("date,stockname,fraction\n2012-01-02,ACME,5.5\n", 1, "a row is not a date"),
    ],
    ids=["empty", "header", "row-count", "short-row", "bad-date", "bad-fraction"],
)
def test_read_tof_meta_names_the_file(tmp_path, text, n_rows, message):
    path = tmp_path / "tof_test_meta.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as caught:
        read_tof_meta(path, n_rows)
    assert str(caught.value).startswith(f"{path}: ")
    assert message in str(caught.value)


def test_fraction_accuracy_groups_hits_by_fraction(tmp_path):
    path = tmp_path / "fraction_accuracy.csv"
    write_fraction_accuracy(np.array([50, 5, 50, 50]), np.array([True, False, True, False]), path)
    assert path.read_text().splitlines() == [
        "fraction,n,accuracy", "5,1,0.0", f"50,3,{2 / 3!r}"
    ]


def test_concat_keeps_row_order_and_skips_empty_parts():
    a = _tof_rows([1, 2], ["A", "A"], [5, 10])
    b = _tof_rows([3], ["BB"], [20])
    both = FeatureDataset.concat([a, a.take(np.array([], dtype=np.int64)), b])
    assert both.days.tolist() == [1, 2, 3]
    assert both.stocknames.tolist() == ["A", "A", "BB"]
    assert both.fractions.tolist() == [5, 10, 20]
    assert both.X.shape == (3, len(TOF_FEATURE_NAMES))
    series = make_series(np.linspace(10.0, 20.0, 40))
    windows = extract_windows(segment_labels(series, [(20, TREND), (20, TREND)]), series)
    cp = build_cp_dataset(series, windows, log_mode=False)
    assert FeatureDataset.concat([cp, cp]).fractions is None
    with pytest.raises(InvariantError):
        FeatureDataset.concat([a, cp])
    with pytest.raises(EmptyInputError, match="no tof rows were produced"):
        FeatureDataset.concat([a.take(np.array([], dtype=np.int64))])
