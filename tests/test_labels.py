"""Window extraction, changepoint targets, voting, correction and splitting."""

from __future__ import annotations

from dataclasses import replace
from datetime import date as Date

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_series, segment_labels
from reference_labels import vote_experts
from trendlab.errors import DegenerateSplitError, EmptyInputError, ParseError
from trendlab.features import CP_CONTEXT, build_cp_dataset
from trendlab.labels import (
    ContradictionStats,
    DatasetSplit,
    count_contradictions,
    extract_windows,
    load_prep_report,
    save_prep_report,
    split_by_date,
    trigger_correction,
    voted_windows,
)
from trendlab.market_data import FLAT, TREND, LabelSeries, _days


def test_extract_windows_splits_on_id_select_change():
    series = make_series([100, 101, 102, 101, 100])
    rows = segment_labels(series, [(3, TREND), (2, TREND)])
    windows = extract_windows(rows, series)
    assert len(windows) == 2
    assert windows[0].start_date == series.dates[0]
    assert windows[0].end_date == series.dates[2]
    assert windows[1].start_date == series.dates[3]
    assert windows[1].end_date == series.dates[4]


def test_extract_windows_single_window():
    series = make_series([100, 101, 102])
    windows = extract_windows(segment_labels(series, [(3, TREND)]), series)
    assert len(windows) == 1


def test_extract_windows_direction_from_rising_closes():
    series = make_series([100, 105, 110, 116, 122])
    windows = extract_windows(segment_labels(series, [(5, TREND)]), series)
    assert windows[0].direction == 1
    falling = make_series([122, 116, 110, 105, 100])
    windows = extract_windows(segment_labels(falling, [(5, TREND)]), falling)
    assert windows[0].direction == -1


def test_extract_windows_flat_direction_zero_and_empty_error():
    series = make_series([100, 101])
    windows = extract_windows(segment_labels(series, [(2, FLAT)]), series)
    assert windows[0].direction == 0
    with pytest.raises(EmptyInputError):
        extract_windows(LabelSeries("ACME", "A", (), [], []), series)


# The "new trigger" is the changepoint target of build_cp_dataset: 1 on every
# window start but the first. Its rows need CP_CONTEXT rows on either side, so
# each case pads its first and last window by CP_CONTEXT rows.


def test_new_trigger_matches_window_starts():
    series = make_series([100] * (5 + 2 * CP_CONTEXT))
    windows = extract_windows(
        segment_labels(series, [(CP_CONTEXT + 3, TREND), (2 + CP_CONTEXT, FLAT)]), series
    )
    ds = build_cp_dataset(series, windows, log_mode=False)
    assert ds.y.tolist() == [0, 0, 0, 1, 0]
    assert ds.days.tolist() == _days(series.dates[CP_CONTEXT:-CP_CONTEXT]).tolist()


def test_new_trigger_single_window_all_zero():
    series = make_series([100] * (4 + 2 * CP_CONTEXT))
    windows = extract_windows(segment_labels(series, [(len(series), TREND)]), series)
    ds = build_cp_dataset(series, windows, log_mode=False)
    assert ds.y.tolist() == [0, 0, 0, 0]
    assert ds.days.tolist() == _days(series.dates[CP_CONTEXT:-CP_CONTEXT]).tolist()
    # the span ends with the last window
    shorter = [replace(windows[0], end_date=series.dates[CP_CONTEXT + 1])]
    assert build_cp_dataset(series, shorter, log_mode=False).days.tolist() == ds.days[:2].tolist()


def test_new_trigger_three_windows():
    # windows start on rows 0, 2 and 4 of the labelled core: triggers exactly at 2 and 4
    series = make_series([100] * (6 + 2 * CP_CONTEXT))
    segments = [(CP_CONTEXT + 2, TREND), (2, FLAT), (2 + CP_CONTEXT, TREND)]
    windows = extract_windows(segment_labels(series, segments), series)
    ds = build_cp_dataset(series, windows, log_mode=False)
    expected_starts = [series.dates[CP_CONTEXT + 2], series.dates[CP_CONTEXT + 4]]
    assert ds.days[ds.y == 1].tolist() == _days(expected_starts).tolist()


def test_new_trigger_count_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_segments = int(rng.integers(1, 8))
        lengths = rng.integers(1, 6, size=n_segments)
        lengths[0] += CP_CONTEXT
        lengths[-1] += CP_CONTEXT
        tendencies = [TREND if rng.random() < 0.5 else FLAT for _ in range(n_segments)]
        series = make_series(100 + rng.normal(0, 1, size=int(lengths.sum())) ** 2 + 50)
        rows = segment_labels(series, list(zip(lengths, tendencies)))
        windows = extract_windows(rows, series)
        ds = build_cp_dataset(series, windows, log_mode=False)
        assert int(ds.y.sum()) == len(windows) - 1


def test_vote_experts_worked_examples():
    assert vote_experts([1, 1, 1, 0, 0, 0]) == 1
    assert vote_experts([0, 0, 0]) == 0
    assert vote_experts([1, -1]) == 0
    assert vote_experts([-1, -1, 0, 0]) == -1
    assert vote_experts([1]) == 1


def test_vote_experts_permutation_invariant_and_antisymmetric():
    rng = np.random.default_rng(5)
    for _ in range(200):
        codes = list(rng.integers(-1, 2, size=int(rng.integers(1, 9))))
        shuffled = list(rng.permutation(codes))
        assert vote_experts(codes) == vote_experts(shuffled)
        mean = sum(codes) / len(codes)
        if abs(abs(mean) - 0.5) > 1e-12:  # the tie rule breaks symmetry only at +/-0.5
            assert vote_experts([-c for c in codes]) == -vote_experts(codes)


def _windows_for_correction(closes, segments):
    series = make_series(closes)
    rows = segment_labels(series, segments)
    return series, extract_windows(rows, series)


def test_trigger_correction_moves_up_start_to_local_minimum():
    # V-shaped closes: minimum at row 8, labeled up-trend starts at row 10
    closes = [100 - i for i in range(9)] + [92 + 2 * i for i in range(11)]
    series, windows = _windows_for_correction(closes, [(10, FLAT), (10, TREND)])
    assert windows[1].direction == 1
    corrected = trigger_correction(windows, series)
    lo, hi = 10 - 5, 10 + 5
    brute = lo + int(np.argmin(series.closes[lo : hi + 1]))
    assert series.index_of(corrected[1].start_date) == brute == 8
    assert series.index_of(corrected[0].end_date) == 7


def test_trigger_correction_fixed_point_unchanged():
    closes = [100 - i for i in range(10)] + [90 + 2 * i for i in range(10)]
    series, windows = _windows_for_correction(closes, [(10, FLAT), (10, TREND)])
    corrected = trigger_correction(windows, series)
    assert corrected == trigger_correction(corrected, series)
    # start already at the local minimum: nothing moves
    assert [w.start_date for w in corrected] == [w.start_date for w in windows]


def test_trigger_correction_down_start_moves_to_maximum():
    # peak three rows after the labeled down-trend start
    closes = (
        [100 + i for i in range(10)]  # rising flat-ish ramp
        + [110 + 3 * (i + 1) for i in range(3)]  # keeps rising to the peak at row 12
        + [119 - 4 * i for i in range(10)]
    )
    series, windows = _windows_for_correction(closes, [(10, FLAT), (13, TREND)])
    assert windows[1].direction == -1
    corrected = trigger_correction(windows, series)
    assert series.index_of(corrected[1].start_date) == 12


def test_trigger_correction_preserves_contiguity_and_is_idempotent():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = 120
        closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=n)))
        cut1, cut2 = sorted(rng.integers(10, n - 10, size=2))
        if cut2 - cut1 < 3:
            continue
        segments = [(cut1, FLAT), (cut2 - cut1, TREND), (n - cut2, TREND)]
        series = make_series(closes)
        windows = extract_windows(segment_labels(series, segments), series)
        corrected = trigger_correction(windows, series)
        # contiguity: each window starts right after the previous one ends
        for prev, cur in zip(corrected, corrected[1:]):
            assert series.index_of(cur.start_date) == series.index_of(prev.end_date) + 1
        for w in corrected:
            assert series.index_of(w.end_date) >= series.index_of(w.start_date)
        assert trigger_correction(corrected, series) == corrected


def test_trigger_correction_respects_series_boundary():
    closes = [100 - 2 * i for i in range(3)] + [95 + 3 * i for i in range(10)]
    series, windows = _windows_for_correction(closes, [(2, FLAT), (11, TREND)])
    corrected = trigger_correction(windows, series)
    # search range is clamped: previous window keeps >= 1 day
    assert series.index_of(corrected[0].start_date) == 0
    assert series.index_of(corrected[1].start_date) >= 1


@pytest.mark.parametrize("low_row, start_row", [(12, 15), (17, 17)])
def test_trigger_correction_never_crosses_unlabelled_rows(low_row, start_row):
    # Flat labels on rows 0-9, none on 10-14, an up-trend on 15-29
    closes = [100.0 + abs(i - low_row) for i in range(30)]  # the close minimum is at low_row
    series = make_series(closes)
    rows = [*range(10), *range(15, 30)]
    labels = LabelSeries(
        series.stockname, "A", [series.dates[i] for i in rows],
        [1] * 10 + [2] * 15, [False] * 10 + [True] * 15,
    )
    corrected = trigger_correction(extract_windows(labels, series), series)
    spans = [(series.index_of(w.start_date), series.index_of(w.end_date)) for w in corrected]
    assert spans == [(0, 9), (start_row, 29)]
    assert trigger_correction(corrected, series) == corrected


def test_count_contradictions_basics():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    stats = count_contradictions(X, [0, 1, 0])
    assert stats.n_contradicting_rows == 2
    assert stats.pct_of_positives == 100.0
    unique = count_contradictions(np.array([[1.0], [2.0], [3.0]]), [0, 1, 0])
    assert unique.n_contradicting_rows == 0
    assert unique.pct_of_positives == 0.0


def test_count_contradictions_zero_when_targets_functional():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 3, size=(200, 3)).astype(float)
    y = (X.sum(axis=1) > 3).astype(int)
    assert count_contradictions(X, y).n_contradicting_rows == 0


def test_contradiction_summary_format():
    stats = ContradictionStats(
        n_contradicting_rows=12443, pct_of_positives=100.0, n_rows=20000, n_positive_rows=6000
    )
    assert stats.summary() == "12 443/ 100%"


def test_split_by_date_partitions_strictly():
    dates = [Date(2010, 1, 1), Date(2012, 5, 5), Date(2014, 10, 14), Date(2016, 1, 1)]
    split = split_by_date(_days(dates), [0, 1, 0, 1], Date(2014, 10, 14))
    assert list(split.train_idx) == [0, 1]
    assert list(split.test_idx) == [2, 3]
    assert all(dates[i] < split.split_date for i in split.train_idx)
    assert all(dates[i] >= split.split_date for i in split.test_idx)


def test_split_by_date_degenerate():
    dates = [Date(2010, 1, 1), Date(2011, 1, 1)]
    with pytest.raises(DegenerateSplitError):
        split_by_date(_days(dates), [0, 1], Date(2016, 1, 1))


def test_split_by_date_balance_formatting():
    dates = [Date(2010, 1, 1)] * 155 + [Date(2015, 1, 1)]
    y = [0] * 154 + [1, 0]
    split = split_by_date(_days(dates), y, Date(2014, 10, 14))
    assert split.train_negatives == 154
    assert split.train_positives == 1
    assert split.balance_str == "154:1"


def test_voted_windows_resegments_on_code_change():
    series = make_series([100, 102, 104, 106, 108, 110])
    up = extract_windows(segment_labels(series, [(6, TREND)], expert="D"), series)
    mixed = extract_windows(
        segment_labels(series, [(3, TREND), (3, FLAT)], expert="G"), series
    )
    voted = voted_windows([up, mixed], series)
    # first half: votes [1, 1] -> 1; second half: [1, 0] -> mean 0.5 -> 1 (half away from zero)
    assert len(voted) == 1
    assert voted[0].direction == 1

    flat = extract_windows(segment_labels(series, [(6, FLAT)], expert="H"), series)
    voted3 = voted_windows([up, mixed, flat], series)
    # second half votes [1, 0, 0] -> mean 1/3 -> 0: re-segmented into trend then flat
    assert [w.direction for w in voted3] == [1, 0]
    assert voted3[0].expert == "voted"


_COUNT = st.integers(0, 10**9)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _split(draw) -> DatasetSplit:
    """A split's reported fields; the row ids are not part of the report."""
    no_rows = np.empty(0, dtype=np.int64)
    return DatasetSplit(
        draw(st.dates()), no_rows, no_rows, draw(_COUNT), draw(_COUNT), draw(_COUNT),
        draw(_COUNT), draw(st.one_of(st.none(), _FLOAT)),
    )


@given(
    _split(),
    _split(),
    st.builds(ContradictionStats, _COUNT, _FLOAT, _COUNT, _COUNT),
    st.fixed_dictionaries(
        {"log_mode": st.booleans(), "averaging": st.booleans(),
         "trigger_correction": st.booleans(), "experts": st.lists(st.text(), unique=True)}
    ),
)
def test_prep_report_save_load_save_round_trip(tmp_path_factory, cp, tof, contradictions, settings):
    folder = tmp_path_factory.mktemp("prep")
    first, second = folder / "first.json", folder / "second.json"
    save_prep_report(settings, cp, tof, contradictions, first)
    report = load_prep_report(first)
    assert report["split_date"] == cp.split_date
    assert report["cp"] == {**cp.to_dict(), "contradictions": contradictions.to_dict()}
    assert report["tof"] == tof.to_dict()
    assert {k: report[k] for k in settings} == settings
    # the loaded report is the written one: writing it again gives the same bytes
    doc = {**report, "split_date": report["split_date"].isoformat()}
    second.write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")
    assert second.read_bytes() == first.read_bytes()


def test_split_to_dict_holds_the_reported_fields():
    split = split_by_date(np.array([1, 2, 3, 4]), [0, 1, 0, 0], Date.fromordinal(3))
    assert split.to_dict() == {
        "n_train": 2, "n_test": 2, "train_negatives": 1, "train_positives": 1,
        "balance": 1.0, "balance_str": "1.00:1",
    }


@pytest.mark.parametrize(
    "text, message",
    [("{", "not a JSON object with a split_date"), ("[]", "not a JSON object with a split_date"),
     ('{"split_date": "2012-01-02"}', "log_mode must be true or false")],
    ids=["not-json", "not-an-object", "no-log-mode"],
)
def test_load_prep_report_names_the_file(tmp_path, text, message):
    path = tmp_path / "prep_report.json"
    path.write_text(text)
    with pytest.raises(ParseError) as caught:
        load_prep_report(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert message in str(caught.value)
