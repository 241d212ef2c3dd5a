"""Columnar labels: differential tests against the per-row reference, and properties."""

from __future__ import annotations

from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_series, row_of
from reference_labels import (
    reference_extract_windows,
    reference_group_rows,
    reference_merge_label_files,
    reference_voted_windows,
    vote_experts,
)
from trendlab.errors import DefectFileError, InvariantError, ParseError, TrendlabError
from trendlab.labels import (
    ExpertWindow,
    extract_windows,
    trigger_correction,
    voted_windows,
)
from trendlab.market_data import (
    FLAT,
    OHLCV_COLUMNS,
    TREND,
    LabelSeries,
    load_quotes,
    merge_label_files,
    save_labels,
    save_quotes,
)
from trendlab.synth import ExpertProfile, SamplerConfig, business_dates, gen_expert_labels, gen_series

PROFILES = {
    "jitter": ExpertProfile(jitter_days=3),
    "disagree": ExpertProfile(jitter_days=1, disagree_prob=0.3),
    "split_merge": ExpertProfile(split_merge_prob=0.4),
}


def _with_gap(labels: LabelSeries, a: int, b: int) -> LabelSeries:
    """Drop the labels of rows a..b-1 and start a new window after them."""
    keep = np.r_[0:a, b : len(labels)]
    ids = labels.id_select + 1000 * (np.arange(len(labels)) >= b)
    return LabelSeries(
        labels.stockname,
        labels.expert,
        [labels.dates[i] for i in keep],
        ids[keep],
        labels.trend[keep],
    )


def _universe(tmp_path: Path, n_experts: int, profile: ExpertProfile, gap: bool):
    cfg = SamplerConfig(n_days=400, trend_length=(40, 90), flat_length=(20, 50))
    paths = []
    for i in range(2):
        series, truth = gen_series(cfg, seed=[8, i], stockname=f"S{i}")
        save_quotes(series, tmp_path / f"quotes_S{i}.csv")
        for j, expert in enumerate("DGK"[:n_experts]):
            labels = gen_expert_labels(truth, profile, seed=[8, i, j], series=series, name=expert)
            if gap:
                labels = _with_gap(labels, 150, 170)
                if j == 0:  # the first expert also labels a shorter span
                    labels = _with_gap(labels, 0, 25)
                    labels = _with_gap(labels, len(labels) - 25, len(labels))
            path = tmp_path / f"labels_S{i}_{expert}.csv"
            save_labels(labels, path)
            paths.append(path)
    quotes = {s.stockname: s for s in (load_quotes(p) for p in sorted(tmp_path.glob("quotes_*")))}
    return quotes, paths


@pytest.mark.parametrize("correct", [False, True], ids=["raw", "corrected"])
@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("n_experts", [1, 2, 3])
def test_columnar_windows_match_row_reference(tmp_path, n_experts, profile, correct):
    for gap in (False, True):
        workdir = tmp_path / f"gap{int(gap)}"
        workdir.mkdir()
        quotes, paths = _universe(workdir, n_experts, PROFILES[profile], gap)
        merged = merge_label_files(paths, quotes=quotes.values())
        reference = reference_group_rows(
            reference_merge_label_files(paths, quotes=quotes.values())
        )
        assert list(merged) == list(reference)
        by_stock: dict[str, tuple[list, list]] = {}
        for key, labels in merged.items():
            rows = reference[key]
            assert labels.dates == tuple(r.date for r in rows)
            assert labels.id_select.tolist() == [r.id_select for r in rows]
            assert labels.trend.tolist() == [r.tendency == TREND for r in rows]
            series = quotes[key[0]]
            got = extract_windows(labels, series)
            want = reference_extract_windows(rows, series)
            assert got == want
            if correct:
                got = trigger_correction(got, series)
                want = trigger_correction(want, series)
            streams = by_stock.setdefault(key[0], ([], []))
            streams[0].append(got)
            streams[1].append(want)
        for stock, (got_streams, want_streams) in by_stock.items():
            voted = voted_windows(got_streams, quotes[stock])
            assert voted == reference_voted_windows(want_streams, quotes[stock])
            if gap:
                for hole in quotes[stock].dates[150:170]:
                    assert not any(w.start_date <= hole <= w.end_date for w in voted)


LABEL_HEADER = "date,stockname,id_select,type,username\n"
LABEL_Q_HEADER = "date,stockname,id_select,type,username,open,high,low,close,volume\n"


def _quote_cells(series, i: int, close: float | None = None) -> str:
    """The embedded quote fields of row i, with the close replaced if given."""
    cells = {c: float(series.column(c)[i]) for c in OHLCV_COLUMNS}
    if close is not None:
        cells["close"] = close
    return ",".join(repr(v) for v in cells.values())


def _error_cases(series) -> dict[str, tuple[list[str], type | None]]:
    """Label files per case, and the error the merge and segmentation raise."""
    d = [x.isoformat() for x in series.dates]
    return {
        "clean": (
            [LABEL_HEADER + f"{d[0]},S,1,Trend,D\n{d[1]},S,1,Trend,D\n{d[2]},S,2,Flat,D\n"],
            None,
        ),
        "repeated_file": ([LABEL_HEADER + f"{d[0]},S,1,Trend,D\n"] * 2, None),
        "repeated_row_unsorted": (
            [LABEL_HEADER + f"{d[2]},S,2,N/A,D\n{d[0]},S,1,Trend,D\n{d[2]},S,2,Flat,D\n"],
            None,
        ),
        "conflict_across_files": (
            [LABEL_HEADER + f"{d[0]},S,1,Trend,D\n", LABEL_HEADER + f"{d[0]},S,2,Trend,D\n"],
            InvariantError,
        ),
        "conflict_in_file": (
            [LABEL_HEADER + f"{d[0]},S,1,Trend,D\n{d[0]},S,1,Flat,D\n"],
            InvariantError,
        ),
        "other_expert_same_day": (
            [LABEL_HEADER + f"{d[0]},S,1,Trend,D\n", LABEL_HEADER + f"{d[0]},S,1,Flat,G\n"],
            None,
        ),
        "quotes_agree": ([LABEL_Q_HEADER + f"{d[0]},S,1,Trend,D,{_quote_cells(series, 0)}\n"], None),
        "quotes_contradict_loaded": (
            [LABEL_Q_HEADER + f"{d[1]},S,1,Trend,D,{_quote_cells(series, 1, close=999.0)}\n"],
            DefectFileError,
        ),
        "quotes_contradict_earlier_file": (
            [
                LABEL_Q_HEADER + "2030-01-02,S,1,Trend,D,1.0,2.0,0.5,1.5,10\n",
                LABEL_Q_HEADER + "2030-01-02,S,1,Trend,G,1.0,2.0,0.5,1.25,10\n",
            ],
            DefectFileError,
        ),
        "quotes_differ_in_one_file": (
            [
                LABEL_Q_HEADER
                + f"{d[0]},S,1,Trend,D,9.0,9.0,9.0,9.0,9\n"
                + f"{d[0]},S,1,Trend,D,{_quote_cells(series, 0)}\n"
            ],
            DefectFileError,
        ),
        "quotes_repeat_in_one_file": (
            [
                LABEL_Q_HEADER
                + f"{d[0]},S,1,Trend,D,{_quote_cells(series, 0)}\n"
                + f"{d[1]},S,1,Trend,D,{_quote_cells(series, 1)}\n"
                + f"{d[0]},S,1,Trend,D,{_quote_cells(series, 0)}\n"
            ],
            None,
        ),
        "defect_before_label_conflict": (
            [
                LABEL_Q_HEADER
                + f"{d[0]},S,1,Trend,D,{_quote_cells(series, 0, close=999.0)}\n"
                + f"{d[0]},S,2,Trend,D,{_quote_cells(series, 0, close=999.0)}\n"
            ],
            DefectFileError,
        ),
        "unknown_tendency": ([LABEL_HEADER + f"{d[0]},S,1,Sideways,D\n"], ParseError),
        "bad_id": ([LABEL_HEADER + f"{d[0]},S,one,Trend,D\n"], ParseError),
        "bad_date": ([LABEL_HEADER + "2014-13-40,S,1,Trend,D\n"], ParseError),
        "mixed_experts": (
            [LABEL_HEADER + f"{d[0]},S,1,Trend,D\n{d[1]},S,1,Trend,G\n"],
            InvariantError,
        ),
        "missing_column": (["date,stockname,type,username\n" + f"{d[0]},S,Trend,D\n"], ParseError),
        "no_rows": ([LABEL_HEADER], ParseError),
        "day_without_quote": (
            [LABEL_HEADER + f"{d[0]},S,1,Trend,D\n2030-01-02,S,1,Trend,D\n"],
            InvariantError,
        ),
    }


def _outcome(run):
    try:
        return run()
    except TrendlabError as exc:
        return type(exc)


def test_merge_errors_match_row_reference(tmp_path):
    series, _ = gen_series(SamplerConfig(n_days=600), seed=2, stockname="S")
    for name, (texts, error) in _error_cases(series).items():
        paths = []
        for k, text in enumerate(texts):
            path = tmp_path / f"{name}_{k}.csv"
            path.write_text(text, encoding="utf-8")
            paths.append(path)

        def columnar():
            merged = merge_label_files(paths, quotes=[series])
            return {key: extract_windows(labels, series) for key, labels in merged.items()}

        def reference():
            buckets = reference_group_rows(reference_merge_label_files(paths, quotes=[series]))
            return {key: reference_extract_windows(rows, series) for key, rows in buckets.items()}

        got = _outcome(columnar)
        assert got == _outcome(reference), name
        assert got is error if error is not None else isinstance(got, dict), name


# --- properties ---------------------------------------------------------------


@st.composite
def _segments(draw, n_rows: int) -> list[tuple[int, str]]:
    lengths = []
    while sum(lengths) < n_rows:
        lengths.append(draw(st.integers(1, n_rows - sum(lengths))))
    return [(length, draw(st.sampled_from([TREND, FLAT]))) for length in lengths]


@st.composite
def _labelled(draw, expert: str = "A", series=None):
    """A random walk of quotes and one expert's labels over part of it."""
    if series is None:
        n = draw(st.integers(2, 40))
        steps = draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n))
        series = make_series(100.0 * np.exp(np.cumsum(steps)))
    n = len(series)
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start + 1, n))
    ids, trend = [], []
    for k, (length, tendency) in enumerate(draw(_segments(stop - start))):
        ids += [k + 1] * length
        trend += [tendency == TREND] * length
    return series, LabelSeries(series.stockname, expert, series.dates[start:stop], ids, trend)


def _assert_partition(windows, labels, series):
    rows = [(row_of(series, w.start_date), row_of(series, w.end_date)) for w in windows]
    assert rows[0][0] == row_of(series, labels.dates[0])
    assert rows[-1][1] == row_of(series, labels.dates[-1])
    assert all(lo <= hi for lo, hi in rows)
    assert all(nxt[0] == prev[1] + 1 for prev, nxt in zip(rows, rows[1:]))


@given(_labelled())
def test_windows_partition_the_labelled_span(case):
    series, labels = case
    windows = extract_windows(labels, series)
    assert len(windows) == 1 + int(np.count_nonzero(np.diff(labels.id_select)))
    _assert_partition(windows, labels, series)
    _assert_partition(trigger_correction(windows, series), labels, series)


@given(st.data())
def test_voted_windows_ignore_expert_order(data):
    series, first = data.draw(_labelled("E0"))
    streams = [first] + [
        data.draw(_labelled(f"E{k}", series=series))[1]
        for k in range(1, data.draw(st.integers(1, 4)))
    ]
    window_lists = [extract_windows(labels, series) for labels in streams]
    voted = voted_windows(window_lists, series)
    assert voted == reference_voted_windows(window_lists, series)
    order = data.draw(st.permutations(range(len(window_lists))))
    assert voted_windows([window_lists[i] for i in order], series) == voted


@given(st.lists(st.integers(-1, 1), min_size=1, max_size=9))
def test_vote_matches_vote_experts_on_each_row(codes):
    series = make_series([100.0] * 3)
    day = series.dates[1]
    window_lists = [
        [ExpertWindow("ACME", f"E{k}", day, day, TREND if c else FLAT, c)]
        for k, c in enumerate(codes)
    ]
    assert [w.direction for w in voted_windows(window_lists, series)] == [vote_experts(codes)]


_NAMES = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", min_size=1, max_size=6)


@given(
    _NAMES,
    _NAMES,
    st.lists(st.tuples(st.integers(-(2**40), 2**40), st.booleans()), min_size=1, max_size=30),
    st.integers(0, 500),
)
def test_label_save_load_save_is_byte_identical(tmp_path_factory, stock, expert, rows, skip):
    dates = business_dates(Date(2010, 1, 4), skip + 3 * len(rows))[skip::3]
    labels = LabelSeries(stock, expert, dates, [r[0] for r in rows], [r[1] for r in rows])
    folder = tmp_path_factory.mktemp("labels")
    first, second = folder / "first.csv", folder / "second.csv"
    save_labels(labels, first)
    (loaded,) = merge_label_files([first]).values()
    save_labels(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert (loaded.stockname, loaded.expert, loaded.dates) == (stock, expert, labels.dates)
    assert loaded.id_select.tolist() == labels.id_select.tolist()
    assert loaded.trend.tolist() == labels.trend.tolist()


@given(_labelled())
def test_trigger_correction_is_idempotent(case):
    series, labels = case
    corrected = trigger_correction(extract_windows(labels, series), series)
    assert trigger_correction(corrected, series) == corrected
