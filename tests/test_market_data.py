"""Loader, validation and merge behavior of the CSV layer."""

from __future__ import annotations

from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest

from conftest import make_series
from trendlab.errors import (
    DefectFileError,
    DuplicateDateError,
    InvariantError,
    ParseError,
)
from trendlab.market_data import (
    OHLCV_COLUMNS,
    ExpertLabelRow,
    load_label_file,
    load_quotes,
    merge_label_files,
    save_labels,
    save_quotes,
)

QUOTE_HEADER = "date,open,high,low,close,volume,stockname\n"
LABEL_HEADER = "date,stockname,id_select,type,username\n"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def test_load_quotes_parses_fields(tmp_path):
    p = write(tmp_path / "q.csv", QUOTE_HEADER + "2014-10-14,10.0,12.0,9.0,11.0,1000,ACME\n")
    series = load_quotes(p)
    assert series.stockname == "ACME"
    assert [float(series.column(c)[0]) for c in OHLCV_COLUMNS] == [10.0, 12.0, 9.0, 11.0, 1000.0]
    assert series.dates == (Date(2014, 10, 14),)


def test_load_quotes_rejects_inverted_high_low(tmp_path):
    p = write(tmp_path / "q.csv", QUOTE_HEADER + "2014-10-14,10.0,9.0,12.0,11.0,1000,ACME\n")
    with pytest.raises(InvariantError):
        load_quotes(p)


def test_load_quotes_rejects_nonpositive_price(tmp_path):
    p = write(tmp_path / "q.csv", QUOTE_HEADER + "2014-10-14,0.0,12.0,0.0,11.0,1000,ACME\n")
    with pytest.raises(InvariantError):
        load_quotes(p)


def test_load_quotes_rejects_duplicate_dates(tmp_path):
    p = write(
        tmp_path / "q.csv",
        QUOTE_HEADER
        + "2014-10-14,10.0,12.0,9.0,11.0,1000,ACME\n"
        + "2014-10-14,10.0,12.0,9.0,10.5,900,ACME\n",
    )
    with pytest.raises(DuplicateDateError):
        load_quotes(p)


def test_load_quotes_sorts_and_rejects_bad_cells(tmp_path):
    p = write(
        tmp_path / "q.csv",
        QUOTE_HEADER
        + "2014-10-15,10.0,12.0,9.0,11.0,1000,ACME\n"
        + "2014-10-14,10.0,12.0,9.0,11.0,1000,ACME\n",
    )
    series = load_quotes(p)
    assert [d.day for d in series.dates] == [14, 15]

    bad = write(tmp_path / "bad.csv", QUOTE_HEADER + "2014-10-14,ten,12.0,9.0,11.0,1000,ACME\n")
    with pytest.raises(ParseError):
        load_quotes(bad)


def test_load_quotes_with_schema_mapping(tmp_path):
    p = write(
        tmp_path / "q.csv",
        "Date,Open,High,Low,Close,Volume,Ticker\n"
        "2014-10-14,10.0,12.0,9.0,11.0,1000,ACME\n",
    )
    schema = {
        "date": "Date", "open": "Open", "high": "High", "low": "Low",
        "close": "Close", "volume": "Volume", "stockname": "Ticker",
    }
    series = load_quotes(p, schema=schema)
    assert series.stockname == "ACME"
    assert series.closes[0] == 11.0


def test_quotes_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(3)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=50)))
    series = make_series(closes, volumes=rng.integers(1, 10_000, size=50).astype(float))
    out = tmp_path / "round.csv"
    save_quotes(series, out)
    loaded = load_quotes(out)
    assert loaded.stockname == series.stockname
    assert loaded.dates == series.dates
    for c in OHLCV_COLUMNS:
        assert np.array_equal(loaded.column(c), series.column(c))


def test_quotes_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=40)))
    volumes = np.round(np.exp(rng.normal(8, 0.5, size=40)))
    volumes[3] = 1234.5  # a non-integral volume keeps its decimals
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    save_quotes(make_series(closes, volumes=volumes), first)
    save_quotes(load_quotes(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_slice_shares_memory_and_columns_are_read_only():
    series = make_series(np.linspace(10.0, 20.0, 30))
    part = series[10:20]
    assert len(part) == 10
    assert part.dates == series.dates[10:20]
    assert part.index_of(series.dates[10]) == 0
    for c in OHLCV_COLUMNS:
        assert np.shares_memory(part.column(c), series.column(c))
        assert np.array_equal(part.column(c), series.column(c)[10:20])
        assert not series.column(c).flags.writeable
        assert not part.column(c).flags.writeable
    with pytest.raises(ValueError):
        series.closes[0] = 1.0
    assert series.column("close") is series.column("close")
    assert series.dates is series.dates


def test_label_round_trip_and_na_mapping(tmp_path):
    p = write(
        tmp_path / "l.csv",
        LABEL_HEADER
        + "2014-10-14,ACME,1,Trend,D\n"
        + "2014-10-15,ACME,1,N/A,D\n"
        + "2014-10-16,ACME,2,Flat,D\n",
    )
    lf = load_label_file(p)
    assert [r.tendency for r in lf.rows] == ["Trend", "Flat", "Flat"]
    out = tmp_path / "round.csv"
    save_labels(lf.rows, out)
    assert load_label_file(out).rows == lf.rows


def test_label_file_rejects_unknown_tendency_and_mixed_experts(tmp_path):
    p = write(tmp_path / "l.csv", LABEL_HEADER + "2014-10-14,ACME,1,Sideways,D\n")
    with pytest.raises(ParseError):
        load_label_file(p)
    p2 = write(
        tmp_path / "l2.csv",
        LABEL_HEADER + "2014-10-14,ACME,1,Trend,D\n2014-10-15,ACME,1,Trend,G\n",
    )
    with pytest.raises(InvariantError):
        load_label_file(p2)


def test_merge_deduplicates_identical_rows(tmp_path):
    row = "2014-10-14,ACME,1,Trend,D\n"
    a = write(tmp_path / "a.csv", LABEL_HEADER + row)
    b = write(tmp_path / "b.csv", LABEL_HEADER + row)
    merged = merge_label_files([a, b])
    assert merged == [
        ExpertLabelRow(Date(2014, 10, 14), "ACME", 1, "Trend", "D")
    ]


def test_merge_concatenates_disjoint_files(tmp_path):
    a = write(tmp_path / "a.csv", LABEL_HEADER + "2014-10-14,ACME,1,Trend,D\n")
    b = write(tmp_path / "b.csv", LABEL_HEADER + "2014-10-14,ACME,1,Flat,G\n")
    merged = merge_label_files([a, b])
    assert len(merged) == 2
    assert {r.expert for r in merged} == {"D", "G"}


def test_merge_rejects_conflicting_same_expert_labels(tmp_path):
    a = write(tmp_path / "a.csv", LABEL_HEADER + "2014-10-14,ACME,1,Trend,D\n")
    b = write(tmp_path / "b.csv", LABEL_HEADER + "2014-10-14,ACME,2,Flat,D\n")
    with pytest.raises(InvariantError):
        merge_label_files([a, b])


LABEL_Q_HEADER = "date,stockname,id_select,type,username,open,high,low,close,volume\n"


def test_merge_rejects_defect_file_on_quote_conflict(tmp_path):
    a = write(
        tmp_path / "a.csv",
        LABEL_Q_HEADER + "2010-01-05,ACME,1,Trend,D,10.0,12.0,9.0,11.0,1000\n",
    )
    b = write(
        tmp_path / "b.csv",
        LABEL_Q_HEADER + "2010-01-05,ACME,1,Trend,G,10.0,12.0,9.0,10.5,1000\n",
    )
    with pytest.raises(DefectFileError):
        merge_label_files([a, b])
    # skip mode drops the whole defect file but keeps the rest
    with pytest.warns(UserWarning):
        merged = merge_label_files([a, b], skip_defects=True)
    assert [r.expert for r in merged] == ["D"]


def test_merge_checks_against_preloaded_quotes(tmp_path):
    series = make_series([11.0, 12.0], stockname="ACME", start=Date(2010, 1, 5))
    conflicting = write(
        tmp_path / "c.csv",
        LABEL_Q_HEADER + "2010-01-05,ACME,1,Trend,D,10.0,12.0,9.0,99.0,1000\n",
    )
    with pytest.raises(DefectFileError):
        merge_label_files([conflicting], quotes=[series])


def test_merge_retained_rows_unique_per_date_stock_expert(tmp_path):
    paths = []
    for expert in ("D", "G"):
        body = "".join(
            f"2014-10-{14 + i:02d},ACME,1,Trend,{expert}\n" for i in range(3)
        )
        paths.append(write(tmp_path / f"{expert}.csv", LABEL_HEADER + body))
    merged = merge_label_files(paths)
    keys = [(r.date, r.stockname, r.expert) for r in merged]
    assert len(keys) == len(set(keys))


def test_validate_catches_negative_volume():
    series = make_series([11.0, 11.0], volumes=[1000.0, -1.0])
    with pytest.raises(InvariantError, match="negative volume"):
        series.validate()


@pytest.mark.parametrize(
    "bad_row",
    ["2014-10-15,10.0,12.0,9.0,nan,1000,ACME\n", "2014-10-15,10.0,12.0,9.0,11.0,inf,ACME\n"],
    ids=["nan_close", "inf_volume"],
)
def test_load_quotes_rejects_non_finite_quotes(tmp_path, bad_row):
    p = write(
        tmp_path / "q.csv",
        QUOTE_HEADER + "2014-10-14,10.0,12.0,9.0,11.0,1000,ACME\n" + bad_row,
    )
    with pytest.raises(InvariantError, match="ACME: non-finite quote on 2014-10-15"):
        load_quotes(p)


def test_load_quotes_reports_first_bad_row_in_file_order(tmp_path):
    p = write(
        tmp_path / "q.csv",
        QUOTE_HEADER
        + "2014-10-16,10.0,12.0,9.0,11.0,-5,ACME\n"
        + "2014-10-14,10.0,9.0,12.0,11.0,1000,ACME\n"
        + "2014-10-16,10.0,12.0,9.0,11.0,1000,ACME\n",
    )
    with pytest.raises(InvariantError, match="negative volume on 2014-10-16"):
        load_quotes(p)
