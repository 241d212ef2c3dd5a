"""Loader, validation and merge behavior of the CSV layer."""

from __future__ import annotations

from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_series, row_of
from reference_market_data import reference_load_quotes
from trendlab.errors import (
    DefectFileError,
    DuplicateDateError,
    InvariantError,
    ParseError,
    TrendlabError,
)
from trendlab.market_data import (
    OHLCV_COLUMNS,
    LabelSeries,
    QuoteSeries,
    _read_json,
    _write_json,
    load_quotes,
    merge_label_files,
    save_labels,
    save_quotes,
)
from trendlab.synth import business_dates

QUOTE_HEADER = "date,open,high,low,close,volume,stockname\n"
LABEL_HEADER = "date,stockname,id_select,type,username\n"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def read_one(path: Path) -> LabelSeries:
    """The one series of a single label file."""
    (labels,) = merge_label_files([path]).values()
    return labels


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


_PRICES = st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False)


@st.composite
def _quote_series(draw) -> QuoteSeries:
    """Valid quotes: low <= open, close <= high, on increasing business dates."""
    n = draw(st.integers(1, 25))
    rows = [sorted(draw(st.lists(_PRICES, min_size=4, max_size=4))) for _ in range(n)]
    swap = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    volumes = draw(st.lists(st.one_of(st.integers(0, 10**12).map(float), st.floats(0, 1e16)),
                            min_size=n, max_size=n))
    skip, stride = draw(st.integers(0, 300)), draw(st.integers(1, 4))
    dates = business_dates(Date(2005, 1, 3), skip + stride * n)[skip::stride]
    name = draw(st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.", min_size=1, max_size=6))
    return QuoteSeries(
        name,
        dates,
        open=[r[2] if s else r[1] for r, s in zip(rows, swap)],
        high=[r[3] for r in rows],
        low=[r[0] for r in rows],
        close=[r[1] if s else r[2] for r, s in zip(rows, swap)],
        volume=volumes,
    )


@given(_quote_series())
def test_quotes_save_load_save_round_trip(tmp_path_factory, series):
    folder = tmp_path_factory.mktemp("quotes")
    first, second = folder / "first.csv", folder / "second.csv"
    save_quotes(series, first)
    loaded = load_quotes(first)
    save_quotes(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert (loaded.stockname, loaded.dates) == (series.stockname, series.dates)
    for c in OHLCV_COLUMNS:
        assert np.array_equal(loaded.column(c), series.column(c))


def test_slice_shares_memory_and_columns_are_read_only():
    series = make_series(np.linspace(10.0, 20.0, 30))
    part = series[10:20]
    assert len(part) == 10
    assert part.dates == series.dates[10:20]
    assert row_of(part, series.dates[10]) == 0
    for c in OHLCV_COLUMNS:
        assert np.shares_memory(part.column(c), series.column(c))
        assert np.array_equal(part.column(c), series.column(c)[10:20])
        assert not series.column(c).flags.writeable
        assert not part.column(c).flags.writeable
    with pytest.raises(ValueError):
        series.closes[0] = 1.0
    assert series.column("close") is series.column("close")


def test_days_are_a_read_only_column_that_a_slice_views():
    series = make_series(np.linspace(10.0, 20.0, 30))
    part = series[10:20]
    assert series.days.dtype == np.int64
    assert series.days is series.days
    assert np.shares_memory(part.days, series.days)
    assert part.days.tolist() == series.days[10:20].tolist()
    for days in (series.days, part.days):
        assert not days.flags.writeable
        with pytest.raises(ValueError):
            days[0] = 0
    # the dates are made from the days
    assert series.dates == tuple(Date.fromordinal(d) for d in series.days.tolist())
    labels = LabelSeries("ACME", "D", series.dates[:3], [1, 1, 2], [True, True, False])
    assert labels.days.tolist() == series.days[:3].tolist()
    assert not labels.days.flags.writeable


def columns(labels: LabelSeries) -> tuple:
    return (
        labels.stockname,
        labels.expert,
        labels.dates,
        labels.id_select.tolist(),
        labels.trend.tolist(),
    )


def test_label_round_trip_and_na_mapping(tmp_path):
    p = write(
        tmp_path / "l.csv",
        LABEL_HEADER
        + "2014-10-14,ACME,1,Trend,D\n"
        + "2014-10-15,ACME,1,N/A,D\n"
        + "2014-10-16,ACME,2,Flat,D\n",
    )
    labels = read_one(p)
    assert labels.trend.tolist() == [True, False, False]
    out = tmp_path / "round.csv"
    save_labels(labels, out)
    assert columns(read_one(out)) == columns(labels)
    assert out.read_text(encoding="utf-8").splitlines()[2] == "2014-10-15,ACME,1,Flat,D"


def test_label_file_sorts_rows_and_drops_exact_repeats(tmp_path):
    p = write(
        tmp_path / "l.csv",
        LABEL_HEADER
        + "2014-10-15,ACME,2,Flat,D\n"
        + "2014-10-14,ACME,1,Trend,D\n"
        + "2014-10-15,ACME,2,Flat,D\n",
    )
    labels = read_one(p)
    assert labels.dates == (Date(2014, 10, 14), Date(2014, 10, 15))
    assert labels.id_select.tolist() == [1, 2]
    assert not labels.id_select.flags.writeable and not labels.trend.flags.writeable
    clash = write(
        tmp_path / "clash.csv",
        LABEL_HEADER + "2014-10-14,ACME,1,Trend,D\n2014-10-14,ACME,1,Flat,D\n",
    )
    with pytest.raises(InvariantError, match="labels 2014-10-14/ACME twice"):
        merge_label_files([clash])


def test_label_series_rejects_unsorted_dates_and_ragged_columns():
    dates = [Date(2014, 10, 15), Date(2014, 10, 14)]
    first = "^ACME/D: label dates not strictly increasing at 2014-10-14$"
    with pytest.raises(InvariantError, match=first):
        LabelSeries("ACME", "D", dates, [1, 1], [True, True])
    # the first date out of order is named, a repeat too
    later = [Date(2014, 10, 14), Date(2014, 10, 16), Date(2014, 10, 16), Date(2014, 10, 15)]
    with pytest.raises(InvariantError, match="increasing at 2014-10-16$"):
        LabelSeries("ACME", "D", later, [1] * 4, [True] * 4)
    with pytest.raises(InvariantError, match="disagree in length"):
        LabelSeries("ACME", "D", dates[1:], [1, 1], [True, True])


def test_label_file_rejects_unknown_tendency_and_mixed_experts(tmp_path):
    p = write(tmp_path / "l.csv", LABEL_HEADER + "2014-10-14,ACME,1,Sideways,D\n")
    with pytest.raises(ParseError):
        merge_label_files([p])
    p2 = write(
        tmp_path / "l2.csv",
        LABEL_HEADER + "2014-10-14,ACME,1,Trend,D\n2014-10-15,ACME,1,Trend,G\n",
    )
    with pytest.raises(InvariantError):
        merge_label_files([p2])


def test_merge_deduplicates_identical_rows(tmp_path):
    row = "2014-10-14,ACME,1,Trend,D\n"
    a = write(tmp_path / "a.csv", LABEL_HEADER + row)
    b = write(tmp_path / "b.csv", LABEL_HEADER + row)
    merged = merge_label_files([a, b])
    assert list(merged) == [("ACME", "D")]
    assert columns(merged[("ACME", "D")]) == ("ACME", "D", (Date(2014, 10, 14),), [1], [True])


def test_merge_concatenates_disjoint_files(tmp_path):
    a = write(tmp_path / "a.csv", LABEL_HEADER + "2014-10-14,ACME,1,Trend,D\n")
    b = write(tmp_path / "b.csv", LABEL_HEADER + "2014-10-14,ACME,1,Flat,G\n")
    merged = merge_label_files([a, b])
    assert list(merged) == [("ACME", "D"), ("ACME", "G")]
    assert [labels.trend.tolist() for labels in merged.values()] == [[True], [False]]


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


def test_merge_rejects_a_file_with_two_different_quotes_for_one_date(tmp_path):
    row = "2010-01-05,ACME,1,Trend,D,10.0,12.0,9.0,{close},1000\n"
    twice = write(tmp_path / "twice.csv", LABEL_Q_HEADER + 2 * row.format(close=11.0))
    assert len(merge_label_files([twice])[("ACME", "D")]) == 1
    unlike = write(
        tmp_path / "unlike.csv",
        LABEL_Q_HEADER + row.format(close=11.0) + row.format(close=11.5),
    )
    with pytest.raises(DefectFileError, match=f"{unlike}: quotes for 2010-01-05/ACME differ"):
        merge_label_files([unlike])


def test_merge_checks_against_preloaded_quotes(tmp_path):
    series = make_series([11.0, 12.0], stockname="ACME", start=Date(2010, 1, 5))
    conflicting = write(
        tmp_path / "c.csv",
        LABEL_Q_HEADER + "2010-01-05,ACME,1,Trend,D,10.0,12.0,9.0,99.0,1000\n",
    )
    with pytest.raises(DefectFileError):
        merge_label_files([conflicting], quotes=[series])


def test_merge_rejects_a_file_whose_stock_has_no_quotes(tmp_path):
    series = make_series([11.0, 12.0], stockname="ACME", start=Date(2010, 1, 5))
    a = write(tmp_path / "a.csv", LABEL_HEADER + "2010-01-05,ACME,1,Trend,D\n")
    orphan = write(tmp_path / "orphan.csv", LABEL_HEADER + "2010-01-05,OTHER,1,Trend,D\n")
    assert list(merge_label_files([a], quotes=[series])) == [("ACME", "D")]
    with pytest.raises(InvariantError, match=f"{orphan}: labels stock OTHER, which has no quotes"):
        merge_label_files([a, orphan], quotes=[series])
    with pytest.raises(InvariantError, match="labels stock ACME"):
        merge_label_files([a], quotes=[])
    # without quotes, every stock is taken
    assert list(merge_label_files([a, orphan])) == [("ACME", "D"), ("OTHER", "D")]


def test_merge_retained_rows_unique_per_date_stock_expert(tmp_path):
    paths = []
    for expert in ("D", "G"):
        body = "".join(
            f"2014-10-{14 + i:02d},ACME,1,Trend,{expert}\n" for i in range(3)
        )
        paths.append(write(tmp_path / f"{expert}.csv", LABEL_HEADER + body))
    paths.append(paths[0])
    merged = merge_label_files(paths)
    assert list(merged) == [("ACME", "D"), ("ACME", "G")]
    for labels in merged.values():
        assert len(set(labels.dates)) == len(labels) == 3


@pytest.mark.parametrize(
    "bar, fault",
    [
        ((10.0, 12.0, 9.0, float("nan"), 1000.0), "non-finite quote"),
        ((10.0, 12.0, -9.0, 11.0, 1000.0), "non-positive price"),
        ((10.0, 12.0, 9.0, 11.0, -1.0), "negative volume"),
        ((10.0, 10.5, 9.0, 11.0, 1000.0), "OHLC ordering violated"),
    ],
    ids=["non-finite", "non-positive", "negative-volume", "ohlc-order"],
)
def test_every_validate_message_names_the_stock(bar, fault):
    series = QuoteSeries("ACME", [Date(2020, 1, 1)], *([value] for value in bar))
    with pytest.raises(InvariantError, match=f"^ACME: {fault} on 2020-01-01"):
        series.validate()


def test_rows_of_finds_each_day_and_names_the_stock_and_a_day_it_lacks():
    series = make_series(np.linspace(10.0, 20.0, 10))  # 2012-01-02 to 2012-01-13, weekdays
    days = series.days
    assert series.rows_of(days[::-1]).tolist() == list(range(9, -1, -1))
    assert series.rows_of([]).tolist() == []
    assert series[3:6].rows_of(days[3:6]).tolist() == [0, 1, 2]
    # a weekend, a day before the first bar and a day after the last one
    for missing in (Date(2012, 1, 7), Date(2012, 1, 1), Date(2012, 1, 16)):
        with pytest.raises(InvariantError, match=f"^ACME: no quote for {missing}$"):
            series.rows_of([days[0], missing.toordinal(), days[-1]])
    with pytest.raises(InvariantError, match="^ACME: no quote for 2012-01-02$"):
        series[1:].rows_of(days[:1])


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


# Cell texts that a quote column parses, rejects, or parses to a value validate rejects.
CELLS = ("", "x", "nan", "-inf", "1e309", "-1", "0", " 7 ", "1_0", "0x10", "2012-02-30",
         "20120103", "2012-01-03", "OTHER", " ACME ", '"1"')
# A cell replaced, a row swapped with or copied over another, a blank line put in.
QUOTE_EDITS = st.tuples(
    st.sampled_from(("cell", "swap", "copy", "blank")),
    st.integers(0, 39),
    st.integers(0, 39),
    st.integers(0, len(QUOTE_HEADER.split(",")) - 1),
    st.sampled_from(CELLS),
)


def _quote_outcome(load, path: Path) -> tuple:
    """The series ``load`` reads, bit for bit, or the type and message of its error."""
    try:
        series = load(path)
    except TrendlabError as exc:
        return type(exc), str(exc)
    return series.stockname, series.dates, *(series.column(c).tobytes() for c in OHLCV_COLUMNS)


def test_load_quotes_matches_the_per_row_reference_on_mutated_files(tmp_path):
    path = tmp_path / "quotes.csv"
    save_quotes(make_series(100 + np.sin(np.arange(40.0))), path)
    header, *original = path.read_text(encoding="utf-8").splitlines()
    outcomes = set()

    @settings(max_examples=300)
    @given(st.lists(QUOTE_EDITS, min_size=1, max_size=4))
    # two bad cells in one row: the stockname is checked before the date, the
    # date before the values, and the values in column order
    @example([("cell", 3, 0, 0, "x"), ("cell", 3, 0, 6, "OTHER")])
    @example([("cell", 3, 0, 4, "x"), ("cell", 3, 0, 0, "2012-02-30")])
    @example([("cell", 3, 0, 5, "x"), ("cell", 3, 0, 1, "x"), ("blank", 2, 0, 0, "")])
    # the first bad row in file order, whichever check finds it
    @example([("cell", 9, 0, 1, "x"), ("cell", 4, 0, 6, "OTHER")])
    @example([("cell", 9, 0, 6, "OTHER"), ("cell", 4, 0, 5, "x")])
    def mutated_file_loads_alike(edits):
        rows = [line.split(",") for line in original]
        for kind, i, j, column, cell in edits:
            if kind == "cell":
                rows[i][column] = cell
            elif kind == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif kind == "copy":
                rows[j] = list(rows[i])
            else:
                rows.insert(i, [])
        path.write_text("\n".join([header, *map(",".join, rows)]) + "\n", encoding="utf-8")
        got = _quote_outcome(load_quotes, path)
        assert got == _quote_outcome(reference_load_quotes, path)
        outcomes.add(got[0] if isinstance(got[0], type) else "loaded")

    mutated_file_loads_alike()
    # the edits reached every kind of outcome: a series and each error
    assert {"loaded", ParseError, InvariantError, DuplicateDateError} <= outcomes


def test_rows_shorter_than_the_header_are_parse_errors(tmp_path):
    quotes = write(tmp_path / "q.csv", QUOTE_HEADER + "2014-10-14,10.0,12.0,9.0\n")
    with pytest.raises(ParseError, match="q.csv:2: 4 fields, the header has 7"):
        load_quotes(quotes)
    labels = write(
        tmp_path / "l.csv", LABEL_HEADER + "2014-10-14,ACME,1,Trend,D\n2014-10-15,ACME\n"
    )
    with pytest.raises(ParseError, match="l.csv:3: 2 fields"):
        merge_label_files([labels])


def test_a_bad_row_after_a_blank_line_is_reported_on_its_file_line(tmp_path):
    quotes = write(
        tmp_path / "q.csv",
        QUOTE_HEADER + "2014-10-14,10.0,12.0,9.0,11.0,1000,ACME\n\n"
        + "2014-10-15,10.0,12.0,9.0,11.0,lots,ACME\n",
    )
    with pytest.raises(ParseError, match=r"q\.csv:4: .*volume"):
        load_quotes(quotes)
    labels = write(
        tmp_path / "l.csv",
        LABEL_HEADER + "\n2014-10-14,ACME,1,Trend,D\n\n2014-10-15,ACME,x,Trend,D\n",
    )
    with pytest.raises(ParseError, match=r"l\.csv:5: bad id_select 'x'"):
        merge_label_files([labels])
    # a quoted cell over two lines: the row is reported on the line it ends on
    spanning = write(
        tmp_path / "s.csv",
        QUOTE_HEADER + "2014-10-14,10.0,12.0,9.0,11.0,1000,ACME\n"
        + '2014-10-15,10.0,12.0,9.0,11.0,1000,"AC\nME"\n',
    )
    with pytest.raises(InvariantError, match=r"s\.csv:4: mixed stocknames"):
        load_quotes(spanning)


def test_json_layout_is_sorted_one_space_utf8(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": [1, 2.5], "a": {"z": None, "é": True}}
    _write_json(doc, path)
    assert path.read_bytes() == (
        '{\n "a": {\n  "z": null,\n  "\\u00e9": true\n },\n "b": [\n  1,\n  2.5\n ]\n}'
    ).encode()
    assert _read_json(path) == doc


@pytest.mark.parametrize(
    "raw, message",
    [(b"not json", "not JSON"), (b"\xff{}", "not JSON"), (b"[1]", "not a JSON object")],
    ids=["not-json", "not-utf8", "not-an-object"],
)
def test_read_json_names_the_file(tmp_path, raw, message):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=message) as caught:
        _read_json(path)
    assert str(caught.value).startswith(f"{path}: ")
