"""``prepare`` against the per-stream changepoint path it replaced, file for file.

``build_cp_dataset`` takes every window stream of a stock in one call and
leaves out the rows an earlier stream gave. The reference builds each
stream's rows on its own (``reference_features.reference_cp_streams``) and
lets the global ``deduplicate`` drop the repeats, as ``prepare`` did before.
Every file of the prepared directory must have the same bytes either way.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_features import reference_cp_streams

from trendlab import cli
from trendlab.cli import main
from trendlab.features import build_cp_dataset
from trendlab.market_data import QuoteSeries, _date, load_quotes, save_quotes


def synth_workspace(
    root: Path,
    experts: str = "D,G",
    seed: int = 3,
    jitter: int = 1,
    disagree: float = 0.1,
    split_merge: float = 0.05,
) -> Path:
    data = root / "data"
    argv = [
        "synth", "--seed", str(seed), "--stocks", "2", "--days", "400",
        "--trend-len", "40,80", "--flat-len", "20,40", "--experts", experts,
        "--jitter-days", str(jitter), "--disagree-prob", str(disagree),
        "--split-merge-prob", str(split_merge), "-o", str(data),
    ]
    assert main(argv) == 0
    return data


def prepare(data: Path, out: Path, flags: list[str], reference: bool = False) -> tuple:
    """``prepare``'s exit code, its stderr and each file it wrote, by name, as bytes."""
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr):
        if reference:
            mp.setattr(cli, "build_cp_dataset", reference_cp_streams)
        code = main(["prepare", "--data", str(data), "-o", str(out), *flags])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, stderr.getvalue().replace(str(out), "OUT"), files


def assert_prepare_matches_reference(data: Path, flags: list[str], must_pass: bool = True) -> None:
    code, err, got = prepare(data, data.parent / "got", flags)
    want_code, want_err, want = prepare(data, data.parent / "want", flags, reference=True)
    assert (code, err) == (want_code, want_err)
    assert code == 0 or not must_pass, err
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def stock_streams(data: Path, experts: list[str] | None = None) -> dict:
    """Each stock's series and its window streams, as ``prepare`` reads them."""
    quotes, _, label_paths = cli._load_universe(data)
    streams = cli._window_streams(quotes, label_paths, experts, data)
    return {stock: (quotes[stock], list(by.values())) for stock, by in streams.items()}


FLAG_SETS = [
    [mode, averaging, correction]
    for mode in ("--log-mode", "--raw")
    for averaging in ("--averaging", "--no-averaging")
    for correction in ("--trigger-correction", "--no-trigger-correction")
]


@settings(max_examples=12)
@given(
    seed=st.integers(0, 2**16),
    n_experts=st.integers(1, 3),
    jitter=st.integers(0, 3),
    disagree=st.sampled_from([0.0, 0.05, 0.3]),
    split_merge=st.sampled_from([0.0, 0.1, 0.3]),
    flags=st.sampled_from(FLAG_SETS),
)
def test_prepare_writes_the_files_of_the_per_stream_path(
    tmp_path_factory, seed, n_experts, jitter, disagree, split_merge, flags
):
    root = tmp_path_factory.mktemp("drawn")
    experts = ",".join(["D", "G", "K"][:n_experts])
    data = synth_workspace(root, experts, seed, jitter, disagree, split_merge)
    # a draw may leave a split empty: then both must fail alike
    assert_prepare_matches_reference(data, flags, must_pass=False)


@pytest.mark.parametrize("flags", FLAG_SETS[::3], ids=" ".join)
def test_prepare_with_one_expert_writes_the_files_of_the_per_stream_path(tmp_path, flags):
    data = synth_workspace(tmp_path, experts="D")
    assert_prepare_matches_reference(data, flags)


@pytest.mark.parametrize("flags", [["--no-averaging"], ["--no-averaging", "--raw"]], ids=" ".join)
def test_experts_that_agree_on_every_day_add_no_second_stream_row(tmp_path, flags):
    data = synth_workspace(tmp_path, jitter=0, disagree=0.0, split_merge=0.0)
    for series, (first, second) in stock_streams(data).values():
        assert [(w.start_date, w.end_date, w.tendency) for w in first] == [
            (w.start_date, w.end_date, w.tendency) for w in second
        ]
        both = build_cp_dataset(series, first, second, log_mode="--raw" not in flags)
        alone = build_cp_dataset(series, first, log_mode="--raw" not in flags)
        assert both.days.tolist() == alone.days.tolist()
        assert both.X.tobytes() == alone.X.tobytes()
        assert both.y.tolist() == alone.y.tolist()
    assert_prepare_matches_reference(data, flags)


@pytest.mark.parametrize("flags", [["--no-averaging"], ["--averaging", "--raw"]], ids=" ".join)
def test_a_stock_with_constant_prices_still_loses_its_repeated_rows(tmp_path, flags):
    data = synth_workspace(tmp_path)
    path = data / "quotes_SYN00.csv"
    old = load_quotes(path)
    flat = np.full(len(old), 50.0)
    dates = [_date(d) for d in old.days.tolist()]
    save_quotes(
        QuoteSeries(
            old.stockname, dates, open=flat, high=flat * 1.01, low=flat * 0.99, close=flat,
            volume=np.full(len(old), 1000.0),
        ),
        path,
    )
    series, streams = stock_streams(data)["SYN00"]
    ds = build_cp_dataset(series, *streams, log_mode="--raw" not in flags)
    # every day has the same features, so only one row per target survives
    assert len(ds) > 2
    assert len(ds.deduplicate()) == len(np.unique(ds.y))
    assert_prepare_matches_reference(data, flags)
