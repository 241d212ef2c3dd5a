"""Every reader of an input file, fed mutated real files: a value, or an error that names the file."""

from __future__ import annotations

import io
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlab import cli
from trendlab.errors import TrendlabError
from trendlab.features import TOF_FEATURE_NAMES, read_feature_csv, read_tof_meta
from trendlab.gbdt import load_model
from trendlab.labels import load_prep_report
from trendlab.market_data import load_quotes, merge_label_files
from trendlab.synth import load_truth

# Bytes that break a CSV, a number or a UTF-8 decode, and text that parses to
# a number no reader may accept quietly.
TOKENS = (b"\x00", b"\xff", b"nan", b"-inf", b"1e309", b'"', b"\r", b"\n", b",", b"-", b" ", b"{")
# A byte flip, a cut, a token put in, a byte dropped: each at a share of the file length.
EDITS = st.tuples(
    st.sampled_from(("flip", "cut", "insert", "drop")),
    st.integers(0, 2**16),
    st.integers(0, 255),
    st.sampled_from(TOKENS),
)

SYNTH_CONFIG = """[synth]
seed = 3
stocks = 2
days = 400
experts = D,G
jitter_days = 1
disagree_prob = 0.05
split_merge_prob = 0.0
trend_len = 40,100
flat_len = 20,60
drift = 0.0005,0.001
volatility = 0.01,0.02
"""
GRID = "[grid]\nmax_depth = 2,3\nlearning_rate = 0.1,0.3\nseed = 1,2\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One file of each kind a command reads, as synth, prepare and train write them."""
    root = tmp_path_factory.mktemp("readers")
    config, grid = root / "run.ini", root / "grid.ini"
    config.write_text(SYNTH_CONFIG, encoding="utf-8")
    grid.write_text(GRID, encoding="utf-8")
    data, prep, models = root / "data", root / "prep", root / "models"
    assert cli.main(["synth", "--config", str(config), "-o", str(data)]) == 0
    assert cli.main(["prepare", "--data", str(data), "-o", str(prep)]) == 0
    train = ["train", "tof", "--prepared", str(prep), "-o", str(models)]
    assert cli.main([*train, "--n-estimators", "3", "--max-depth", "2"]) == 0
    return {
        "quotes": data / "quotes_SYN00.csv",
        "labels": data / "labels_SYN00_D.csv",
        "truth": data / "truth.json",
        "features": prep / "tof_test.csv",
        "tof-meta": prep / "tof_test_meta.csv",
        "prep-report": prep / "prep_report.json",
        "model": models / "tof_model.json",
        "config": config,
        "grid": grid,
    }


def _main_reads(argv: list[str], path: Path) -> None:
    """Run ``main`` on ``argv`` without the command itself: exit 0, or a message naming ``path``."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0 or (code in (1, 2) and str(path) in err.getvalue()), err.getvalue()


def _read(kind: str, path: Path, rows: int) -> None:
    if kind == "quotes":
        load_quotes(path)
    elif kind == "labels":
        merge_label_files([path])
    elif kind == "truth":
        load_truth(path)
    elif kind == "features":
        read_feature_csv(path, TOF_FEATURE_NAMES)
    elif kind == "tof-meta":
        read_tof_meta(path, rows)
    elif kind == "prep-report":
        load_prep_report(path)
    elif kind == "model":
        load_model(path)
    elif kind == "config":
        with mock.patch.object(cli, "cmd_synth", lambda args: 0):
            _main_reads(["synth", "--config", str(path), "-o", str(path.parent / "out")], path)
    else:
        argv = ["gridsearch", "tof", "--prepared", str(path.parent), "--grid", str(path)]
        with mock.patch.object(cli, "cmd_gridsearch", lambda args: 0):
            _main_reads([*argv, "-o", str(path.parent / "out")], path)


def _mutate(data: bytes, edits) -> bytes:
    for kind, share, byte, token in edits:
        at = share * len(data) // (2**16 + 1)
        if kind == "flip":
            data = data[:at] + bytes([byte]) + data[at + 1 :]
        elif kind == "cut":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + token + data[at:]
        else:
            data = data[:at] + data[at + 1 :]
    return data


@pytest.mark.parametrize(
    "kind",
    ["quotes", "labels", "truth", "features", "tof-meta", "prep-report", "model", "config", "grid"],
)
def test_every_reader_gives_a_value_or_an_error_naming_the_file(files, tmp_path, kind):
    original = files[kind].read_bytes()
    rows = files["features"].read_text(encoding="utf-8").count("\n") - 1
    path = tmp_path / files[kind].name

    @settings(max_examples=200)
    @given(st.lists(EDITS, min_size=1, max_size=3))
    def mutated_file_reads(edits):
        path.write_bytes(_mutate(original, edits))
        try:
            _read(kind, path, rows)
        except TrendlabError as exc:
            assert str(path) in str(exc)

    _read(kind, files[kind], rows)  # the file as written reads
    mutated_file_reads()


def test_a_label_merge_across_files_gives_a_value_or_an_error_naming_one(files, tmp_path):
    # two files of one (stock, expert) that overlap by a third of the rows
    header, *rows = files["labels"].read_bytes().splitlines(keepends=True)
    third = len(rows) // 3
    parts = (header + b"".join(rows[: 2 * third]), header + b"".join(rows[third:]))
    paths = (tmp_path / "first" / "labels.csv", tmp_path / "second" / "labels.csv")
    for path, part in zip(paths, parts):
        path.parent.mkdir()
        path.write_bytes(part)
    (merged,) = merge_label_files(paths).values()  # the files as cut merge
    assert len(merged) == len(rows)

    @settings(max_examples=100)
    @given(st.sampled_from((0, 1)), st.lists(EDITS, min_size=1, max_size=3))
    def mutated_merge_reads(which, edits):
        paths[which].write_bytes(_mutate(parts[which], edits))
        paths[1 - which].write_bytes(parts[1 - which])
        try:
            merge_label_files(paths)
        except TrendlabError as exc:
            assert any(str(path) in str(exc) for path in paths), exc

    mutated_merge_reads()
