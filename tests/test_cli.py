"""Command surface: exit codes, outputs and report cross-checks."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from trendlab.cli import main
from trendlab.features import CP_FEATURE_NAMES, TOF_FEATURE_NAMES, read_feature_csv
from trendlab.labels import count_contradictions

SYNTH_ARGS = [
    "synth", "--seed", "11", "--stocks", "2", "--days", "900",
    "--trend-len", "40,100", "--flat-len", "20,60",
    "--jitter-days", "1", "--disagree-prob", "0.05", "--split-merge-prob", "0.0",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    data = root / "data"
    prep = root / "prep"
    models = root / "models"
    assert main(SYNTH_ARGS + ["-o", str(data)]) == 0
    assert main(["prepare", "--data", str(data), "-o", str(prep), "--trigger-correction"]) == 0
    for which, n in (("cp", "30"), ("tof", "40")):
        code = main(
            ["train", which, "--prepared", str(prep), "-o", str(models),
             "--n-estimators", n, "--max-depth", "3"]
        )
        assert code == 0
    return root


def test_synth_writes_expected_files(tmp_path):
    out = tmp_path / "d"
    assert main(SYNTH_ARGS + ["-o", str(out)]) == 0
    assert len(list(out.glob("quotes_*.csv"))) == 2
    assert len(list(out.glob("labels_*.csv"))) == 4
    assert (out / "truth.json").exists()


def test_synth_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SYNTH_ARGS + ["-o", str(a)]) == 0
    assert main(SYNTH_ARGS + ["-o", str(b)]) == 0
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes()


def test_synth_zero_stocks_is_usage_error(tmp_path):
    assert main(["synth", "--stocks", "0", "-o", str(tmp_path / "x")]) == 2


def test_unknown_subcommand_and_bad_which(tmp_path):
    assert main(["bogus"]) == 2
    assert main(["train", "xx", "--prepared", "p", "-o", str(tmp_path)]) == 2


def test_prepare_report_matches_recomputation(workdir):
    prep = workdir / "prep"
    report = json.loads((prep / "prep_report.json").read_text())
    X, y = read_feature_csv(prep / "cp_train.csv", CP_FEATURE_NAMES)
    neg, pos = int((y == 0).sum()), int((y == 1).sum())
    assert report["cp"]["n_train"] == len(y)
    assert report["cp"]["train_negatives"] == neg
    assert report["cp"]["train_positives"] == pos
    assert report["cp"]["balance"] == pytest.approx(neg / pos, abs=1e-12)
    stats = count_contradictions(X, y)
    assert report["cp"]["contradictions"]["n_contradicting_rows"] == stats.n_contradicting_rows
    assert report["cp"]["contradictions"]["pct_of_positives"] == pytest.approx(
        stats.pct_of_positives, abs=1e-9
    )
    X_tof, y_tof = read_feature_csv(prep / "tof_test.csv", TOF_FEATURE_NAMES)
    meta_lines = (prep / "tof_test_meta.csv").read_text().splitlines()
    assert len(meta_lines) == len(y_tof) + 1


def test_prepare_averaging_zeroes_contradictions(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "prep_avg"
    assert main(["prepare", "--data", str(data), "-o", str(out), "--averaging"]) == 0
    report = json.loads((out / "prep_report.json").read_text())
    assert report["cp"]["contradictions"]["n_contradicting_rows"] == 0
    assert report["averaging"] is True


def test_prepare_correction_never_increases_contradictions(workdir, tmp_path):
    data = workdir / "data"
    off = tmp_path / "prep_off"
    assert main(["prepare", "--data", str(data), "-o", str(off), "--no-trigger-correction"]) == 0
    on = json.loads((workdir / "prep" / "prep_report.json").read_text())
    raw = json.loads((off / "prep_report.json").read_text())
    assert (
        on["cp"]["contradictions"]["n_contradicting_rows"]
        <= raw["cp"]["contradictions"]["n_contradicting_rows"]
    )


def test_prepare_expert_filter(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "prep_d"
    assert main(["prepare", "--data", str(data), "-o", str(out), "--experts", "D"]) == 0
    report = json.loads((out / "prep_report.json").read_text())
    assert report["experts"] == ["D"]
    assert main(["prepare", "--data", str(data), "-o", str(out), "--experts", "NOPE"]) == 1


def test_train_auto_balance_matches_prep_report(workdir):
    prep = workdir / "prep"
    models = workdir / "models"
    report = json.loads((prep / "prep_report.json").read_text())
    metrics = json.loads((models / "cp_metrics.json").read_text())
    assert metrics["params"]["scale_pos_weight"] == pytest.approx(
        report["cp"]["balance"], abs=1e-12
    )
    assert (models / "cp_model.json").exists()
    assert set(metrics["train"]) == set(metrics["test"])


def test_gridsearch_end_to_end(workdir, tmp_path):
    prep = workdir / "prep"
    grid_file = tmp_path / "grid.ini"
    grid_file.write_text("[grid]\nmax_depth = 1,2\nn_estimators = 2,4\n")
    out = tmp_path / "search"
    code = main(
        ["gridsearch", "tof", "--prepared", str(prep), "--grid", str(grid_file),
         "-o", str(out), "--folds", "2", "--seed", "4"]
    )
    assert code == 0
    lines = (out / "search_tof.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    best = json.loads((out / "search_tof_best.json").read_text())
    assert set(best["best_params"]) == {"max_depth", "n_estimators"}

    empty = tmp_path / "empty.ini"
    empty.write_text("[grid]\n")
    assert main(
        ["gridsearch", "tof", "--prepared", str(prep), "--grid", str(empty), "-o", str(out)]
    ) == 2
    assert main(
        ["gridsearch", "tof", "--prepared", str(prep), "--grid", str(grid_file),
         "-o", str(out), "--mode", "randomized"]
    ) == 2  # randomized without --draws

    def scores_without_timings(path: Path) -> list[list[str]]:
        lines = path.read_text().splitlines()
        return [line.split(",")[:-1] for line in lines]  # drop the fit_seconds column

    randomized = main(
        ["gridsearch", "tof", "--prepared", str(prep), "--grid", str(grid_file),
         "-o", str(tmp_path / "s2"), "--folds", "2", "--mode", "randomized",
         "--draws", "2", "--seed", "4"]
    )
    assert randomized == 0
    assert main(
        ["gridsearch", "tof", "--prepared", str(prep), "--grid", str(grid_file),
         "-o", str(tmp_path / "s3"), "--folds", "2", "--mode", "randomized",
         "--draws", "2", "--seed", "4"]
    ) == 0
    assert scores_without_timings(tmp_path / "s3" / "search_tof.csv") == scores_without_timings(
        tmp_path / "s2" / "search_tof.csv"
    )


def test_backtest_outputs_and_threshold_sweep(workdir, tmp_path):
    data = workdir / "data"
    prep = workdir / "prep"
    models = workdir / "models"
    out = tmp_path / "reports"
    code = main(
        ["backtest", "--data", str(data), "--prepared", str(prep),
         "--models", str(models), "-o", str(out), "--cp-threshold", "0.5,0.65,0.85"]
    )
    assert code == 0
    for threshold in ("0.50", "0.65", "0.85"):
        doc = json.loads((out / f"backtest_report_t{threshold}.json").read_text())
        for key in ("numStocks", "Profit", "Days_in", "Times_in", "DayProfit",
                    "YearProfit", "YearProfit_avg", "per_stock"):
            assert key in doc
        for row in doc["per_stock"]:
            assert row["Profit"] == pytest.approx(
                row["Profit_lng"] + row["Profit_sht"], abs=1e-12
            )
    assert (out / "fraction_accuracy.csv").exists()
    assert (out / "baseline_report.json").exists()
    traces = list(out.glob("trace_*_t0.50.csv"))
    assert len(traces) == 2


def test_backtest_missing_model_names_path(workdir, tmp_path, capsys):
    data = workdir / "data"
    out = tmp_path / "r"
    missing = tmp_path / "nomodels"
    missing.mkdir()
    code = main(["backtest", "--data", str(data), "--models", str(missing), "-o", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "cp_model.json" in err
    assert str(missing) in err


def test_backtest_rejects_corrupted_model_file(workdir, tmp_path, capsys):
    models = tmp_path / "models"
    models.mkdir()
    doc = json.loads((workdir / "models" / "cp_model.json").read_text())
    doc["trees"][0]["feature"] = len(CP_FEATURE_NAMES)
    (models / "cp_model.json").write_text(json.dumps(doc))
    (models / "tof_model.json").write_text((workdir / "models" / "tof_model.json").read_text())
    code = main(
        ["backtest", "--data", str(workdir / "data"), "--models", str(models),
         "-o", str(tmp_path / "r")]
    )
    assert code == 1
    assert "feature 22" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["prepare", "--seed", "1"], 2),
        (["backtest", "--seed", "1"], 2),
        (["backtest", "--config", "run.ini"], 2),
        (["baseline", "--seed", "1"], 2),
        (["baseline", "--config", "run.ini"], 2),
        (["prepare"], 0),
        (["baseline"], 0),
    ],
)
def test_commands_reject_options_they_do_not_read(workdir, tmp_path, argv, code):
    data = str(workdir / "data")
    assert main([*argv, "--data", data, "-o", str(tmp_path / "out")]) == code


def test_backtest_oracle_profit_matches_ledger(tmp_path):
    from datetime import date as Date

    from trendlab.market_data import load_quotes
    from trendlab.pipeline import clip_windows_to_span
    from trendlab.synth import lagged_regime_ledger

    data = tmp_path / "data"
    out = tmp_path / "oracle"
    # low noise so six-day prefixes always carry the regime's slope sign
    assert main(
        ["synth", "--seed", "77", "--stocks", "2", "--days", "900",
         "--trend-len", "40,100", "--flat-len", "20,60",
         "--drift", "0.003,0.005", "--volatility", "0.0005,0.001",
         "-o", str(data)]
    ) == 0
    split = "2011-06-01"
    assert main(
        ["backtest", "--data", str(data), "--oracle", "-o", str(out), "--split-date", split]
    ) == 0
    doc = json.loads((out / "backtest_report_t0.50.json").read_text())
    truth = json.loads((data / "truth.json").read_text())

    from trendlab.labels import ExpertWindow

    expected = 0.0
    for stock, entry in truth["stocks"].items():
        series = load_quotes(data / f"quotes_{stock}.csv")
        idx = next(i for i, d in enumerate(series.dates) if d >= Date(2011, 6, 1))
        sliced = series[idx:]
        windows = [
            ExpertWindow(
                stockname=stock, expert="truth",
                start_date=Date.fromisoformat(w["start"]),
                end_date=Date.fromisoformat(w["end"]),
                tendency=w["tendency"], direction=int(w["direction"]),
            )
            for w in entry["windows"]
        ]
        clipped = clip_windows_to_span(windows, sliced, start_date=sliced.dates[0])
        expected += sum(e.profit for e in lagged_regime_ledger(clipped, sliced, entry_lag=5))
    assert doc["Times_in"] > 0
    assert doc["Profit"] == pytest.approx(expected, abs=1e-9)


def test_baseline_command(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "base"
    assert main(["baseline", "--data", str(data), "-o", str(out)]) == 0
    doc = json.loads((out / "baseline_report.json").read_text())
    assert "truth" in doc["experts"]
    assert "D" in doc["experts"]
    assert "Average" in doc["experts"]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nstocks = 1\ndays = 400\ntrend_len = 40,80\nflat_len = 20,40\n")
    out = tmp_path / "d"
    assert main(["synth", "--config", str(cfg), "--seed", "3", "-o", str(out)]) == 0
    assert len(list(out.glob("quotes_*.csv"))) == 1
    # CLI flag overrides the config value
    out2 = tmp_path / "d2"
    assert main(
        ["synth", "--config", str(cfg), "--seed", "3", "--stocks", "2", "-o", str(out2)]
    ) == 0
    assert len(list(out2.glob("quotes_*.csv"))) == 2
    assert main(["synth", "--config", str(tmp_path / "nope.ini"), "-o", str(out)]) == 1
