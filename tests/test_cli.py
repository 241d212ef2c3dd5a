"""Command surface: exit codes, outputs and report cross-checks."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trendlab import cli
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


def test_module_entry_point_runs_without_import_warning():
    # the package must not import trendlab.cli itself, or runpy warns that
    # the module was already in sys.modules when run as __main__
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "trendlab.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


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

    def scores_without_timings(path: Path) -> list[list[str]]:
        lines = path.read_text().splitlines()
        return [line.split(",")[:-1] for line in lines]  # drop the fit_seconds column

    randomized = main(
        ["gridsearch", "tof", "--prepared", str(prep), "--grid", str(grid_file),
         "-o", str(tmp_path / "s2"), "--folds", "2", "--draws", "2", "--seed", "4"]
    )
    assert randomized == 0
    assert len(scores_without_timings(tmp_path / "s2" / "search_tof.csv")) == 1 + 2
    assert main(
        ["gridsearch", "tof", "--prepared", str(prep), "--grid", str(grid_file),
         "-o", str(tmp_path / "s3"), "--folds", "2", "--draws", "2", "--seed", "4"]
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
    assert not (out / "baseline_report.json").exists()  # the baseline command writes it
    traces = list(out.glob("trace_*_t0.50.csv"))
    assert len(traces) == 2


@pytest.fixture(scope="module")
def short_stock_data(workdir, tmp_path_factory):
    """The workdir universe plus a stock whose quotes end before the test span."""
    data = tmp_path_factory.mktemp("shortstock")
    for path in (workdir / "data").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    lines = (workdir / "data" / "quotes_SYN00.csv").read_bytes().splitlines(keepends=True)
    (data / "quotes_SHORT.csv").write_bytes(b"".join(lines[:301]).replace(b"SYN00", b"SHORT"))
    return data


def _backtest_argv(workdir, data, source: str) -> list[str]:
    if source == "oracle":
        return ["backtest", "--data", str(data), "--prepared", str(workdir / "prep"), "--oracle"]
    return ["backtest", "--data", str(data), "--prepared", str(workdir / "prep"),
            "--models", str(workdir / "models")]


@pytest.mark.parametrize("source", ["models", "oracle"])
def test_backtest_sweep_matches_single_threshold_runs(workdir, short_stock_data, tmp_path, source):
    argv = _backtest_argv(workdir, short_stock_data, source)
    assert main([*argv, "--cp-threshold", "0.3,0.5,0.8", "-o", str(tmp_path / "sweep")]) == 0
    single = {}
    for threshold in ("0.3", "0.5", "0.8"):
        out = tmp_path / threshold
        assert main([*argv, "--cp-threshold", threshold, "-o", str(out)]) == 0
        single.update((p.name, p.read_bytes()) for p in out.iterdir())
    swept = {p.name: p.read_bytes() for p in (tmp_path / "sweep").iterdir()}
    assert len(swept) == (3 * 2 + 3 + (source == "models"))  # traces, reports, fractions
    assert swept == single
    for threshold in ("0.30", "0.50", "0.80"):
        doc = json.loads(swept[f"backtest_report_t{threshold}.json"])
        assert doc["flags"].count("skipped_short_test_span:SHORT") == 1
        assert doc["numStocks"] == 2


def test_backtest_scores_each_cp_row_once(workdir, short_stock_data, tmp_path, monkeypatch):
    from bisect import bisect_left
    from datetime import date as Date

    from trendlab import gbdt
    from trendlab.features import CP_CONTEXT
    from trendlab.market_data import load_quotes

    cp_rows = []
    predict_proba = gbdt.predict_proba

    def counting(model, X):
        if X.shape[1] == len(CP_FEATURE_NAMES):
            cp_rows.append(len(X))
        return predict_proba(model, X)

    monkeypatch.setattr(gbdt, "predict_proba", counting)
    argv = _backtest_argv(workdir, short_stock_data, "models")
    assert main([*argv, "--cp-threshold", "0.3,0.5,0.8", "-o", str(tmp_path / "r")]) == 0
    split = Date.fromisoformat(
        json.loads((workdir / "prep" / "prep_report.json").read_text())["split_date"]
    )
    expected = []
    for path in sorted(short_stock_data.glob("quotes_*.csv")):
        dates = load_quotes(path).dates
        n_test = len(dates) - bisect_left(dates, split)
        if n_test > 2 * CP_CONTEXT:
            expected.append(n_test - 2 * CP_CONTEXT)
    assert len(expected) == 2  # SHORT has no test span
    assert cp_rows == [sum(expected)]  # one call over every stock's rows


@pytest.mark.parametrize("copies", [0, 3])
def test_a_models_backtest_calls_predict_proba_three_times_whatever_the_stock_count(
    workdir, tmp_path, monkeypatch, copies
):
    from trendlab import gbdt

    data = tmp_path / "data"
    data.mkdir()
    for path in (workdir / "data").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    quotes = (workdir / "data" / "quotes_SYN00.csv").read_bytes()
    for k in range(copies):
        (data / f"quotes_CPY{k}.csv").write_bytes(quotes.replace(b"SYN00", f"CPY{k}".encode()))
    widths = []
    predict_proba = gbdt.predict_proba

    def counting(model, X):
        widths.append(X.shape[1])
        return predict_proba(model, X)

    monkeypatch.setattr(gbdt, "predict_proba", counting)
    argv = _backtest_argv(workdir, data, "models")
    out = tmp_path / "r"
    assert main([*argv, "--cp-threshold", "0.3,0.5,0.8", "-o", str(out)]) == 0
    assert len(list(out.glob("trace_*.csv"))) == 3 * (2 + copies)
    # every stock's cp rows, every stock's trend/flat prefixes, the fraction-accuracy rows
    assert widths == [len(CP_FEATURE_NAMES), len(TOF_FEATURE_NAMES), len(TOF_FEATURE_NAMES)]


@pytest.mark.parametrize("source", ["models", "oracle"])
def test_backtest_writes_the_outputs_of_each_stock_scored_alone(
    workdir, short_stock_data, tmp_path, source
):
    from trendlab import gbdt, pipeline, synth
    from trendlab.labels import load_prep_report
    from trendlab.market_data import load_quotes

    out = tmp_path / "r"
    argv = _backtest_argv(workdir, short_stock_data, source)
    assert main([*argv, "--cp-threshold", "0.3,0.5,0.8", "-o", str(out)]) == 0
    prep = load_prep_report(workdir / "prep" / "prep_report.json")
    quotes = [load_quotes(path) for path in short_stock_data.glob("quotes_*.csv")]
    spans, _ = pipeline.backtest_spans({q.stockname: q for q in quotes}, prep["split_date"])
    configs = [pipeline.PipelineConfig(cp_threshold=t) for t in (0.3, 0.5, 0.8)]
    truth = synth.load_truth(short_stock_data / "truth.json")
    stats_by_threshold = {cfg: [] for cfg in configs}
    for stock, span in spans.items():
        if source == "oracle":
            cp, tof = pipeline.oracle_cp_scorer(truth), pipeline.oracle_tof_scorer(truth)
        else:
            cp, tof = (gbdt.load_model(workdir / "models" / f"{w}_model.json") for w in ("cp", "tof"))
        scores = pipeline.score_stocks({stock: span}, cp, tof, configs, prep["log_mode"])[stock]
        for cfg in configs:
            trace, stats = pipeline.run_pipeline(scores, cfg)
            trace.to_csv(tmp_path / "alone.csv")
            name = f"trace_{stock}_t{cfg.cp_threshold:.2f}.csv"
            assert (out / name).read_bytes() == (tmp_path / "alone.csv").read_bytes(), name
            stats_by_threshold[cfg].append(stats.to_dict())
    for cfg, stats in stats_by_threshold.items():
        doc = json.loads((out / f"backtest_report_t{cfg.cp_threshold:.2f}.json").read_text())
        assert doc["per_stock"] == stats


def test_backtest_builds_the_cp_features_once_per_stock(workdir, tmp_path, monkeypatch):
    from trendlab import pipeline

    stocks = []
    cp_feature_matrix = pipeline.cp_feature_matrix

    def counting(series, *args, **kwargs):
        stocks.append(series.stockname)
        return cp_feature_matrix(series, *args, **kwargs)

    monkeypatch.setattr(pipeline, "cp_feature_matrix", counting)
    argv = _backtest_argv(workdir, workdir / "data", "models")
    assert main([*argv, "--cp-threshold", "0.3,0.5,0.8", "-o", str(tmp_path / "r")]) == 0
    assert stocks == ["SYN00", "SYN01"]


def test_backtest_formats_each_stocks_trace_text_once(workdir, tmp_path, monkeypatch):
    from trendlab import pipeline

    formatted = []
    for name in ("_lead_text", "_answer_text"):

        def counting(*args, _name=name, _fn=getattr(pipeline, name)):
            formatted.append(_name)
            return _fn(*args)

        monkeypatch.setattr(pipeline, name, counting)
    leads: dict[str, list] = {}
    to_csv = pipeline.SignalTrace.to_csv

    def recording(trace, path):
        leads.setdefault(trace.stockname, []).append(trace.lead)
        return to_csv(trace, path)

    monkeypatch.setattr(pipeline.SignalTrace, "to_csv", recording)
    argv = _backtest_argv(workdir, workdir / "data", "models")
    assert main([*argv, "--cp-threshold", "0.3,0.5,0.8", "-o", str(tmp_path / "r")]) == 0
    # once per stock: the dates and cp answers (whose cells the lead formats),
    # then, after every stock's prefixes are scored, the trend/flat answers of
    # its distinct prefixes, whatever the threshold count
    assert formatted == ["_lead_text", "_answer_text"] * 2 + ["_answer_text"] * 2
    assert sorted(leads) == ["SYN00", "SYN01"]
    for traces in leads.values():
        assert len(traces) == 3 and all(lead is traces[0] for lead in traces)


def test_backtest_scores_in_the_prepared_feature_space(workdir, tmp_path, monkeypatch):
    from trendlab import pipeline

    prep = _copy_prepared(workdir, tmp_path / "prep")
    report = prep / "prep_report.json"
    report.write_text(report.read_text().replace('"log_mode": true', '"log_mode": false'))
    spaces = []
    cp_feature_matrix = pipeline.cp_feature_matrix

    def recording(series, log_mode):
        spaces.append(log_mode)
        return cp_feature_matrix(series, log_mode=log_mode)

    monkeypatch.setattr(pipeline, "cp_feature_matrix", recording)
    argv = ["backtest", "--data", str(workdir / "data"), "--prepared", str(prep),
            "--models", str(workdir / "models"), "-o", str(tmp_path / "r")]
    assert main(argv) == 0
    assert spaces == [False, False]


def test_backtest_missing_model_names_path(workdir, tmp_path, capsys):
    data = workdir / "data"
    out = tmp_path / "r"
    missing = tmp_path / "nomodels"
    missing.mkdir()
    code = main(
        ["backtest", "--data", str(data), "--prepared", str(workdir / "prep"),
         "--models", str(missing), "-o", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "cp_model.json" in err
    assert str(missing) in err


@pytest.mark.parametrize(
    "models, code", [(None, 2), ("nomodels", 1)], ids=["no-models-flag", "missing-model-file"]
)
def test_backtest_fails_before_creating_out(workdir, tmp_path, models, code):
    argv = ["backtest", "--data", str(workdir / "data"), "--prepared", str(workdir / "prep"),
            "-o", str(tmp_path / "out")]
    if models is not None:
        (tmp_path / models).mkdir()
        argv += ["--models", str(tmp_path / models)]
    assert main(argv) == code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["prepare", "--data", "{missing}"],
        ["baseline", "--data", "{missing}"],
        # the data is read and split before the output directory is made
        ["prepare", "--data", "{data}", "--split-date", "1990-01-02"],
        ["prepare", "--data", "{data}", "--experts", "NOPE"],
        ["baseline", "--data", "{data}", "--experts", "NOPE"],
    ],
    ids=["prepare-no-data", "baseline-no-data", "prepare-degenerate-split", "prepare-no-expert",
         "baseline-no-expert"],
)
def test_prepare_and_baseline_fail_before_creating_out(workdir, tmp_path, argv):
    paths = {"missing": str(tmp_path / "missing"), "data": str(workdir / "data")}
    assert main([a.format(**paths) for a in argv] + ["-o", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["prepare", "baseline"])
def test_an_expert_no_label_file_holds_exits_1_naming_it_and_the_data_dir(
    workdir, tmp_path, capsys, command
):
    data = workdir / "data"
    argv = [command, "--data", str(data), "--experts", "D,Z", "-o", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {data}: no labels_*.csv file holds expert Z" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_baseline_without_labels_or_truth_names_the_data_dir(workdir, tmp_path, capsys):
    data = tmp_path / "quotes_only"
    data.mkdir()
    quotes = "quotes_SYN00.csv"
    (data / quotes).write_bytes((workdir / "data" / quotes).read_bytes())
    assert main(["baseline", "--data", str(data), "-o", str(tmp_path / "out")]) == 1
    assert f"no labels_*.csv files and no truth.json windows in {data}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _swap_models(models: Path) -> Path:
    cp, tof = models / "cp_model.json", models / "tof_model.json"
    cp_bytes = cp.read_bytes()
    cp.write_bytes(tof.read_bytes())
    tof.write_bytes(cp_bytes)
    return cp


def _rename_tof_features(models: Path) -> Path:
    tof = models / "tof_model.json"
    doc = json.loads(tof.read_text())
    doc["feature_names"] = [f"f{i}" for i in range(len(TOF_FEATURE_NAMES))]
    tof.write_text(json.dumps(doc))
    return tof


@pytest.mark.parametrize(
    "edit, message",
    [(_swap_models, "not a cp model: it takes 5 features ['reg_close',"),
     (_rename_tof_features, "not a tof model: it takes 5 features ['f0',")],
    ids=["swapped", "foreign-feature-names"],
)
def test_backtest_rejects_a_model_of_another_stage_naming_it(
    workdir, tmp_path, capsys, edit, message
):
    models = tmp_path / "models"
    models.mkdir()
    for path in (workdir / "models").glob("*_model.json"):
        (models / path.name).write_bytes(path.read_bytes())
    path = edit(models)
    argv = ["backtest", "--data", str(workdir / "data"), "--prepared", str(workdir / "prep"),
            "--models", str(models), "-o", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _copy_prepared(workdir, prep: Path) -> Path:
    prep.mkdir()
    for path in (workdir / "prep").iterdir():
        (prep / path.name).write_bytes(path.read_bytes())
    return prep


@pytest.mark.parametrize(
    "source", [["--oracle"], ["--models", "{models}"]], ids=["oracle", "models"]
)
def test_backtest_without_prepared_is_a_usage_error(workdir, tmp_path, capsys, source):
    source = [a.format(models=workdir / "models") for a in source]
    argv = ["backtest", "--data", str(workdir / "data"), *source, "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "the following arguments are required: --prepared" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["prep_report.json", "tof_test.csv", "tof_test_meta.csv"])
def test_backtest_names_a_missing_prepared_file(workdir, tmp_path, capsys, missing):
    prep = _copy_prepared(workdir, tmp_path / "prep")
    (prep / missing).unlink()
    code = main(
        ["backtest", "--data", str(workdir / "data"), "--prepared", str(prep),
         "--models", str(workdir / "models"), "-o", str(tmp_path / "r")]
    )
    assert code == 1
    assert str(prep / missing) in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_backtest_oracle_reads_only_the_prep_report(workdir, tmp_path):
    prep = tmp_path / "prep"
    prep.mkdir()
    (prep / "prep_report.json").write_bytes((workdir / "prep" / "prep_report.json").read_bytes())
    assert main(
        ["backtest", "--data", str(workdir / "data"), "--prepared", str(prep), "--oracle",
         "-o", str(tmp_path / "r")]
    ) == 0
    assert (tmp_path / "r" / "backtest_report_t0.50.json").exists()


def _without(key: str):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("train", _without("cp"), "cp must hold a balance and a balance_str"),
        ("train", lambda text: text[:-2], "not a JSON object with a split_date YYYY-MM-DD"),
        ("backtest", _without("log_mode"), "log_mode must be true or false"),
        ("backtest", lambda text: text.replace('"split_date": "', '"split_date": "x'),
         "not a JSON object with a split_date YYYY-MM-DD"),
        ("baseline", lambda text: text.replace('"split_date": "', '"split_date": "x'),
         "not a JSON object with a split_date YYYY-MM-DD"),
    ],
    ids=["train-no-cp", "train-not-json", "backtest-no-log-mode", "backtest-bad-split-date",
         "baseline-bad-split-date"],
)
def test_malformed_prep_report_exits_1_naming_it(workdir, tmp_path, capsys, command, edit, message):
    prep = _copy_prepared(workdir, tmp_path / "prep")
    report = prep / "prep_report.json"
    report.write_text(edit(report.read_text()))
    argv = {
        "train": ["train", "cp", "--prepared", str(prep), "--n-estimators", "2"],
        "backtest": ["backtest", "--data", str(workdir / "data"), "--prepared", str(prep),
                     "--models", str(workdir / "models")],
        "baseline": ["baseline", "--data", str(workdir / "data"), "--prepared", str(prep)],
    }[command]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    assert f"{report}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit",
    [lambda text: text.rsplit("\n", 2)[0] + "\n", lambda text: "day" + text[4:]],
    ids=["a-row-short", "header"],
)
def test_backtest_rejects_a_bad_tof_test_meta_file(workdir, tmp_path, capsys, edit):
    prep = _copy_prepared(workdir, tmp_path / "prep")
    meta = prep / "tof_test_meta.csv"
    meta.write_text(edit(meta.read_text()))
    code = main(
        ["backtest", "--data", str(workdir / "data"), "--prepared", str(prep),
         "--models", str(workdir / "models"), "-o", str(tmp_path / "r")]
    )
    assert code == 1
    assert str(meta) in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# Bytes that are not UTF-8 text or not CSV: a 0xff byte, a NUL (a csv.Error on
# Python 3.10) and a field over the csv module's size limit.
BAD_CELLS = {"byte-0xff": b"\xff", "nul": b"\x00", "long-field": b"9" * 140_000}


@pytest.mark.parametrize("cell", BAD_CELLS.values(), ids=BAD_CELLS.keys())
@pytest.mark.parametrize(
    "command, name",
    [("baseline", "quotes_SYN00.csv"), ("prepare", "labels_SYN00_D.csv"),
     ("backtest", "tof_test_meta.csv")],
)
def test_a_csv_file_that_is_not_utf_8_or_not_csv_exits_1_naming_it(
    workdir, tmp_path, capsys, command, name, cell
):
    data, prep = tmp_path / "data", _copy_prepared(workdir, tmp_path / "prep")
    data.mkdir()
    for path in (workdir / "data").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    path = (prep if command == "backtest" else data) / name
    lines = path.read_bytes().split(b"\n")
    lines[3] = cell + lines[3]  # in front of a row's date
    path.write_bytes(b"\n".join(lines))
    argv = {
        "baseline": ["baseline", "--data", str(data)],
        "prepare": ["prepare", "--data", str(data)],
        "backtest": ["backtest", "--data", str(data), "--prepared", str(prep),
                     "--models", str(workdir / "models")],
    }[command]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, cell, command",
    [("tof_test.csv", "nan", "backtest"), ("tof_train.csv", "inf", "train")],
    ids=["nan-in-test-rows", "inf-in-train-rows"],
)
def test_a_non_finite_feature_exits_1_naming_its_file_and_line(
    workdir, tmp_path, capsys, name, cell, command
):
    prep = _copy_prepared(workdir, tmp_path / "prep")
    path = prep / name
    lines = path.read_text().split("\n")
    lines[3] = cell + lines[3][lines[3].index(","):]
    path.write_text("\n".join(lines))
    argv = {
        "backtest": ["backtest", "--data", str(workdir / "data"), "--prepared", str(prep),
                     "--models", str(workdir / "models")],
        "train": ["train", "tof", "--prepared", str(prep)],
    }[command]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    assert f"{path}:4: reg_close is {cell}, not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_backtest_rejects_corrupted_model_file(workdir, tmp_path, capsys):
    models = tmp_path / "models"
    models.mkdir()
    doc = json.loads((workdir / "models" / "cp_model.json").read_text())
    doc["trees"][0]["feature"] = len(CP_FEATURE_NAMES)
    (models / "cp_model.json").write_text(json.dumps(doc))
    (models / "tof_model.json").write_text((workdir / "models" / "tof_model.json").read_text())
    code = main(
        ["backtest", "--data", str(workdir / "data"), "--prepared", str(workdir / "prep"),
         "--models", str(models), "-o", str(tmp_path / "r")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "feature 22" in err
    assert f"{models / 'cp_model.json'}: " in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "not JSON"),
        ("[1]", "not a JSON object"),
        ('{"format": "other"}', "not a trendlab.gbdt document"),
    ],
    ids=["not-json", "not-an-object", "foreign-document"],
)
def test_backtest_names_a_model_file_that_holds_no_model(workdir, tmp_path, capsys, text, message):
    models = tmp_path / "models"
    models.mkdir()
    (models / "cp_model.json").write_text(text)
    (models / "tof_model.json").write_bytes((workdir / "models" / "tof_model.json").read_bytes())
    code = main(
        ["backtest", "--data", str(workdir / "data"), "--prepared", str(workdir / "prep"),
         "--models", str(models), "-o", str(tmp_path / "r")]
    )
    assert code == 1
    assert f"error: {models / 'cp_model.json'}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["prepare", "--seed", "1"], 2),
        (["backtest", "--prepared", "{prep}", "--oracle", "--seed", "1"], 2),
        (["backtest", "--prepared", "{prep}", "--oracle", "--config", "run.ini"], 2),
        (["baseline", "--seed", "1"], 2),
        (["baseline", "--config", "run.ini"], 2),
        (["prepare"], 0),
        (["baseline"], 0),
        (["backtest", "--prepared", "{prep}", "--oracle", "--experts", "D"], 2),
        # backtest takes the split date and log mode from --prepared alone
        (["backtest", "--prepared", "{prep}", "--oracle", "--split-date", "2012-01-02"], 2),
        (["backtest", "--prepared", "{prep}", "--oracle", "--log-mode"], 2),
        (["backtest", "--prepared", "{prep}", "--oracle", "--raw"], 2),
    ],
)
def test_commands_reject_options_they_do_not_read(workdir, tmp_path, argv, code):
    argv = [a.format(prep=workdir / "prep") for a in argv]
    data = str(workdir / "data")
    assert main([*argv, "--data", data, "-o", str(tmp_path / "out")]) == code


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("name", ["cp_model.json", "prep_report.json", "truth.json"])
def test_deeply_nested_json_exits_1_naming_the_file(workdir, tmp_path, capsys, name):
    data = _copy_data(workdir, tmp_path / "data")
    prep = _copy_prepared(workdir, tmp_path / "prep")
    models = tmp_path / "models"
    models.mkdir()
    for path in (workdir / "models").glob("*_model.json"):
        (models / path.name).write_bytes(path.read_bytes())
    path = {"cp_model.json": models, "prep_report.json": prep, "truth.json": data}[name] / name
    path.write_text(DEEP_JSON)
    argv = {
        "cp_model.json": ["backtest", "--data", str(data), "--prepared", str(prep),
                          "--models", str(models)],
        "prep_report.json": ["train", "cp", "--prepared", str(prep), "--n-estimators", "2"],
        "truth.json": ["baseline", "--data", str(data)],
    }[name]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    assert f"error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_backtest_oracle_profit_matches_ledger(tmp_path):
    from datetime import date as Date

    from trendlab.market_data import load_quotes
    from trendlab.pipeline import clip_windows_to_span
    from reference_ledger import lagged_regime_ledger

    data = tmp_path / "data"
    out = tmp_path / "oracle"
    # low noise so six-day prefixes always carry the regime's slope sign
    assert main(
        ["synth", "--seed", "77", "--stocks", "2", "--days", "900",
         "--trend-len", "40,100", "--flat-len", "20,60",
         "--drift", "0.003,0.005", "--volatility", "0.0005,0.001",
         "-o", str(data)]
    ) == 0
    prep = tmp_path / "prep"
    assert main(
        ["prepare", "--data", str(data), "-o", str(prep), "--split-date", "2011-06-01"]
    ) == 0
    assert main(
        ["backtest", "--data", str(data), "--prepared", str(prep), "--oracle", "-o", str(out)]
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
        clipped = clip_windows_to_span(windows, sliced)
        expected += sum(e.profit for e in lagged_regime_ledger(clipped, sliced, entry_lag=5))
    assert doc["Times_in"] > 0
    assert doc["Profit"] == pytest.approx(expected, abs=1e-9)


def _drop_dates(path: Path, keep) -> set[str]:
    """Rewrite a CSV file without the rows whose first field ``keep`` rejects; the dates kept."""
    header, *rows = path.read_text().splitlines(keepends=True)
    rows = [r for r in rows if keep(r.split(",", 1)[0])]
    path.write_text(header + "".join(rows))
    return {r.split(",", 1)[0] for r in rows}


@pytest.mark.parametrize("frac", [None, "0.35", "0.6"])
def test_the_split_fraction_counts_the_dates_of_every_calendar(tmp_path, frac):
    data = tmp_path / "data"
    assert main(SYNTH_ARGS + ["-o", str(data)]) == 0
    (data / "truth.json").unlink()  # the true windows run over days a calendar drops
    # SYN00 trades only three days in four from row 100 on; SYN01 starts 50 days late
    lines = (data / "quotes_SYN00.csv").read_text().splitlines()[1:]
    all_dates = [line.split(",", 1)[0] for line in lines]
    gaps = set(all_dates[100::4])
    late = set(all_dates[:50])
    calendars = set()
    for stock, dropped in (("SYN00", gaps), ("SYN01", late)):
        keep = lambda d, dropped=dropped: d not in dropped  # noqa: E731
        calendars |= _drop_dates(data / f"quotes_{stock}.csv", keep)
        for labels in data.glob(f"labels_{stock}_*.csv"):
            _drop_dates(labels, keep)
    # the date the fraction picked before the calendar became one int64 column
    dates = sorted(calendars)
    want = dates[min(len(dates) - 1, int(len(dates) * float(frac or cli.DEFAULT_SPLIT_FRAC)))]
    split = [] if frac is None else ["--split-frac", frac]
    assert main(["prepare", "--data", str(data), "-o", str(tmp_path / "prep"), *split]) == 0
    assert main(["baseline", "--data", str(data), "-o", str(tmp_path / "base"), *split]) == 0
    for report in ("prep/prep_report.json", "base/baseline_report.json"):
        assert json.loads((tmp_path / report).read_text())["split_date"] == want


def test_baseline_command(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "base"
    assert main(["baseline", "--data", str(data), "-o", str(out)]) == 0
    doc = json.loads((out / "baseline_report.json").read_text())
    assert "truth" in doc["experts"]
    assert "D" in doc["experts"]
    assert "Average" in doc["experts"]


def _copy_data(workdir, data: Path) -> Path:
    data.mkdir()
    for path in (workdir / "data").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    return data


def _prepared_split(workdir) -> str:
    return json.loads((workdir / "prep" / "prep_report.json").read_text())["split_date"]


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


def test_baseline_and_oracle_backtest_count_the_same_datapoints(workdir, tmp_path):
    split = _prepared_split(workdir)
    data = str(workdir / "data")
    assert main(["baseline", "--data", data, "--split-date", split, "-o", str(tmp_path / "b")]) == 0
    assert main([*_backtest_argv(workdir, workdir / "data", "oracle"), "-o", str(tmp_path / "o")]) == 0
    baseline = _report(tmp_path / "b" / "baseline_report.json")
    backtest = _report(tmp_path / "o" / "backtest_report_t0.50.json")
    assert baseline["split_date"] == split
    for name in ("truth", "D", "G", "Average"):
        assert baseline["experts"][name]["numDatapoints"] == backtest["numDatapoints"]


def test_baseline_prepared_is_baseline_at_the_prepared_split_date(workdir, tmp_path):
    data, prep = str(workdir / "data"), str(workdir / "prep")
    argv = ["baseline", "--data", data, "--split-date", _prepared_split(workdir)]
    assert main([*argv, "-o", str(tmp_path / "date")]) == 0
    assert main(["baseline", "--data", data, "--prepared", prep, "-o", str(tmp_path / "prep")]) == 0
    want = (tmp_path / "date" / "baseline_report.json").read_bytes()
    assert (tmp_path / "prep" / "baseline_report.json").read_bytes() == want


def test_baseline_counts_the_whole_span_when_labels_stop_early(workdir, tmp_path):
    data = _copy_data(workdir, tmp_path / "data")
    labels = data / "labels_SYN00_D.csv"
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join(lines[:-60]))  # D stops labelling SYN00 60 days early
    out = tmp_path / "b"
    split = _prepared_split(workdir)
    assert main(["baseline", "--data", str(data), "--split-date", split, "-o", str(out)]) == 0
    experts = _report(out / "baseline_report.json")["experts"]
    assert experts["D"]["numStocks"] == experts["truth"]["numStocks"] == 2
    assert experts["D"]["numDatapoints"] == experts["truth"]["numDatapoints"]


def test_baseline_flags_a_short_test_span_as_backtest_does(workdir, short_stock_data, tmp_path):
    split = _prepared_split(workdir)
    out = tmp_path / "b"
    argv = ["baseline", "--data", str(short_stock_data), "--split-date", split, "-o", str(out)]
    assert main(argv) == 0
    backtest_out = tmp_path / "o"
    assert main([*_backtest_argv(workdir, short_stock_data, "oracle"), "-o", str(backtest_out)]) == 0
    backtest = _report(backtest_out / "backtest_report_t0.50.json")
    assert "skipped_short_test_span:SHORT" in backtest["flags"]
    for report in _report(out / "baseline_report.json")["experts"].values():
        assert report["flags"] == backtest["flags"]
        assert report["numDatapoints"] == backtest["numDatapoints"]


def _without_stock(doc: dict, data: Path) -> None:
    del doc["stocks"]["SYN01"]


def _without_quotes(doc: dict, data: Path) -> None:
    for path in data.glob("*_SYN01*.csv"):
        path.unlink()


@pytest.mark.parametrize(
    "command, edit",
    [("baseline", _without_quotes), ("oracle", _without_quotes), ("oracle", _without_stock)],
    ids=["baseline-stock-without-quotes", "oracle-stock-without-quotes", "oracle-stock-left-out"],
)
def test_truth_json_and_quotes_must_name_the_same_stocks(workdir, tmp_path, capsys, command, edit):
    data = _copy_data(workdir, tmp_path / "data")
    truth = data / "truth.json"
    doc = json.loads(truth.read_text())
    edit(doc, data)
    truth.write_text(json.dumps(doc))
    argv = (["baseline", "--data", str(data)] if command == "baseline"
            else _backtest_argv(workdir, data, "oracle"))
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {truth}: " in err and "SYN01" in err
    assert not (tmp_path / "out").exists()


def _zero_one_volume(data: Path) -> tuple[Path, str]:
    """Set the volume of a row near the end of SYN01's quotes to 0; the file and the row's date."""
    quotes = data / "quotes_SYN01.csv"
    lines = quotes.read_text().splitlines(keepends=True)
    cells = lines[-40].split(",")
    cells[5] = "0"
    lines[-40] = ",".join(cells)
    quotes.write_text("".join(lines))
    return quotes, cells[0]


@pytest.mark.parametrize(
    "command", [["prepare"], ["prepare", "--raw"], ["backtest"]],
    ids=["prepare-log", "prepare-raw", "backtest-oracle"],
)
def test_a_zero_volume_exits_1_naming_the_quotes_file_and_the_date(
    workdir, tmp_path, capsys, command
):
    data = _copy_data(workdir, tmp_path / "data")
    quotes, day = _zero_one_volume(data)
    argv = (_backtest_argv(workdir, data, "oracle") if command == ["backtest"]
            else [*command, "--data", str(data)])
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {quotes}: SYN01: zero volume on {day}\n"
    assert not (tmp_path / "out").exists()
    # loading accepts a zero volume, and the labels' own profits read no volume
    assert main(["baseline", "--data", str(data), "-o", str(tmp_path / "baseline")]) == 0


@pytest.mark.parametrize("command", ["prepare", "backtest", "baseline"])
def test_two_quotes_files_of_one_stock_exit_1_naming_both(workdir, tmp_path, capsys, command):
    data = _copy_data(workdir, tmp_path / "data")
    # SYN01's rows under SYN00's name, in a file that sorts after SYN00's own
    lines = (data / "quotes_SYN01.csv").read_text().splitlines(keepends=True)
    renamed = [lines[0]] + [line.replace(",SYN01", ",SYN00") for line in lines[1:]]
    (data / "quotes_SYN00b.csv").write_text("".join(renamed))
    argv = {
        "prepare": ["prepare", "--data", str(data)],
        "backtest": _backtest_argv(workdir, data, "oracle"),
        "baseline": ["baseline", "--data", str(data)],
    }[command]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    first, second = data / "quotes_SYN00.csv", data / "quotes_SYN00b.csv"
    assert capsys.readouterr().err == (
        f"error: {first} and {second} both hold quotes of stock SYN00\n"
    )
    assert not (tmp_path / "out").exists()


def _first_window(edit):
    def apply(doc: dict) -> None:
        edit(next(iter(doc["stocks"].values()))["windows"][0])

    return apply


TRUTH_EDITS = {
    "missing-key": _first_window(lambda w: w.pop("tendency")),
    "bad-date": _first_window(lambda w: w.update(end="2012-02-30")),
    "bogus-tendency": _first_window(lambda w: w.update(tendency="Bogus")),
    "inconsistent-direction": _first_window(
        lambda w: w.update(direction=0 if w["tendency"] == "Trend" else 1)
    ),
}


@pytest.fixture(scope="module")
def model_backtest_outputs(workdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("intact") / "r"
    assert main([*_backtest_argv(workdir, workdir / "data", "models"), "-o", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("edit", TRUTH_EDITS.values(), ids=TRUTH_EDITS.keys())
def test_a_broken_truth_json_fails_only_the_commands_that_read_it(
    workdir, tmp_path, capsys, model_backtest_outputs, edit
):
    data = tmp_path / "data"
    data.mkdir()
    for path in (workdir / "data").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    truth = data / "truth.json"
    doc = json.loads(truth.read_text())
    edit(doc)
    truth.write_text(json.dumps(doc))
    for argv in (["baseline", "--data", str(data)], _backtest_argv(workdir, data, "oracle")):
        out = tmp_path / argv[0]
        assert main([*argv, "-o", str(out)]) == 1
        assert f"error: {truth}: " in capsys.readouterr().err
        assert not out.exists()
    # a model backtest never reads the true windows
    out = tmp_path / "models"
    assert main([*_backtest_argv(workdir, data, "models"), "-o", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == model_backtest_outputs


def test_cli_module_holds_no_format_or_file_io():
    """Formats live beside their data types: cli.py parses arguments and wires commands."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append((node.lineno, "open"))
            elif isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "write_text"):
                found.append((node.lineno, func.attr))
    assert found == []


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


ORACLE = ["backtest", "--data", "{data}", "--prepared", "{prep}", "--oracle"]


@pytest.mark.parametrize(
    "argv, ini, message",
    [
        (["synth", "--stocks", "two"], None,
         "argument --stocks: expected a positive integer, got 'two'"),
        (["synth", "--config", "{ini}"], "[synth]\nstocks = two\n",
         "{ini}: [synth] stocks: expected a positive integer, got 'two'"),
        (["synth", "--trend-len", "5"], None, "argument --trend-len"),
        (["prepare", "--data", "{data}", "--split-date", "2020-13-01"], None, "'2020-13-01'"),
        (["train", "cp", "--prepared", "{prep}", "--threads", "abc"], None, "'abc'"),
        (["train", "cp", "--prepared", "{prep}", "--threads", "0"], None,
         "argument --threads: expected a positive thread count or \"all\", got '0'"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}", "--threads", "-1"],
         "[grid]\nmax_depth = 2\n", "argument --threads: expected a positive thread count"),
        (["train", "tof", "--prepared", "{prep}", "--config", "{ini}"],
         "[tof_model]\nthreads = 0\n",
         "{ini}: [tof_model] threads: expected a positive thread count"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}"],
         "[grid]\nthreads = 1,2\n", "{ini}: [grid] threads is not a model parameter"),
        ([*ORACLE, "--cp-threshold", "0.5,abc"], None, "'0.5,abc'"),
        (["synth", "--config", "{ini}"], "[synth]\nstock = 2\n",
         "{ini}: [synth] has no key 'stock'"),
        (["synth", "--config", "{ini}"], "[sinth]\nstocks = 2\n",
         "{ini}: no command reads section [sinth]"),
        (["prepare", "--data", "{data}", "--config", "{ini}"], "[data]\nlog_mode = maybe\n",
         "{ini}: [data] log_mode: not a boolean: 'maybe'"),
        (["synth", "--config", "{ini}"], "[synth]\nstocks = 2%\n",
         "{ini}: [synth] stocks: expected a positive integer, got '2%'"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}"], "[grid]\nmax_dept = 3\n",
         "{ini}: [grid] max_dept is not a model parameter"),
        (["synth", "--disagree-prob", "2"], None, "probabilities must lie in [0, 1]"),
        (["synth", "--drift", "0.01,0.001"], None,
         "drift_range must be two finite numbers, low <= high"),
        (["synth", "--drift=nan,0.01"], None, "drift_range must be two finite numbers, low <= high"),
        (["synth", "--volatility=0.01,inf"], None,
         "volatility_range must be two finite numbers, low <= high"),
        (["synth", "--volatility=-0.01,0.01"], None, "volatility_range must be >= 0"),
        (["synth", "--days", "59"], None, "argument --days: expected an integer >= 60, got '59'"),
        (["synth", "--config", "{ini}"], "[synth]\nstocks = 0\n",
         "{ini}: [synth] stocks: expected a positive integer, got '0'"),
        (["synth", "--trend-len", "10,20"], None, "trend lengths must stay within (40, 600)"),
        (["synth", "--experts", "D,G, D"], None, "--experts names an expert twice: D,G,D"),
        (["synth", "--experts", ","], None,
         "argument --experts: expected comma-separated expert names or \"all\", got ','"),
        (["prepare", "--data", "{data}", "--experts", " , "], None,
         "argument --experts: expected comma-separated expert names or \"all\", got ' , '"),
        (["baseline", "--data", "{data}", "--experts", ""], None,
         "argument --experts: expected comma-separated expert names or \"all\", got ''"),
        (["prepare", "--data", "{data}", "--config", "{ini}"], "[data]\nexperts = ,\n",
         "{ini}: [data] experts: expected comma-separated expert names or \"all\", got ','"),
        (["train", "cp", "--prepared", "{prep}", "--n-estimators", "0"], None,
         "n_estimators must be >= 1"),
        (["train", "tof", "--prepared", "{prep}", "--learning-rate", "nan"], None,
         "learning_rate must be a finite number"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}"],
         "[grid]\nmax_depth = 0,2\n", "[grid] max_depth must be >= 1"),
        (["gridsearch", "cp", "--prepared", "{prep}", "--grid", "{ini}"],
         "[grid]\nlearning_rate = 0.1,nan\n", "[grid] learning_rate must be a finite number"),
        ([*ORACLE, "--cp-threshold", "1.5"], None, "thresholds must lie strictly inside (0, 1)"),
        ([*ORACLE, "--cp-threshold", "0.5,nan"], None,
         "thresholds must lie strictly inside (0, 1)"),
        ([*ORACLE, "--tof-threshold", "0"], None, "thresholds must lie strictly inside (0, 1)"),
        ([*ORACLE, "--min-window-days", "1"], None, "min_window_days must be >= 2"),
        (["prepare", "--data", "{data}", "--split-frac", "-0.1"], None,
         "argument --split-frac: expected a fraction strictly inside (0, 1), got '-0.1'"),
        (["prepare", "--data", "{data}", "--split-frac", "1"], None,
         "argument --split-frac: expected a fraction strictly inside (0, 1), got '1'"),
        (["baseline", "--data", "{data}", "--split-frac", "2"], None,
         "argument --split-frac: expected a fraction strictly inside (0, 1), got '2'"),
        (["baseline", "--data", "{data}", "--split-frac", "0"], None,
         "argument --split-frac: expected a fraction strictly inside (0, 1), got '0'"),
        (["prepare", "--data", "{data}", "--config", "{ini}"], "[data]\nsplit_frac = 1.0\n",
         "{ini}: [data] split_frac: expected a fraction strictly inside (0, 1), got '1.0'"),
        ([*ORACLE, "--cp-threshold", "0.501,0.504"], None,
         "--cp-threshold values name outputs by two decimals; these collide"),
        ([*ORACLE, "--cp-threshold", "0.5,0.5"], None,
         "--cp-threshold values name outputs by two decimals; these collide"),
        ([*ORACLE, "--cp-threshold", "0.5,0.999"], None,
         "--cp-threshold values name outputs by two decimals; 0.999 would be t1.00, "
         "outside (0, 1)"),
        ([*ORACLE, "--cp-threshold", "0.001"], None,
         "--cp-threshold values name outputs by two decimals; 0.001 would be t0.00, "
         "outside (0, 1)"),
        ([*ORACLE, "--models", "{prep}"], None, "give exactly one of --models and --oracle"),
        (["prepare", "--data", "{data}", "--split-date", "2012-01-02", "--split-frac", "0.5"],
         None, "--split-date and --split-frac exclude each other"),
        (["prepare", "--data", "{data}", "--config", "{ini}", "--split-frac", "0.5"],
         "[data]\nsplit_date = 2012-01-02\n", "--split-date and --split-frac exclude each other"),
        (["prepare", "--data", "{data}", "--config", "{ini}", "--split-date", "2012-01-02"],
         "[data]\nsplit_frac = 0.5\n", "--split-date and --split-frac exclude each other"),
        (["prepare", "--data", "{data}", "--config", "{ini}"],
         "[data]\nsplit_date = 2012-01-02\nsplit_frac = 0.5\n",
         "--split-date and --split-frac exclude each other"),
        (["baseline", "--data", "{data}", "--split-date", "2012-01-02", "--split-frac", "0.5"],
         None, "--split-date and --split-frac exclude each other"),
        (["baseline", "--data", "{data}", "--prepared", "{prep}", "--split-date", "2012-01-02"],
         None, "--prepared sets the split date; drop --split-date and --split-frac"),
        (["baseline", "--data", "{data}", "--prepared", "{prep}", "--split-frac", "0.5"],
         None, "--prepared sets the split date; drop --split-date and --split-frac"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}", "--folds", "1"],
         "[grid]\nmax_depth = 2\n", "argument --folds: expected an integer >= 2, got '1'"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}", "--folds", "0"],
         "[grid]\nmax_depth = 2\n", "argument --folds: expected an integer >= 2, got '0'"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}", "--draws", "0"],
         "[grid]\nmax_depth = 2\n",
         "argument --draws: expected a positive integer, got '0'"),
        (["synth", "--seed", "-1"], None,
         "argument --seed: expected a non-negative integer, got '-1'"),
        (["synth", "--config", "{ini}"], "[synth]\nseed = -1\n",
         "{ini}: [synth] seed: expected a non-negative integer, got '-1'"),
        (["train", "cp", "--prepared", "{prep}", "--config", "{ini}"], "[cp_model]\nseed = -2\n",
         "{ini}: [cp_model] seed: expected a non-negative integer, got '-2'"),
        (["gridsearch", "tof", "--prepared", "{prep}", "--grid", "{ini}"],
         "[grid]\nseed = 1,-1\n",
         "{ini}: [grid] seed: expected a non-negative integer, got '-1'"),
    ],
    ids=["stocks-flag", "stocks-key", "trend-len", "split-date", "threads", "threads-zero",
         "threads-negative", "threads-key", "grid-threads", "cp-threshold",
         "unknown-key", "unknown-section", "log-mode-key", "percent-key", "grid-key", "disagree-prob-range",
         "drift-reversed", "drift-nan", "volatility-inf", "volatility-negative", "days-range",
         "stocks-key-zero", "trend-len-range", "experts-repeat", "synth-experts-no-name",
         "prepare-experts-no-name", "baseline-experts-empty", "experts-key-no-name",
         "n-estimators-range",
         "learning-rate-nan", "grid-depth-range",
         "grid-learning-rate-nan", "cp-threshold-range", "cp-threshold-nan",
         "tof-threshold-range", "min-window-days-range", "prepare-split-frac-negative",
         "prepare-split-frac-one", "baseline-split-frac-two", "baseline-split-frac-zero",
         "split-frac-key", "cp-threshold-collision", "cp-threshold-repeat",
         "cp-threshold-named-one", "cp-threshold-named-zero",
         "oracle-and-models", "prepare-split-date-and-frac", "split-date-key-frac-flag",
         "split-frac-key-date-flag", "split-date-and-frac-keys", "baseline-split-date-and-frac",
         "baseline-prepared-and-split-date", "baseline-prepared-and-split-frac",
         "folds-one", "folds-zero", "draws-zero",
         "seed-negative", "seed-key", "model-seed-key", "grid-seed"],
)
def test_bad_values_exit_2_with_a_message(workdir, tmp_path, capsys, argv, ini, message):
    ini_path = tmp_path / "run.ini"
    paths = {"data": str(workdir / "data"), "prep": str(workdir / "prep"), "ini": str(ini_path)}
    if ini is not None:
        ini_path.write_text(ini)
    assert main([a.format(**paths) for a in argv] + ["-o", str(tmp_path / "out")]) == 2
    assert message.format(**paths) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inside", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize(
    "command", ["synth", "prepare", "train", "gridsearch", "backtest", "baseline"]
)
def test_an_output_path_that_cannot_be_a_directory_exits_1_naming_it(
    workdir, tmp_path, capsys, command, inside
):
    grid = tmp_path / "grid.ini"
    grid.write_text("[grid]\nmax_depth = 2\n")
    out = grid / "out" if inside else grid
    data, prep = str(workdir / "data"), str(workdir / "prep")
    argv = {
        "synth": ["synth", "--stocks", "1", "--days", "60"],
        "prepare": ["prepare", "--data", data],
        "train": ["train", "tof", "--prepared", prep, "--n-estimators", "1"],
        "gridsearch": ["gridsearch", "tof", "--prepared", prep, "--grid", str(grid)],
        "backtest": _backtest_argv(workdir, data, "oracle"),
        "baseline": ["baseline", "--data", data],
    }[command]
    assert main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{out}'" in err
    assert "Traceback" not in err
    assert grid.read_text() == "[grid]\nmax_depth = 2\n"


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
@pytest.mark.parametrize("command", ["synth", "prepare", "train", "gridsearch"])
def test_a_config_file_that_cannot_be_read_exits_1_naming_it(
    workdir, tmp_path, capsys, command, kind
):
    path = tmp_path / "run.ini"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[synth]\nexperts = \xff\n")
    data, prep = str(workdir / "data"), str(workdir / "prep")
    argv = {
        "synth": ["synth", "--config", str(path)],
        "prepare": ["prepare", "--data", data, "--config", str(path)],
        "train": ["train", "tof", "--prepared", prep, "--config", str(path)],
        "gridsearch": ["gridsearch", "tof", "--prepared", prep, "--grid", str(path)],
    }[command]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    assert f"error: {path}: not a readable UTF-8 text file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _params(out: Path, which: str) -> dict:
    return json.loads((out / f"{which}_metrics.json").read_text())["params"]


@pytest.mark.parametrize(
    "argv, ini, key, flag, read, want",
    [
        (["synth"], "[synth]\ndays = 100\n", "stocks = 2", ["--stocks", "3"],
         lambda out: len(list(out.glob("quotes_*.csv"))), (5, 2, 3)),
        (["prepare", "--data", "{data}"], "[data]\n", "trigger_correction = yes",
         ["--no-trigger-correction"],
         lambda out: json.loads((out / "prep_report.json").read_text())["trigger_correction"],
         (False, True, False)),
        # "auto" is the cp default and reads the prepared balance ("cp" and "tof" below)
        (["train", "cp", "--prepared", "{prep}"], "[cp_model]\nn_estimators = 2\n",
         "scale_pos_weight = auto", ["--scale-pos-weight", "2"],
         lambda out: _params(out, "cp")["scale_pos_weight"], ("cp", "cp", 2.0)),
        (["train", "tof", "--prepared", "{prep}"], "[tof_model]\nn_estimators = 2\n",
         "scale_pos_weight = auto", ["--scale-pos-weight", "2"],
         lambda out: _params(out, "tof")["scale_pos_weight"], (1.0, "tof", 2.0)),
        (["train", "tof", "--prepared", "{prep}"], "[tof_model]\nn_estimators = 2\n",
         "max_depth = 2", ["--max-depth", "3"], lambda out: _params(out, "tof")["max_depth"],
         (5, 2, 3)),
    ],
    ids=["synth", "data", "cp_model", "tof_model", "tof_model-depth"],
)
def test_flag_over_config_over_default(workdir, tmp_path, argv, ini, key, flag, read, want):
    argv = [a.format(data=workdir / "data", prep=workdir / "prep") for a in argv]
    report = json.loads((workdir / "prep" / "prep_report.json").read_text())
    balance = {which: report[which]["balance"] for which in ("cp", "tof")}
    base, keyed = tmp_path / "base.ini", tmp_path / "keyed.ini"
    base.write_text(ini)
    keyed.write_text(f"{ini}{key}\n")
    got = []
    for name, extra in (("default", []), ("config", []), ("flag", flag)):
        out = tmp_path / name
        config = base if name == "default" else keyed
        assert main([*argv, "--config", str(config), *extra, "-o", str(out)]) == 0
        got.append(read(out))
    assert got == [balance.get(w, w) for w in want]


# Every command that reads --config: its arguments, its section, a key of that
# section, the flag that sets the same value, and an output the value shows in.
CONFIG_COMMANDS = {
    "synth": (["synth", "--days", "60"], "synth", "stocks = 1", ["--stocks", "1"], "truth.json"),
    "prepare": (["prepare", "--data", "{data}"], "data", "trigger_correction = yes",
                ["--trigger-correction"], "prep_report.json"),
    **{
        f"train-{which}": (["train", which, "--prepared", "{prep}", "--n-estimators", "1"],
                           f"{which}_model", "max_depth = 1", ["--max-depth", "1"],
                           f"{which}_model.json")
        for which in ("cp", "tof")
    },
    **{
        f"gridsearch-{which}": (["gridsearch", which, "--prepared", "{prep}", "--grid", "{grid}",
                                 "--folds", "2", "--n-estimators", "1"],
                                f"{which}_model", "max_depth = 1", ["--max-depth", "1"],
                                f"search_{which}_best.json")
        for which in ("cp", "tof")
    },
}
CONFIG_SECTIONS = {section: key for _, section, key, _, _ in CONFIG_COMMANDS.values()}


@pytest.mark.parametrize("command", list(CONFIG_COMMANDS))
def test_a_config_file_must_hold_the_command_section(workdir, tmp_path, capsys, command):
    argv, section, key, flag, output = CONFIG_COMMANDS[command]
    grid = tmp_path / "grid.ini"
    grid.write_text("[grid]\nlearning_rate = 0.1,0.3\n")
    argv = [a.format(data=workdir / "data", prep=workdir / "prep", grid=grid) for a in argv]
    sections = list(CONFIG_SECTIONS)
    other = sections[(sections.index(section) + 1) % len(sections)]
    # a file holding only another command's section is a usage error naming the file
    alien = tmp_path / "alien.ini"
    alien.write_text(f"[{other}]\n{CONFIG_SECTIONS[other]}\n")
    assert main([*argv, "--config", str(alien), "-o", str(tmp_path / "alien")]) == 2
    assert f"{alien}: no [{section}] section" in capsys.readouterr().err
    assert not (tmp_path / "alien").exists()
    # a file holding every command's section applies the command's key, as its flag does
    shared = tmp_path / "shared.ini"
    shared.write_text("".join(f"[{name}]\n{line}\n" for name, line in CONFIG_SECTIONS.items()))
    assert main([*argv, "--config", str(shared), "-o", str(tmp_path / "keyed")]) == 0
    assert main([*argv, *flag, "-o", str(tmp_path / "flagged")]) == 0
    assert main([*argv, "-o", str(tmp_path / "default")]) == 0
    keyed, flagged, default = (
        (tmp_path / run / output).read_bytes() for run in ("keyed", "flagged", "default")
    )
    assert keyed == flagged != default


@pytest.mark.parametrize("command", ["prepare", "baseline"])
def test_label_file_for_a_stock_without_quotes_exits_1(workdir, tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    for path in (workdir / "data").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    orphan = data / "labels_SYN09_D.csv"
    orphan.write_text((data / "labels_SYN01_D.csv").read_text().replace("SYN01", "SYN09"))
    assert main([command, "--data", str(data), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "SYN09" in err and str(orphan) in err
