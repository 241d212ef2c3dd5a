"""Command-line entry point: synth, prepare, train, gridsearch, backtest, baseline.

Every command takes an output directory. ``synth``, ``prepare``, ``train``
and ``gridsearch`` read ``--config PATH`` (flat ``key = value`` INI with one
section per concern), where explicit flags override config values which
override built-in defaults; ``synth``, ``train`` and ``gridsearch`` take
``--seed N``. All artifacts are machine-readable (CSV/JSON) with a short human
summary on stdout. Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import bisect
import configparser
import json
import sys
from dataclasses import replace
from datetime import date as Date
from pathlib import Path
from typing import Sequence

import numpy as np

from . import evaluation, gbdt, pipeline, synth
from .errors import TrendlabError
from .features import (
    CP_FEATURE_NAMES,
    TOF_FEATURE_NAMES,
    FeatureDataset,
    build_cp_dataset,
    build_tof_dataset,
    read_feature_csv,
    write_feature_csv,
)
from .labels import (
    count_contradictions,
    extract_windows,
    group_rows,
    new_trigger,
    split_by_date,
    trigger_correction,
    voted_windows,
)
from .market_data import QuoteSeries, load_quotes, merge_label_files, save_labels, save_quotes


class UsageError(Exception):
    """Bad command-line value detected after parsing."""


# --- config plumbing --------------------------------------------------------


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise FileNotFoundError(f"config file not found: {path}")
        cfg.read(path, encoding="utf-8")
    return cfg


def _cfg_str(cfg: configparser.ConfigParser, section: str, key: str) -> str | None:
    if cfg.has_option(section, key):
        return cfg.get(section, key)
    return None


def _resolve(cli_value, cfg_value: str | None, default, cast):
    if cli_value is not None:
        return cli_value
    if cfg_value is not None:
        return cast(cfg_value)
    return default


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {raw!r}")


def _parse_pair(raw: str, cast) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated values, got {raw!r}")
    return cast(parts[0]), cast(parts[1])


def _parse_date_arg(raw: str) -> Date:
    try:
        return Date.fromisoformat(raw)
    except ValueError:
        raise UsageError(f"bad date {raw!r}, expected YYYY-MM-DD") from None


def _experts_list(raw: str | None) -> list[str] | None:
    if raw is None or raw.strip() == "" or raw.strip().lower() == "all":
        return None
    return [e.strip() for e in raw.split(",") if e.strip()]


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")


# --- data discovery ---------------------------------------------------------


def _load_universe(data_dir: Path) -> tuple[dict[str, QuoteSeries], list[Path]]:
    quote_paths = sorted(data_dir.glob("quotes_*.csv"))
    label_paths = sorted(data_dir.glob("labels_*.csv"))
    if not quote_paths:
        raise FileNotFoundError(f"no quotes_*.csv files in {data_dir}")
    quotes = {}
    for p in quote_paths:
        series = load_quotes(p)
        quotes[series.stockname] = series
    return quotes, label_paths


def _default_split_date(quotes: dict[str, QuoteSeries], frac: float) -> Date:
    all_dates = sorted({d for s in quotes.values() for d in s.dates})
    pos = min(len(all_dates) - 1, int(len(all_dates) * frac))
    return all_dates[pos]


def _truth_windows(data_dir: Path) -> dict[str, list]:
    from .labels import ExpertWindow

    truth_path = data_dir / "truth.json"
    if not truth_path.exists():
        return {}
    doc = json.loads(truth_path.read_text(encoding="utf-8"))
    out: dict[str, list] = {}
    for stock, entry in doc.get("stocks", {}).items():
        out[stock] = [
            ExpertWindow(
                stockname=stock,
                expert="truth",
                start_date=Date.fromisoformat(w["start"]),
                end_date=Date.fromisoformat(w["end"]),
                tendency=w["tendency"],
                direction=int(w["direction"]),
            )
            for w in entry["windows"]
        ]
    return out


# --- synth ------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    sec = "synth"
    stocks = _resolve(args.stocks, _cfg_str(cfg, sec, "stocks"), 5, int)
    days = _resolve(args.days, _cfg_str(cfg, sec, "days"), 2500, int)
    seed = _resolve(args.seed, _cfg_str(cfg, sec, "seed"), 42, int)
    experts = _experts_list(
        _resolve(args.experts, _cfg_str(cfg, sec, "experts"), "D,G", str)
    ) or ["D", "G"]
    jitter = _resolve(args.jitter_days, _cfg_str(cfg, sec, "jitter_days"), 2, int)
    disagree = _resolve(args.disagree_prob, _cfg_str(cfg, sec, "disagree_prob"), 0.05, float)
    split_merge = _resolve(
        args.split_merge_prob, _cfg_str(cfg, sec, "split_merge_prob"), 0.05, float
    )
    if stocks < 1:
        raise UsageError("--stocks must be >= 1")
    if days < 60:
        raise UsageError("--days must be >= 60")

    sampler = synth.SamplerConfig(
        n_days=days,
        trend_length=_resolve(
            args.trend_len, _cfg_str(cfg, sec, "trend_len"), synth.TREND_LENGTH_BOUNDS,
            lambda s: _parse_pair(s, int),
        ),
        flat_length=_resolve(
            args.flat_len, _cfg_str(cfg, sec, "flat_len"), (20, 200), lambda s: _parse_pair(s, int)
        ),
        drift_range=_resolve(
            args.drift, _cfg_str(cfg, sec, "drift"), (0.0015, 0.004),
            lambda s: _parse_pair(s, float),
        ),
        volatility_range=_resolve(
            args.volatility, _cfg_str(cfg, sec, "volatility"), (0.004, 0.012),
            lambda s: _parse_pair(s, float),
        ),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = synth.ExpertProfile(
        jitter_days=jitter, disagree_prob=disagree, split_merge_prob=split_merge
    )

    truth_doc: dict = {"seed": seed, "stocks": {}}
    n_label_files = 0
    for i in range(stocks):
        name = f"SYN{i:02d}"
        series, windows = synth.gen_series(sampler, seed=[seed, i], stockname=name)
        save_quotes(series, out_dir / f"quotes_{name}.csv")
        for j, expert in enumerate(experts):
            rows = synth.gen_expert_labels(
                windows, profile, seed=[seed, i, 100 + j], series=series, name=expert
            )
            save_labels(rows, out_dir / f"labels_{name}_{expert}.csv")
            n_label_files += 1
        truth_doc["stocks"][name] = {
            "n_days": len(series),
            "windows": [
                {
                    "start": w.start_date.isoformat(),
                    "end": w.end_date.isoformat(),
                    "tendency": w.tendency,
                    "direction": w.direction,
                }
                for w in windows
            ],
        }
    _write_json(truth_doc, out_dir / "truth.json")
    print(f"synth: wrote {stocks} quote files, {n_label_files} label files, truth.json -> {out_dir}")
    return 0


# --- prepare ----------------------------------------------------------------


def _concat_datasets(parts: list[FeatureDataset], kind: str, names) -> FeatureDataset:
    parts = [p for p in parts if len(p)]
    if not parts:
        raise TrendlabError(f"no {kind} rows were produced")
    return FeatureDataset(
        kind=kind,
        feature_names=tuple(names),
        dates=[d for p in parts for d in p.dates],
        stocknames=[s for p in parts for s in p.stocknames],
        X=np.vstack([p.X for p in parts]),
        y=np.concatenate([p.y for p in parts]),
        fractions=(
            [f for p in parts for f in (p.fractions or [])] if kind == "tof" else None
        ),
    )


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    sec = "data"
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_mode = _resolve(args.log_mode, _cfg_str(cfg, sec, "log_mode"), True, _parse_bool)
    averaging = _resolve(args.averaging, _cfg_str(cfg, sec, "averaging"), False, _parse_bool)
    correction = _resolve(
        args.trigger_correction, _cfg_str(cfg, sec, "trigger_correction"), False, _parse_bool
    )
    experts = _experts_list(_resolve(args.experts, _cfg_str(cfg, sec, "experts"), None, str))
    split_frac = _resolve(args.split_frac, _cfg_str(cfg, sec, "split_frac"), 0.7, float)

    quotes, label_paths = _load_universe(data_dir)
    if not label_paths:
        raise FileNotFoundError(f"no labels_*.csv files in {data_dir}")
    rows = merge_label_files(label_paths, quotes=quotes.values())
    buckets = group_rows(rows)
    if experts is not None:
        buckets = {k: v for k, v in buckets.items() if k[1] in experts}
    if not buckets:
        raise TrendlabError("no label rows left after the expert filter")

    split_date = args.split_date
    if split_date is None:
        raw = _cfg_str(cfg, sec, "split_date")
        split_date = _parse_date_arg(raw) if raw else _default_split_date(quotes, split_frac)

    cp_parts: list[FeatureDataset] = []
    tof_parts: list[FeatureDataset] = []
    for stock in sorted({k[0] for k in buckets}):
        series = quotes[stock]
        expert_names = sorted({k[1] for k in buckets if k[0] == stock})
        window_streams = [
            extract_windows(buckets[(stock, e)], series) for e in expert_names
        ]
        if averaging:
            window_streams = [voted_windows(window_streams, series)]
        for windows in window_streams:
            if correction:
                windows = trigger_correction(windows, series)
            cp_parts.append(build_cp_dataset(series, new_trigger(windows), log_mode=log_mode))
            tof_parts.append(build_tof_dataset(windows, series, log_mode=log_mode))

    cp_ds = _concat_datasets(cp_parts, "cp", CP_FEATURE_NAMES).deduplicate()
    tof_ds = _concat_datasets(tof_parts, "tof", TOF_FEATURE_NAMES).deduplicate()

    cp_split = split_by_date(cp_ds.dates, cp_ds.y, split_date)
    tof_split = split_by_date(tof_ds.dates, tof_ds.y, split_date)
    contradictions = count_contradictions(
        cp_ds.X[cp_split.train_idx], cp_ds.y[cp_split.train_idx]
    )

    write_feature_csv(
        cp_ds.X[cp_split.train_idx], cp_ds.y[cp_split.train_idx], CP_FEATURE_NAMES,
        out_dir / "cp_train.csv",
    )
    write_feature_csv(
        cp_ds.X[cp_split.test_idx], cp_ds.y[cp_split.test_idx], CP_FEATURE_NAMES,
        out_dir / "cp_test.csv",
    )
    write_feature_csv(
        tof_ds.X[tof_split.train_idx], tof_ds.y[tof_split.train_idx], TOF_FEATURE_NAMES,
        out_dir / "tof_train.csv",
    )
    write_feature_csv(
        tof_ds.X[tof_split.test_idx], tof_ds.y[tof_split.test_idx], TOF_FEATURE_NAMES,
        out_dir / "tof_test.csv",
    )
    tof_test = tof_ds.take(tof_split.test_idx)
    with (out_dir / "tof_test_meta.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("date,stockname,fraction\n")
        for i in range(len(tof_test)):
            handle.write(
                f"{tof_test.dates[i].isoformat()},{tof_test.stocknames[i]},"
                f"{(tof_test.fractions or [0] * len(tof_test))[i]}\n"
            )

    report = {
        "split_date": split_date.isoformat(),
        "log_mode": log_mode,
        "averaging": averaging,
        "trigger_correction": correction,
        "experts": sorted({k[1] for k in buckets}),
        "cp": {
            "n_train": cp_split.n_train,
            "n_test": cp_split.n_test,
            "train_negatives": cp_split.train_negatives,
            "train_positives": cp_split.train_positives,
            "balance": cp_split.train_balance,
            "balance_str": cp_split.balance_str,
            "contradictions": {
                "n_contradicting_rows": contradictions.n_contradicting_rows,
                "pct_of_positives": contradictions.pct_of_positives,
                "summary": contradictions.summary(),
            },
        },
        "tof": {
            "n_train": tof_split.n_train,
            "n_test": tof_split.n_test,
            "train_negatives": tof_split.train_negatives,
            "train_positives": tof_split.train_positives,
            "balance": tof_split.train_balance,
            "balance_str": tof_split.balance_str,
        },
    }
    _write_json(report, out_dir / "prep_report.json")
    print(
        f"prepare: split {split_date} | cp train {cp_split.n_train} rows, balance "
        f"{cp_split.balance_str}, contradictions {contradictions.summary()} | "
        f"tof train {tof_split.n_train} rows, balance {tof_split.balance_str}"
    )
    return 0


# --- train ------------------------------------------------------------------

CP_DEFAULT_PARAMS = gbdt.GbdtParams(
    n_estimators=500, max_depth=7, reg_lambda=3.0, learning_rate=0.1, subsample=1.0
)
TOF_DEFAULT_PARAMS = gbdt.GbdtParams(
    n_estimators=100, max_depth=5, reg_lambda=3.0, learning_rate=0.2
)


def _model_params(
    which: str, args: argparse.Namespace, cfg: configparser.ConfigParser, prep_report: dict
) -> gbdt.GbdtParams:
    sec = f"{which}_model"
    base = CP_DEFAULT_PARAMS if which == "cp" else TOF_DEFAULT_PARAMS
    fields = {
        "n_estimators": int,
        "max_depth": int,
        "learning_rate": float,
        "reg_lambda": float,
        "reg_alpha": float,
        "subsample": float,
        "min_child_weight": float,
        "gamma": float,
        "seed": int,
    }
    values = {}
    for name, cast in fields.items():
        values[name] = _resolve(getattr(args, name), _cfg_str(cfg, sec, name), getattr(base, name), cast)
    raw_spw = _resolve(
        args.scale_pos_weight,
        _cfg_str(cfg, sec, "scale_pos_weight"),
        "auto" if which == "cp" else "1",
        str,
    )
    if str(raw_spw).strip().lower() == "auto":
        balance = prep_report[which]["balance"]
        if balance is None:
            raise TrendlabError("cannot auto-set scale_pos_weight: train set has no positives")
        values["scale_pos_weight"] = float(balance)
    else:
        values["scale_pos_weight"] = float(raw_spw)
    raw_threads = _resolve(args.threads, _cfg_str(cfg, sec, "threads"), "1", str)
    values["threads"] = "all" if raw_threads == "all" else int(raw_threads)
    return replace(base, **values)


def _metrics_block(y, proba, threshold: float) -> dict:
    pred = (proba >= threshold).astype(np.int64)
    report = evaluation.class_report(pred, y, proba)
    return {
        "n_records": int(len(y)),
        "auc": report.auc,
        "accuracy": report.accuracy,
        "f1_weighted": report.weighted_avg["f1"],
        "f1_macro": report.f1_macro,
        "per_class": {
            str(c): {
                "precision": report.precision[c],
                "recall": report.recall[c],
                "f1": report.f1[c],
                "support": report.support[c],
            }
            for c in (0, 1)
        },
        "flags": list(report.flags),
    }


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    which = args.which
    prepared = Path(args.prepared)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prep_report = json.loads((prepared / "prep_report.json").read_text(encoding="utf-8"))
    names = CP_FEATURE_NAMES if which == "cp" else TOF_FEATURE_NAMES
    X_train, y_train = read_feature_csv(prepared / f"{which}_train.csv", names)
    X_test, y_test = read_feature_csv(prepared / f"{which}_test.csv", names)
    params = _model_params(which, args, cfg, prep_report)

    model = gbdt.fit(X_train, y_train, params)
    model.feature_names = tuple(names)
    gbdt.save_model(model, out_dir / f"{which}_model.json")

    from dataclasses import asdict

    params_echo = asdict(params)
    params_echo.pop("threads")  # execution knob: keeps reruns byte-comparable
    metrics = {
        "which": which,
        "params": params_echo,
        "balance_str": prep_report[which]["balance_str"],
        "train": _metrics_block(y_train, gbdt.predict_proba(model, X_train), 0.5),
        "test": _metrics_block(y_test, gbdt.predict_proba(model, X_test), 0.5),
    }
    _write_json(metrics, out_dir / f"{which}_metrics.json")
    tr, te = metrics["train"], metrics["test"]

    def fmt(block: dict) -> str:
        auc = "n/a" if block["auc"] is None else f"{block['auc']:.2%}"
        return (
            f"AUC {auc} | F1(w) {block['f1_weighted']:.0%} "
            f"(minority {block['per_class']['1']['f1']:.0%}) | acc {block['accuracy']:.2%} "
            f"| n {block['n_records']}"
        )

    print(f"train {which}: scale_pos_weight={params.scale_pos_weight:g}")
    print(f"  train: {fmt(tr)}")
    print(f"  test:  {fmt(te)}")
    return 0


# --- gridsearch --------------------------------------------------------------


def _parse_grid_file(path: Path) -> dict[str, list]:
    if not path.exists():
        raise FileNotFoundError(f"grid file not found: {path}")
    cfg = configparser.ConfigParser()
    cfg.read(path, encoding="utf-8")
    if not cfg.has_section("grid"):
        raise UsageError(f"{path}: no [grid] section")
    grid: dict[str, list] = {}
    for key, raw in cfg.items("grid"):
        values = []
        for piece in raw.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                values.append(int(piece))
            except ValueError:
                values.append(float(piece))
        if values:
            grid[key] = values
    if not grid:
        raise UsageError(f"{path}: empty grid")
    return grid


def cmd_gridsearch(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    which = args.which
    prepared = Path(args.prepared)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _parse_grid_file(Path(args.grid))
    prep_report = json.loads((prepared / "prep_report.json").read_text(encoding="utf-8"))
    names = CP_FEATURE_NAMES if which == "cp" else TOF_FEATURE_NAMES
    X, y = read_feature_csv(prepared / f"{which}_train.csv", names)
    base = _model_params(which, args, cfg, prep_report)
    if args.mode == "randomized" and args.draws is None:
        raise UsageError("randomized mode needs --draws")

    result = evaluation.grid_search(
        X,
        y,
        grid,
        base_params=base,
        mode=args.mode,
        n_draws=args.draws,
        k=args.folds,
        scoring=args.scoring,
        seed=args.seed if args.seed is not None else base.seed,
    )
    result.to_csv(out_dir / f"search_{which}.csv")
    _write_json(
        {"best_params": result.best_params, "best_score": result.best_score},
        out_dir / f"search_{which}_best.json",
    )
    print(
        f"gridsearch {which}: {len(result.entries)} combinations, best "
        f"{result.best_score:.4f} at {result.best_params}"
    )
    return 0


# --- backtest / baseline ------------------------------------------------------


def _test_slice(series: QuoteSeries, split_date: Date) -> QuoteSeries | None:
    sliced = series[bisect.bisect_left(series.dates, split_date) :]
    return sliced if len(sliced) >= 2 * pipeline.CP_LAG_DAYS + 1 else None


def _baseline_reports(
    quotes: dict[str, QuoteSeries],
    label_paths: list[Path],
    truth: dict[str, list],
    split_date: Date,
    experts: list[str] | None,
) -> dict:
    rows = merge_label_files(label_paths, quotes=quotes.values()) if label_paths else []
    buckets = group_rows(rows)
    if experts is not None:
        buckets = {k: v for k, v in buckets.items() if k[1] in experts}

    def report_for(window_map: dict[str, list]) -> dict | None:
        stats = []
        datapoints = 0
        for stock in sorted(window_map):
            series = quotes[stock]
            clipped = pipeline.clip_windows_to_span(
                window_map[stock], series, start_date=split_date
            )
            if not clipped:
                continue
            stats.append(pipeline.expert_position_stats(series, clipped))
            datapoints += (
                series.index_of(clipped[-1].end_date)
                - series.index_of(clipped[0].start_date)
                + 1
            )
        if not stats or datapoints == 0:
            return None
        return pipeline.aggregate(stats, num_datapoints=datapoints).to_dict()

    out: dict[str, dict] = {}
    expert_names = sorted({k[1] for k in buckets})
    for expert in expert_names:
        window_map = {}
        for (stock, e), bucket in buckets.items():
            if e == expert:
                window_map[stock] = extract_windows(bucket, quotes[stock])
        rep = report_for(window_map)
        if rep is not None:
            out[expert] = rep
    if len(expert_names) > 1:
        voted_map = {}
        for stock in sorted({k[0] for k in buckets}):
            streams = [
                extract_windows(buckets[(stock, e)], quotes[stock])
                for e in expert_names
                if (stock, e) in buckets
            ]
            if streams:
                voted_map[stock] = voted_windows(streams, quotes[stock])
        rep = report_for(voted_map)
        if rep is not None:
            out["Average"] = rep
    if truth:
        rep = report_for({s: w for s, w in truth.items() if s in quotes})
        if rep is not None:
            out["truth"] = rep
    return out


def _split_date_for_backtest(args, prepared: Path | None, quotes) -> Date:
    if args.split_date is not None:
        return args.split_date
    if prepared is not None and (prepared / "prep_report.json").exists():
        doc = json.loads((prepared / "prep_report.json").read_text(encoding="utf-8"))
        return Date.fromisoformat(doc["split_date"])
    return _default_split_date(quotes, 0.7)


def cmd_backtest(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    prepared = Path(args.prepared) if args.prepared else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    quotes, label_paths = _load_universe(data_dir)
    truth = _truth_windows(data_dir)
    split_date = _split_date_for_backtest(args, prepared, quotes)

    log_mode = args.log_mode
    if log_mode is None and prepared is not None and (prepared / "prep_report.json").exists():
        doc = json.loads((prepared / "prep_report.json").read_text(encoding="utf-8"))
        log_mode = bool(doc["log_mode"])
    if log_mode is None:
        log_mode = True

    thresholds = [float(x) for x in str(args.cp_threshold).split(",")]
    tof_threshold = args.tof_threshold

    skip_flags: list[str] = []
    cp_model = tof_model = None
    if not args.oracle:
        models_dir = Path(args.models) if args.models else None
        if models_dir is None:
            raise UsageError("--models is required unless --oracle is given")
        cp_path = models_dir / "cp_model.json"
        tof_path = models_dir / "tof_model.json"
        for p in (cp_path, tof_path):
            if not p.exists():
                raise FileNotFoundError(f"model file not found: {p}")
        cp_model = gbdt.load_model(cp_path)
        tof_model = gbdt.load_model(tof_path)
    elif not truth:
        raise TrendlabError(f"--oracle needs {data_dir / 'truth.json'}")

    for threshold in thresholds:
        cfg_run = pipeline.PipelineConfig(
            cp_threshold=threshold,
            tof_threshold=tof_threshold,
            min_window_days=args.min_window_days,
            log_mode=log_mode,
            hold_until_changepoint=args.hold_until_changepoint,
        )
        stats_list = []
        datapoints = 0
        for stock in sorted(quotes):
            sliced = _test_slice(quotes[stock], split_date)
            if sliced is None:
                flag = f"skipped_short_test_span:{stock}"
                if flag not in skip_flags:
                    skip_flags.append(flag)
                continue
            if args.oracle:
                windows = pipeline.clip_windows_to_span(
                    truth.get(stock, []), sliced, start_date=sliced.dates[0]
                )
                cp_arg = pipeline.oracle_cp_scorer(windows, sliced)
                tof_arg = pipeline.oracle_tof_scorer(windows, sliced)
            else:
                cp_arg, tof_arg = cp_model, tof_model
            trace, stats = pipeline.run_pipeline(sliced, cp_arg, tof_arg, cfg_run)
            suffix = f"_t{threshold:.2f}"
            trace.to_csv(out_dir / f"trace_{stock}{suffix}.csv")
            stats_list.append(stats)
            datapoints += len(sliced)
        if not stats_list:
            raise TrendlabError("no stock had a long enough test span")
        report = pipeline.aggregate(stats_list, num_datapoints=datapoints)
        report = replace(report, flags=report.flags + tuple(skip_flags))
        pipeline.save_report(
            report, out_dir / f"backtest_report_t{threshold:.2f}.json", per_stock=stats_list
        )
        print(
            f"backtest t={threshold:.2f}: YearProfit {report.year_profit:.2%} | "
            f"YearProfit_avg {report.year_profit_avg:.2%} | times_in {report.times_in}"
        )

    if not args.oracle and prepared is not None:
        meta_path = prepared / "tof_test_meta.csv"
        tof_test_path = prepared / "tof_test.csv"
        if meta_path.exists() and tof_test_path.exists():
            X, y = read_feature_csv(tof_test_path, TOF_FEATURE_NAMES)
            fractions = [
                int(line.split(",")[2])
                for line in meta_path.read_text(encoding="utf-8").splitlines()[1:]
                if line
            ]
            pred = gbdt.predict(tof_model, X, threshold=tof_threshold)
            with (out_dir / "fraction_accuracy.csv").open("w", encoding="utf-8", newline="") as f:
                f.write("fraction,n,accuracy\n")
                for frac in sorted(set(fractions)):
                    idx = [i for i, p in enumerate(fractions) if p == frac]
                    acc = float(np.mean(pred[idx] == y[idx]))
                    f.write(f"{frac},{len(idx)},{repr(acc)}\n")

    baseline = _baseline_reports(
        quotes, label_paths, truth, split_date, _experts_list(args.experts)
    )
    _write_json(
        {"split_date": split_date.isoformat(), "experts": baseline},
        out_dir / "baseline_report.json",
    )
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    quotes, label_paths = _load_universe(data_dir)
    truth = _truth_windows(data_dir)
    split_date = args.split_date or _default_split_date(quotes, args.split_frac)
    baseline = _baseline_reports(
        quotes, label_paths, truth, split_date, _experts_list(args.experts)
    )
    _write_json(
        {"split_date": split_date.isoformat(), "experts": baseline},
        out_dir / "baseline_report.json",
    )
    for name in sorted(baseline):
        rep = baseline[name]
        print(
            f"baseline {name}: YearProfit {rep['YearProfit']:.2%} | "
            f"YearProfit_avg {rep['YearProfit_avg']:.2%}"
        )
    return 0


# --- parser -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, config: bool = True, seed: bool = True) -> None:
    if config:
        p.add_argument("--config", default=None, help="INI config file")
    if seed:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--out", required=True, help="output directory")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-estimators", dest="n_estimators", type=int, default=None)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--reg-lambda", dest="reg_lambda", type=float, default=None)
    p.add_argument("--reg-alpha", dest="reg_alpha", type=float, default=None)
    p.add_argument("--subsample", type=float, default=None)
    p.add_argument(
        "--scale-pos-weight",
        dest="scale_pos_weight",
        default=None,
        help='a number, or "auto" to use the prepared train balance',
    )
    p.add_argument("--min-child-weight", dest="min_child_weight", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--threads", default=None, help='worker threads, or "all"')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trendlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled universe")
    _add_common(p)
    p.add_argument("--stocks", type=int, default=None)
    p.add_argument("--days", type=int, default=None)
    p.add_argument("--experts", default=None, help="comma-separated expert names")
    p.add_argument("--jitter-days", dest="jitter_days", type=int, default=None)
    p.add_argument("--disagree-prob", dest="disagree_prob", type=float, default=None)
    p.add_argument("--split-merge-prob", dest="split_merge_prob", type=float, default=None)
    p.add_argument("--trend-len", dest="trend_len", type=lambda s: _parse_pair(s, int), default=None)
    p.add_argument("--flat-len", dest="flat_len", type=lambda s: _parse_pair(s, int), default=None)
    p.add_argument("--drift", type=lambda s: _parse_pair(s, float), default=None)
    p.add_argument("--volatility", type=lambda s: _parse_pair(s, float), default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="build train/test datasets from data files")
    _add_common(p, seed=False)
    p.add_argument("--data", required=True, help="directory with quotes_*/labels_* CSVs")
    p.add_argument("--experts", default=None)
    p.add_argument("--split-date", dest="split_date", type=_parse_date_arg, default=None)
    p.add_argument("--split-frac", dest="split_frac", type=float, default=None)
    p.add_argument("--log-mode", dest="log_mode", action="store_true", default=None)
    p.add_argument("--raw", dest="log_mode", action="store_false")
    p.add_argument("--averaging", action="store_true", default=None)
    p.add_argument("--no-averaging", dest="averaging", action="store_false")
    p.add_argument(
        "--trigger-correction", dest="trigger_correction", action="store_true", default=None
    )
    p.add_argument(
        "--no-trigger-correction", dest="trigger_correction", action="store_false"
    )
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the changepoint or trend/flat model")
    p.add_argument("which", choices=("cp", "tof"))
    _add_common(p)
    p.add_argument("--prepared", required=True, help="directory written by prepare")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="cross-validated hyperparameter search")
    p.add_argument("which", choices=("cp", "tof"))
    _add_common(p)
    p.add_argument("--prepared", required=True)
    p.add_argument("--grid", required=True, help="INI file with a [grid] section")
    p.add_argument("--mode", choices=("full", "randomized"), default="full")
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--scoring", default="f1_macro", choices=evaluation.SCORING)
    _add_model_flags(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("backtest", help="run the two-stage simulation on the test span")
    _add_common(p, config=False, seed=False)
    p.add_argument("--data", required=True)
    p.add_argument("--prepared", default=None)
    p.add_argument("--models", default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--experts", default=None)
    p.add_argument("--split-date", dest="split_date", type=_parse_date_arg, default=None)
    p.add_argument(
        "--cp-threshold", dest="cp_threshold", default="0.5",
        help="one value or a comma list, e.g. 0.5,0.65,0.85",
    )
    p.add_argument("--tof-threshold", dest="tof_threshold", type=float, default=0.5)
    p.add_argument("--min-window-days", dest="min_window_days", type=int, default=6)
    p.add_argument(
        "--hold-until-changepoint", dest="hold_until_changepoint", action="store_true"
    )
    p.add_argument("--log-mode", dest="log_mode", action="store_true", default=None)
    p.add_argument("--raw", dest="log_mode", action="store_false")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("baseline", help="profit of the expert labels themselves")
    _add_common(p, config=False, seed=False)
    p.add_argument("--data", required=True)
    p.add_argument("--experts", default=None)
    p.add_argument("--split-date", dest="split_date", type=_parse_date_arg, default=None)
    p.add_argument("--split-frac", dest="split_frac", type=float, default=0.7)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TrendlabError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
