"""Command-line entry point: synth, prepare, train, gridsearch, backtest, baseline.

Every command takes an output directory. ``synth``, ``prepare``, ``train``
and ``gridsearch`` read ``--config PATH``, a flat ``key = value`` INI file:
``synth`` reads ``[synth]``, ``prepare`` reads ``[data]``, and ``train`` and
``gridsearch`` read ``[cp_model]`` or ``[tof_model]``. Every option of these
commands but the paths and gridsearch's ``--draws``, ``--folds`` and
``--scoring`` is also a key: its flag name with ``_`` (``trend_len =
40,80``; ``log_mode = false`` for ``--raw``). A flag overrides its key, which
overrides the built-in default. A file without the command's section, an
unknown section, an unknown key and a bad value are usage errors. ``synth``,
``train`` and ``gridsearch`` take ``--seed N``. ``backtest`` takes its test
span and feature space from ``--prepared``; ``baseline --prepared`` takes the
same test span. ``--experts`` (``synth``, ``prepare``, ``baseline``) is a
comma list of expert names, or ``all``, the default: every expert of the
label files (``synth`` writes D and G). A value without a name is a usage
error; a name that no label file of ``prepare``'s or ``baseline``'s data
directory holds is a runtime error naming it and the directory.
All artifacts are machine-readable (CSV/JSON) with a short human summary
on stdout. Exit codes: 0 success, 2 usage error, 1 runtime error. A usage
error is a bad option, key or value; a settings type raises ``ConfigError``
for a value out of range when built, and ``main`` alone turns that into
exit 2. A runtime error is a file that is missing, malformed or cannot be
written; it prints ``error:`` and a message naming the file.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import date as Date
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import evaluation, gbdt, pipeline, synth
from .errors import ConfigError, ModelFormatError, TrendlabError, ZeroVolumeError
from .features import (
    CP_FEATURE_NAMES,
    TOF_FEATURE_NAMES,
    FeatureDataset,
    build_cp_dataset,
    build_tof_dataset,
    read_feature_csv,
    read_tof_meta,
    write_feature_csv,
    write_fraction_accuracy,
    write_tof_meta,
)
from .labels import (
    ExpertWindow,
    count_contradictions,
    extract_windows,
    load_prep_report,
    save_prep_report,
    split_by_date,
    trigger_correction,
    voted_windows,
)
from .market_data import (
    QuoteSeries,
    _date,
    load_quotes,
    merge_label_files,
    save_labels,
    save_quotes,
)

# --- settings -----------------------------------------------------------------

# Share of the distinct quote dates that fall before the default split date.
DEFAULT_SPLIT_FRAC = 0.7

# Every section some command reads; gridsearch reads [grid] from its --grid file.
SECTIONS = ("synth", "data", "cp_model", "tof_model", "grid")
# Options no config key sets besides the required paths: train reads the same
# model section as gridsearch, so the search options stay flags.
FLAG_ONLY = ("help", "config", "draws", "folds", "scoring")


# --- type functions -----------------------------------------------------------


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise argparse.ArgumentTypeError(f"not a boolean: {raw!r}")
    return value in ("1", "true", "yes", "on")


def _typed(parse, expected: str):
    """A type function that reports a value ``parse`` rejects as not ``expected``."""

    def convert(raw: str):
        try:
            return parse(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}") from None

    return convert


def _pair(cast):
    def parse(raw: str) -> tuple:
        first, second = raw.split(",")
        return cast(first), cast(second)

    return _typed(parse, "two comma-separated values")


_float_list = _typed(lambda raw: [float(x) for x in raw.split(",")], "comma-separated numbers")
_parse_date_arg = _typed(Date.fromisoformat, "a date YYYY-MM-DD")


def _at_least(low: int, raw: str) -> int:
    if int(raw) < low:
        raise ValueError(raw)
    return int(raw)


_parse_threads = _typed(
    lambda raw: (os.cpu_count() or 1) if raw == "all" else _at_least(1, raw),
    'a positive thread count or "all"',
)
_parse_seed = _typed(lambda raw: _at_least(0, raw), "a non-negative integer")
_parse_positive = _typed(lambda raw: _at_least(1, raw), "a positive integer")
_parse_folds = _typed(lambda raw: _at_least(2, raw), "an integer >= 2")
_parse_days = _typed(lambda raw: _at_least(60, raw), "an integer >= 60")
_parse_weight = _typed(
    lambda raw: "auto" if raw.strip().lower() == "auto" else float(raw), 'a number or "auto"'
)


def _fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError(raw)
    return value


_parse_split_frac = _typed(_fraction, "a fraction strictly inside (0, 1)")


def _expert_names(raw: str) -> list[str] | None:
    """The names in a comma list of one or more, or None (every expert) for ``all``."""
    names = [e.strip() for e in raw.split(",") if e.strip()]
    if not names:
        raise ValueError(raw)
    return None if raw.strip().lower() == "all" else names


_parse_experts = _typed(_expert_names, 'comma-separated expert names or "all"')

# The type of every GbdtParams field, shared by the model flags, the
# [cp_model]/[tof_model] keys and the [grid] values.
MODEL_TYPES = {
    "n_estimators": int,
    "max_depth": int,
    "learning_rate": float,
    "reg_lambda": float,
    "reg_alpha": float,
    "subsample": float,
    "scale_pos_weight": _parse_weight,
    "min_child_weight": float,
    "gamma": float,
    "seed": _parse_seed,
}


def _read_ini(path: Path) -> configparser.ConfigParser:
    """The INI file in ``path``; an error naming it when it cannot be read as UTF-8 text."""
    cfg = configparser.ConfigParser(interpolation=None)  # a value is its text, "%" too
    try:
        if cfg.read(path, encoding="utf-8"):  # empty when the file cannot be opened
            return cfg
    except UnicodeDecodeError:
        pass
    raise TrendlabError(f"{path}: not a readable UTF-8 text file")


def _grid_file(raw: str) -> dict[str, list]:
    """Type function of ``--grid``: its [grid] values, each parsed like the model flag."""
    path = Path(raw)
    cfg = _read_ini(path)
    if not cfg.has_section("grid"):
        raise argparse.ArgumentTypeError(f"{path}: no [grid] section")
    grid: dict[str, list] = {}
    for key, raw_values in cfg.items("grid"):
        if key not in MODEL_TYPES:
            raise argparse.ArgumentTypeError(f"{path}: [grid] {key} is not a model parameter")
        try:
            values = [MODEL_TYPES[key](v) for v in raw_values.split(",") if v.strip()]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(f"{path}: [grid] {key}: {exc}") from None
        if "auto" in values:
            raise argparse.ArgumentTypeError(f"{path}: [grid] {key} cannot search \"auto\"")
        if values:
            grid[key] = values
    if not grid:
        raise argparse.ArgumentTypeError(f"{path}: empty grid")
    return grid


def _config_defaults(args: argparse.Namespace) -> dict:
    """The command's config section as defaults of its parser, which the file must hold.

    Each value is converted here by its option's own type function, so a bad
    value names the file; argparse uses a default only for an option the
    command line leaves unset, so a flag overrides its key.
    """
    path = Path(args.config)
    cfg = _read_ini(path)
    parser = args.parser
    for name in cfg.sections():
        if name not in SECTIONS:
            parser.error(f"{path}: no command reads section [{name}]")
    section = args.section.format(which=getattr(args, "which", None))
    if not cfg.has_section(section):
        parser.error(f"{path}: no [{section}] section, the one this command reads")
    actions = {
        a.dest: a
        for a in parser._actions
        if a.option_strings and not a.required and a.dest not in FLAG_ONLY
    }
    defaults = {}
    for key, raw in cfg.items(section):
        if key not in actions:
            parser.error(f"{path}: [{section}] has no key {key!r}")
        # a two-state flag's key holds a boolean; an option without a type, text
        convert = _parse_bool if actions[key].nargs == 0 else actions[key].type or str
        try:
            defaults[key] = convert(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"{path}: [{section}] {key}: {exc}")
    return defaults


# --- data discovery ---------------------------------------------------------


def _load_universe(data_dir: Path) -> tuple[dict[str, QuoteSeries], dict[str, Path], list[Path]]:
    """Each stock's quotes and quotes file, keyed by the stockname inside it, and the label files."""
    label_paths = sorted(data_dir.glob("labels_*.csv"))
    quotes, quote_paths = {}, {}
    for p in sorted(data_dir.glob("quotes_*.csv")):
        series = load_quotes(p)
        if series.stockname in quote_paths:
            raise TrendlabError(
                f"{quote_paths[series.stockname]} and {p} both hold quotes of stock {series.stockname}"
            )
        quotes[series.stockname], quote_paths[series.stockname] = series, p
    if not quotes:
        raise FileNotFoundError(f"no quotes_*.csv files in {data_dir}")
    return quotes, quote_paths, label_paths


@contextmanager
def _naming_quotes_file(quote_paths: Mapping[str, Path]) -> Iterator[None]:
    """Prefix a ``ZeroVolumeError`` with the path of its stock's quotes file."""
    try:
        yield
    except ZeroVolumeError as exc:
        raise ZeroVolumeError(exc.stockname, f"{quote_paths[exc.stockname]}: {exc}") from None


def _split_date(args: argparse.Namespace, quotes: dict[str, QuoteSeries]) -> Date:
    """``--split-date``, or the date ``--split-frac`` of the way through the quote dates."""
    if args.split_date is not None:
        if args.split_frac is not None:
            args.parser.error("--split-date and --split-frac exclude each other")
        return args.split_date
    days = sorted({d for s in quotes.values() for d in s.days.tolist()})
    frac = DEFAULT_SPLIT_FRAC if args.split_frac is None else args.split_frac
    return _date(days[min(len(days) - 1, int(len(days) * frac))])


def _load_truth(path: Path, quotes: dict[str, QuoteSeries]) -> dict[str, list[ExpertWindow]]:
    """The true windows in ``path``; a stock without a quotes file is an error."""
    truth = synth.load_truth(path)
    unquoted = sorted(truth.keys() - quotes.keys())
    if unquoted:
        raise TrendlabError(f"{path}: windows for stock {unquoted[0]}, which has no quotes file")
    return truth


def _window_streams(
    quotes: dict[str, QuoteSeries],
    label_paths: list[Path],
    experts: list[str] | None,
    data_dir: Path,
) -> dict[str, dict[str, list[ExpertWindow]]]:
    """Each labelled stock's window stream per named expert (None: all), both sorted by name."""
    labels = merge_label_files(label_paths, quotes=quotes.values())
    missing = sorted(set(experts or ()) - {expert for _, expert in labels})
    if missing:
        raise TrendlabError(f"{data_dir}: no labels_*.csv file holds expert {','.join(missing)}")
    streams: dict[str, dict[str, list[ExpertWindow]]] = {}
    for stock, expert in sorted(labels):
        if experts is None or expert in experts:
            streams.setdefault(stock, {})[expert] = extract_windows(
                labels[(stock, expert)], quotes[stock]
            )
    return streams


# --- synth ------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    ranges = {
        "trend_length": args.trend_len,
        "flat_length": args.flat_len,
        "drift_range": args.drift,
        "volatility_range": args.volatility,
    }
    sampler = synth.SamplerConfig(
        n_days=args.days, **{k: v for k, v in ranges.items() if v is not None}
    )
    profile = synth.ExpertProfile(
        jitter_days=args.jitter_days,
        disagree_prob=args.disagree_prob,
        split_merge_prob=args.split_merge_prob,
    )
    experts = args.experts or ["D", "G"]
    if len(set(experts)) < len(experts):  # one label file per (stock, expert) name
        args.parser.error(f"--experts names an expert twice: {','.join(experts)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    truth: dict[str, list[ExpertWindow]] = {}
    n_days: dict[str, int] = {}
    n_label_files = 0
    for i in range(args.stocks):
        name = f"SYN{i:02d}"
        series, truth[name] = synth.gen_series(sampler, seed=[args.seed, i], stockname=name)
        n_days[name] = len(series)
        save_quotes(series, out_dir / f"quotes_{name}.csv")
        for j, expert in enumerate(experts):
            rows = synth.gen_expert_labels(
                truth[name], profile, seed=[args.seed, i, 100 + j], series=series, name=expert
            )
            save_labels(rows, out_dir / f"labels_{name}_{expert}.csv")
            n_label_files += 1
    synth.save_truth(truth, n_days, args.seed, out_dir / "truth.json")
    print(
        f"synth: wrote {args.stocks} quote files, {n_label_files} label files, "
        f"truth.json -> {out_dir}"
    )
    return 0


# --- prepare ----------------------------------------------------------------


def cmd_prepare(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    log_mode, averaging, correction = args.log_mode, args.averaging, args.trigger_correction

    quotes, quote_paths, label_paths = _load_universe(data_dir)
    split_date = _split_date(args, quotes)
    if not label_paths:
        raise FileNotFoundError(f"no labels_*.csv files in {data_dir}")
    streams = _window_streams(quotes, label_paths, args.experts, data_dir)

    cp_parts: list[FeatureDataset] = []
    tof_parts: list[FeatureDataset] = []
    for stock, by_expert in streams.items():
        series = quotes[stock]
        window_streams = list(by_expert.values())
        if averaging:
            window_streams = [voted_windows(window_streams, series)]
        for windows in window_streams:
            if correction:
                windows = trigger_correction(windows, series)
            with _naming_quotes_file(quote_paths):
                cp_parts.append(build_cp_dataset(series, windows, log_mode=log_mode))
                tof_parts.append(build_tof_dataset(windows, series, log_mode=log_mode))

    cp_ds, tof_ds = FeatureDataset.concat(cp_parts), FeatureDataset.concat(tof_parts)
    del cp_parts, tof_parts  # the concatenated copies hold every row
    cp_ds, tof_ds = cp_ds.deduplicate(), tof_ds.deduplicate()

    cp_split = split_by_date(cp_ds.days, cp_ds.y, split_date)
    tof_split = split_by_date(tof_ds.days, tof_ds.y, split_date)
    contradictions = count_contradictions(
        cp_ds.X[cp_split.train_idx], cp_ds.y[cp_split.train_idx]
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ds, split in ((cp_ds, cp_split), (tof_ds, tof_split)):
        for part, idx in (("train", split.train_idx), ("test", split.test_idx)):
            path = out_dir / f"{ds.kind}_{part}.csv"
            write_feature_csv(ds.X[idx], ds.y[idx], ds.feature_names, path)
    write_tof_meta(tof_ds.take(tof_split.test_idx), out_dir / "tof_test_meta.csv")
    settings = {k: getattr(args, k) for k in ("log_mode", "averaging", "trigger_correction")}
    settings["experts"] = sorted({e for by_expert in streams.values() for e in by_expert})
    save_prep_report(settings, cp_split, tof_split, contradictions, out_dir / "prep_report.json")
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


def _model_params(which: str, args: argparse.Namespace, prep_report: dict) -> gbdt.GbdtParams:
    """The model's defaults with every parameter a flag or config key set."""
    base = CP_DEFAULT_PARAMS if which == "cp" else TOF_DEFAULT_PARAMS
    values = {name: getattr(args, name) for name in MODEL_TYPES if getattr(args, name) is not None}
    if values.get("scale_pos_weight", "auto" if which == "cp" else None) == "auto":
        balance = prep_report[which]["balance"]
        if balance is None:
            raise TrendlabError("cannot auto-set scale_pos_weight: train set has no positives")
        values["scale_pos_weight"] = float(balance)
    return replace(base, **values)


def cmd_train(args: argparse.Namespace) -> int:
    which = args.which
    prepared = Path(args.prepared)
    prep_report = load_prep_report(prepared / "prep_report.json")
    params = _model_params(which, args, prep_report)
    names = CP_FEATURE_NAMES if which == "cp" else TOF_FEATURE_NAMES
    X_train, y_train = read_feature_csv(prepared / f"{which}_train.csv", names)
    X_test, y_test = read_feature_csv(prepared / f"{which}_test.csv", names)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = gbdt.fit(X_train, y_train, params)
    model.feature_names = tuple(names)
    gbdt.save_model(model, out_dir / f"{which}_model.json")

    def report(X, y) -> evaluation.ClassReport:
        proba = gbdt.predict_proba(model, X)
        return evaluation.class_report(proba >= 0.5, y, proba)

    train, test = report(X_train, y_train), report(X_test, y_test)
    balance_str = prep_report[which]["balance_str"]
    path = out_dir / f"{which}_metrics.json"
    evaluation.save_train_metrics(which, params, balance_str, train, test, path)

    def fmt(rep: evaluation.ClassReport) -> str:
        auc = "n/a" if rep.auc is None else f"{rep.auc:.2%}"
        return (
            f"AUC {auc} | F1(w) {rep.weighted_avg['f1']:.0%} "
            f"(minority {rep.f1[1]:.0%}) | acc {rep.accuracy:.2%} "
            f"| n {rep.support[0] + rep.support[1]}"
        )

    print(f"train {which}: scale_pos_weight={params.scale_pos_weight:g}")
    print(f"  train: {fmt(train)}")
    print(f"  test:  {fmt(test)}")
    return 0


# --- gridsearch --------------------------------------------------------------


def cmd_gridsearch(args: argparse.Namespace) -> int:
    which = args.which
    prepared = Path(args.prepared)
    prep_report = load_prep_report(prepared / "prep_report.json")
    base = _model_params(which, args, prep_report)
    for combo in itertools.product(*args.grid.values()):
        try:
            replace(base, **dict(zip(args.grid, combo)))
        except ConfigError as exc:
            args.parser.error(f"[grid] {exc}")
    names = CP_FEATURE_NAMES if which == "cp" else TOF_FEATURE_NAMES
    X, y = read_feature_csv(prepared / f"{which}_train.csv", names)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = evaluation.grid_search(
        X,
        y,
        args.grid,
        base_params=base,
        n_draws=args.draws,
        k=args.folds,
        scoring=args.scoring,
        seed=base.seed,
        workers=args.threads or 1,
    )
    result.to_csv(out_dir / f"search_{which}.csv")
    result.save_best(out_dir / f"search_{which}_best.json")
    print(
        f"gridsearch {which}: {len(result.entries)} combinations, best "
        f"{result.best_score:.4f} at {result.best_params}"
    )
    return 0


# --- backtest / baseline ------------------------------------------------------


def _load_stage_model(path: Path, which: str, names: tuple[str, ...]) -> gbdt.GbdtModel:
    """The model in ``path``; a ``ModelFormatError`` unless it takes the stage's ``names``."""
    model = gbdt.load_model(path)
    if model.n_features != len(names) or model.feature_names not in (None, names):
        raise ModelFormatError(
            f"{path}: not a {which} model: it takes {model.n_features} features "
            f"{list(model.feature_names or ())}, not the {len(names)} {which} features"
        )
    return model


def cmd_backtest(args: argparse.Namespace) -> int:
    if args.oracle == bool(args.models):
        args.parser.error("give exactly one of --models and --oracle")
    configs = [
        pipeline.PipelineConfig(
            cp_threshold=threshold,
            tof_threshold=args.tof_threshold,
            min_window_days=args.min_window_days,
            hold_until_changepoint=args.hold_until_changepoint,
        )
        for threshold in args.cp_threshold
    ]
    names = [f"{t:.2f}" for t in args.cp_threshold]
    if len(set(names)) < len(names):
        args.parser.error("--cp-threshold values name outputs by two decimals; these collide")
    for t, name in zip(args.cp_threshold, names):
        if name in ("0.00", "1.00"):
            args.parser.error(
                f"--cp-threshold values name outputs by two decimals; {t} would be t{name}, "
                "outside (0, 1)"
            )
    data_dir = Path(args.data)
    prepared = Path(args.prepared)
    # the test span and feature space the models were prepared in
    prep_report = load_prep_report(prepared / "prep_report.json")
    split_date, log_mode = prep_report["split_date"], prep_report["log_mode"]
    quotes, quote_paths, _ = _load_universe(data_dir)
    spans, skip_flags = pipeline.backtest_spans(quotes, split_date)

    if args.oracle:
        truth_path = data_dir / "truth.json"
        truth = _load_truth(truth_path, quotes)
        untold = sorted(spans.keys() - truth.keys())
        if untold:
            raise TrendlabError(f"{truth_path}: no windows for stock {untold[0]}")
        cp, tof = pipeline.oracle_cp_scorer(truth), pipeline.oracle_tof_scorer(truth)
    else:
        cp, tof = (
            _load_stage_model(Path(args.models) / f"{which}_model.json", which, names)
            for which, names in (("cp", CP_FEATURE_NAMES), ("tof", TOF_FEATURE_NAMES))
        )
        # the tof test rows with their window fractions, for fraction_accuracy.csv
        tof_X, tof_y = read_feature_csv(prepared / "tof_test.csv", TOF_FEATURE_NAMES)
        _, _, fractions = read_tof_meta(prepared / "tof_test_meta.csv", len(tof_y))
    # Both stages are scored once for every stock and threshold, a model stage
    # in one predict_proba call over every stock; each threshold walks those scores.
    with _naming_quotes_file(quote_paths):
        scores = pipeline.score_stocks(spans, cp, tof, configs, log_mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    stats_by_threshold: list[list[pipeline.StockStats]] = [[] for _ in configs]
    for stock, stock_scores in scores.items():
        for cfg, stats_list in zip(configs, stats_by_threshold):
            trace, stats = pipeline.run_pipeline(stock_scores, cfg)
            trace.to_csv(out_dir / f"trace_{stock}_t{cfg.cp_threshold:.2f}.csv")
            stats_list.append(stats)

    datapoints = sum(len(sliced) for sliced in spans.values())
    for cfg, stats_list in zip(configs, stats_by_threshold):
        report = pipeline.aggregate(stats_list, num_datapoints=datapoints)
        report = replace(report, flags=report.flags + skip_flags)
        pipeline.save_report(
            report, out_dir / f"backtest_report_t{cfg.cp_threshold:.2f}.json", per_stock=stats_list
        )
        print(
            f"backtest t={cfg.cp_threshold:.2f}: YearProfit {report.year_profit:.2%} | "
            f"YearProfit_avg {report.year_profit_avg:.2%} | times_in {report.times_in}"
        )

    if not args.oracle:
        hits = (gbdt.predict_proba(tof, tof_X) >= args.tof_threshold) == tof_y
        write_fraction_accuracy(fractions, hits, out_dir / "fraction_accuracy.csv")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    if args.prepared is not None and (args.split_date, args.split_frac) != (None, None):
        args.parser.error("--prepared sets the split date; drop --split-date and --split-frac")
    data_dir = Path(args.data)
    quotes, _, label_paths = _load_universe(data_dir)
    if args.prepared is None:
        split_date = _split_date(args, quotes)
    else:
        split_date = load_prep_report(Path(args.prepared) / "prep_report.json")["split_date"]
    spans, skip_flags = pipeline.backtest_spans(quotes, split_date)
    truth_path = data_dir / "truth.json"  # the generator's windows, when there are any
    truth = _load_truth(truth_path, quotes) if truth_path.exists() else {}
    if not label_paths and not truth:
        raise FileNotFoundError(f"no labels_*.csv files and no truth.json windows in {data_dir}")
    # each expert's, the vote's and the truth's report; a name no window reaches is left out
    streams = _window_streams(quotes, label_paths, args.experts, data_dir)
    expert_names = sorted({e for by_expert in streams.values() for e in by_expert})
    window_maps = {
        expert: {stock: by_e[expert] for stock, by_e in streams.items() if expert in by_e}
        for expert in expert_names
    }
    if len(expert_names) > 1:
        window_maps["Average"] = {
            stock: voted_windows(list(by_expert.values()), quotes[stock])
            for stock, by_expert in streams.items()
        }
    if truth:
        window_maps["truth"] = truth
    reports = {
        name: replace(rep, flags=rep.flags + skip_flags)
        for name, window_map in window_maps.items()
        if (rep := pipeline.expert_baseline(window_map, spans)) is not None
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.save_baseline(reports, split_date, out_dir / "baseline_report.json")
    for name in sorted(reports):
        rep = reports[name]
        print(
            f"baseline {name}: YearProfit {rep.year_profit:.2%} | "
            f"YearProfit_avg {rep.year_profit_avg:.2%}"
        )
    return 0


# --- parser -------------------------------------------------------------------

MODEL_HELP = {
    "scale_pos_weight": 'a number, or "auto" to use the prepared train balance',
}


def _add_common(p: argparse.ArgumentParser, *, config: bool = True, seed: bool = True) -> None:
    if config:
        p.add_argument("--config", default=None, help="INI config file")
    if seed:
        p.add_argument("--seed", type=_parse_seed, default=None)
    p.add_argument("-o", "--out", required=True, help="output directory")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    for name, cast in MODEL_TYPES.items():
        if name != "seed":  # a common option
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=cast, default=None, help=MODEL_HELP.get(name))
    p.add_argument(
        "--threads", type=_parse_threads, default=None,
        help='worker processes for a search\'s independent fits, or "all" (one per CPU); '
        "train makes one fit and ignores it",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each command's ``section`` names the config section it reads."""
    parser = argparse.ArgumentParser(prog="trendlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled universe")
    _add_common(p)
    p.add_argument("--stocks", type=_parse_positive, default=5)
    p.add_argument("--days", type=_parse_days, default=2500)
    p.add_argument("--experts", type=_parse_experts, help="comma-separated expert names")
    p.add_argument("--jitter-days", dest="jitter_days", type=int, default=2)
    p.add_argument("--disagree-prob", dest="disagree_prob", type=float, default=0.05)
    p.add_argument("--split-merge-prob", dest="split_merge_prob", type=float, default=0.05)
    p.add_argument("--trend-len", dest="trend_len", type=_pair(int), default=None)
    p.add_argument("--flat-len", dest="flat_len", type=_pair(int), default=None)
    p.add_argument("--drift", type=_pair(float), default=None)
    p.add_argument("--volatility", type=_pair(float), default=None)
    p.set_defaults(func=cmd_synth, parser=p, section="synth", seed=42)

    p = sub.add_parser("prepare", help="build train/test datasets from data files")
    _add_common(p, seed=False)
    p.add_argument("--data", required=True, help="directory with quotes_*/labels_* CSVs")
    p.add_argument("--experts", type=_parse_experts, default=None)
    p.add_argument("--split-date", dest="split_date", type=_parse_date_arg, default=None)
    p.add_argument("--split-frac", dest="split_frac", type=_parse_split_frac, default=None)
    p.add_argument("--log-mode", dest="log_mode", action="store_true", default=True)
    p.add_argument("--raw", dest="log_mode", action="store_false")
    p.add_argument("--averaging", action="store_true")
    p.add_argument("--no-averaging", dest="averaging", action="store_false")
    p.add_argument("--trigger-correction", dest="trigger_correction", action="store_true")
    p.add_argument(
        "--no-trigger-correction", dest="trigger_correction", action="store_false"
    )
    p.set_defaults(func=cmd_prepare, parser=p, section="data")

    p = sub.add_parser("train", help="train the changepoint or trend/flat model")
    p.add_argument("which", choices=("cp", "tof"))
    _add_common(p)
    p.add_argument("--prepared", required=True, help="directory written by prepare")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train, parser=p, section="{which}_model")

    p = sub.add_parser("gridsearch", help="cross-validated hyperparameter search")
    p.add_argument("which", choices=("cp", "tof"))
    _add_common(p)
    p.add_argument("--prepared", required=True)
    p.add_argument(
        "--grid", required=True, type=_grid_file, help="INI file with a [grid] section"
    )
    p.add_argument("--draws", type=_parse_positive, default=None, help="score N random grid points")
    p.add_argument("--folds", type=_parse_folds, default=5)
    p.add_argument("--scoring", default="f1_macro", choices=evaluation.SCORING)
    _add_model_flags(p)
    p.set_defaults(func=cmd_gridsearch, parser=p, section="{which}_model")

    p = sub.add_parser("backtest", help="run the two-stage simulation on the test span")
    _add_common(p, config=False, seed=False)
    p.add_argument("--data", required=True)
    p.add_argument(
        "--prepared", required=True,
        help="directory written by prepare; sets the test span and the feature space",
    )
    p.add_argument("--models", default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument(
        "--cp-threshold", dest="cp_threshold", type=_float_list, default="0.5",
        help="one value or a comma list, e.g. 0.5,0.65,0.85",
    )
    p.add_argument("--tof-threshold", dest="tof_threshold", type=float, default=0.5)
    p.add_argument("--min-window-days", dest="min_window_days", type=int, default=6)
    p.add_argument(
        "--hold-until-changepoint", dest="hold_until_changepoint", action="store_true"
    )
    p.set_defaults(func=cmd_backtest, parser=p)

    p = sub.add_parser("baseline", help="profit of the expert labels themselves")
    _add_common(p, config=False, seed=False)
    p.add_argument("--data", required=True)
    p.add_argument("--experts", type=_parse_experts, default=None)
    p.add_argument("--split-date", dest="split_date", type=_parse_date_arg, default=None)
    p.add_argument("--split-frac", dest="split_frac", type=_parse_split_frac, default=None)
    p.add_argument(
        "--prepared", default=None,
        help="directory written by prepare; its split date sets the test span",
    )
    p.set_defaults(func=cmd_baseline, parser=p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # flag, then config key, then built-in default: argparse fills an
            # unset option from its parser's defaults
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        try:
            return int(args.func(args) or 0)
        except ConfigError as exc:  # a settings type rejected a value
            args.parser.error(str(exc))
    except SystemExit as exc:  # argparse's usage errors (and --help)
        return int(exc.code) if exc.code is not None else 0
    except configparser.Error as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TrendlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
