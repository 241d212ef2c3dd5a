"""The benchmark's workloads: seeded chains of ``trendlab`` commands.

Each workload is a list of commands run in order in a scratch workspace that
holds ``data/``, ``prepared/``, ``models/``, ``search/`` and ``reports/``.
The benchmark seed is passed to ``synth``; every later command reads only
the files that ``synth`` generated from it. A smoke variant of each workload
runs the same commands on a tiny universe with few trees, so the harness,
its checks and its traced run can be exercised end to end in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("walkthrough", "deep-models", "sweep")

# Every workload backtests at cp threshold 0.5, so year_profit_avg (read from
# the t0.50 report) means the same thing on all of them.
REPORT_THRESHOLD = "0.50"

GRID_INI = "[grid]\nmax_depth = 3,5\nlearning_rate = 0.1,0.2\n"


@dataclass(frozen=True)
class Command:
    """One ``cli.main`` call; ``metric`` names its end-to-end time.

    ``again`` marks a command short enough to be called again in the rounds
    that fill the rest of a run after the chain, so its median rests on
    samples spread over the whole run. Calling it again rewrites the same
    files, as every command is deterministic.
    """

    metric: str
    argv: tuple[str, ...]
    again: bool = False


@dataclass(frozen=True)
class Sizes:
    stocks: int
    days: int
    cp_trees: int
    tof_trees: int | None  # None keeps the command's default
    grid_trees: int = 30


FULL = {
    "walkthrough": Sizes(stocks=5, days=2500, cp_trees=60, tof_trees=60),
    "deep-models": Sizes(stocks=5, days=2500, cp_trees=15, tof_trees=None, grid_trees=10),
    "sweep": Sizes(stocks=6, days=3000, cp_trees=60, tof_trees=None),
}
SMOKE = Sizes(stocks=3, days=1200, cp_trees=5, tof_trees=5, grid_trees=5)


def _trees(n: int | None) -> tuple[str, ...]:
    return () if n is None else ("--n-estimators", str(n))


def commands(workload: str, seed: int, smoke: bool = False) -> list[Command]:
    """The command chain of ``workload`` for benchmark seed ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    size = SMOKE if smoke else FULL[workload]
    synth = ("synth", "--seed", str(seed), "--stocks", str(size.stocks),
             "--days", str(size.days), "-o", "data")
    model_io = ("--prepared", "prepared", "-o", "models")
    backtest = ("backtest", "--data", "data", "--prepared", "prepared",
                "--models", "models", "-o", "reports")

    prepare = ("prepare", "--data", "data", "-o", "prepared", "--trigger-correction")
    baseline = ("baseline", "--data", "data", "-o", "reports")

    if workload == "walkthrough":
        shallow = ("--max-depth", "3", "--threads", "1")
        return [
            Command("synth_s", synth, again=True),
            Command("prepare_s", prepare, again=True),
            Command("train_cp_s", ("train", "cp", *model_io, *_trees(size.cp_trees), *shallow)),
            Command("train_tof_s", ("train", "tof", *model_io, *_trees(size.tof_trees), *shallow),
                    again=True),
            Command("backtest_s", (*backtest, "--cp-threshold", "0.5,0.65,0.85"), again=True),
            Command("baseline_s", baseline, again=True),
        ]

    if workload == "deep-models":
        # A longer test span than the default 0.7 split averages the
        # single-threshold backtest over more windows.
        split = ("--split-frac", "0.5")
        # Regimes shorter and less varied in length than synth's defaults
        # (trends of 40-600 days, flats of 20-200) give about three times
        # the windows, in a count that barely moves with the seed. The tof
        # fit time follows the row count and the tree size, both of which
        # varied by a fifth from seed to seed at the defaults.
        regimes = ("--trend-len", "60,120", "--flat-len", "30,60")
        return [
            Command("synth_s", (*synth, *regimes), again=True),
            Command("prepare_s", (*prepare, *split), again=True),
            Command("train_cp_s", ("train", "cp", *model_io, *_trees(size.cp_trees),
                                   "--max-depth", "7", "--threads", "1"), again=True),
            # One thread for the two trainings: at two, a fit on a shared
            # 2-core machine took from one to three times its one-thread
            # time. The search keeps two threads, so the pool is measured.
            Command("train_tof_s", ("train", "tof", *model_io, *_trees(size.tof_trees),
                                    "--threads", "1"), again=True),
            Command("gridsearch_s", ("gridsearch", "tof", "--prepared", "prepared", "-o", "search",
                                     "--grid", "grid.ini", "--folds", "5",
                                     *_trees(size.grid_trees), "--threads", "2")),
            Command("backtest_s", (*backtest, "--cp-threshold", "0.5"), again=True),
            Command("baseline_s", (*baseline, *split), again=True),
        ]

    thresholds = ",".join(f"0.{k}" for k in range(1, 10))
    return [
        Command("synth_s", (*synth, "--experts", "D,G,K"), again=True),
        Command("prepare_s", (*prepare, "--averaging", "--split-frac", "0.4"), again=True),
        Command("train_cp_s", ("train", "cp", *model_io, *_trees(size.cp_trees),
                               "--max-depth", "3")),
        # Depth 3, not the default 5: on a few hundred rows the node count of
        # depth-5 trees, and so the fit time, varies too much from seed to seed.
        Command("train_tof_s", ("train", "tof", *model_io, *_trees(size.tof_trees),
                                "--max-depth", "3"), again=True),
        Command("backtest_s", (*backtest, "--cp-threshold", thresholds)),
        Command("baseline_s", (*baseline, "--split-frac", "0.4"), again=True),
    ]
