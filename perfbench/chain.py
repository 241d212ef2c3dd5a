"""One fresh process: set up, run a workload's command chain, check it.

Started by ``run.py``, once per chain and once per set-up probe::

    python3 perfbench/chain.py --workload W --seed N --workspace DIR \
        --started MONOTONIC --result FILE [--seconds S] [--trace] [--smoke] [--probe]

``--started`` is the parent's ``time.monotonic()`` just before it spawned
this process, so set-up time covers interpreter start, ``import trendlab``
and creating the workspace. After the chain, the commands marked ``again``
are called in rounds until ``--seconds`` after ``--started``. The result is
one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _setup(workspace: Path):
    """What every chain pays before its first command."""
    sys.path.insert(0, str(ROOT / "src"))
    import trendlab
    import trendlab.cli

    if not Path(trendlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"trendlab imported from {trendlab.__file__}, not {ROOT / 'src'}")
    workspace.mkdir(parents=True)
    os.chdir(workspace)
    return trendlab


def _call(main, argv: tuple[str, ...]) -> tuple[int, float]:
    started = time.perf_counter()
    try:
        code = main(list(argv))
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - started


# On a shared machine the speed of a core drifts by tens of percent within
# seconds. A fixed calibration loop (interpreter and numpy work, like
# trendlab's) runs three times before and after every command call, and
# after set-up; its time is the median of the three, as one pass of a few
# milliseconds can take twice as long after a stall that slows a call of
# seconds far less. Each call's time is scaled by REFERENCE_CAL_S over the
# mean of the loop times before and after it, which gives its seconds at the
# speed where the loop takes REFERENCE_CAL_S. Wall seconds are kept next to
# the scaled ones.
REFERENCE_CAL_S = 0.013

# Rounds go on past the run's end until every command called again has this
# many calls, so no median rests on one or two calls when the machine is slow.
MIN_CALLS = 3


class Calibration:
    """Callable that gives the median time of three passes of the calibration loop."""

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(20000)

    def _once(self) -> float:
        np, x = self._np, self._x
        started = time.perf_counter()
        acc: dict[int, float] = {}
        for i in range(13000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        for _ in range(5):
            np.argsort(x, kind="stable")
        for _ in range(1000):
            x[:64].sum()
        return time.perf_counter() - started

    def __call__(self) -> float:
        return statistics.median(self._once() for _ in range(3))


class ChainRunner:
    """Calls commands through ``cli.main`` and keeps the time of every call.

    ``wall`` holds each call's wall seconds, ``scaled`` the same seconds at
    the reference speed of the calibration loop.
    """

    def __init__(self, trendlab, commands, tracer, calibrate: Calibration) -> None:
        self.main = trendlab.cli.main
        self.tracer = tracer
        self.wall: dict[str, list[float]] = {c.metric: [] for c in commands}
        self.scaled: dict[str, list[float]] = {c.metric: [] for c in commands}
        self.attempted = self.failed = 0
        self.calibrate = calibrate
        self.last_cal = calibrate()

    def call(self, cmd) -> None:
        if self.tracer is None:
            code, seconds = _call(self.main, cmd.argv)
        else:
            if cmd.argv[0] == "backtest":
                self.tracer.new_scope()
            with self.tracer.span(f"cli.{cmd.argv[0]}"):
                code, seconds = _call(self.main, cmd.argv)
        cal = self.calibrate()
        self.attempted += 1
        self.failed += code != 0
        self.wall[cmd.metric].append(seconds)
        self.scaled[cmd.metric].append(seconds * REFERENCE_CAL_S * 2.0 / (self.last_cal + cal))
        self.last_cal = cal

    def rounds(self, commands, deadline: float) -> None:
        """Call ``commands`` again, in order and round after round, until each
        has ``MIN_CALLS`` calls and then while the next call, taking as long
        as its last one, ends before ``deadline``."""
        while commands:
            for cmd in commands:
                enough = min(len(self.wall[c.metric]) for c in commands) >= MIN_CALLS
                if enough and time.monotonic() + self.wall[cmd.metric][-1] >= deadline:
                    return
                self.call(cmd)


def _quality(workspace: Path, report_threshold: str) -> dict[str, float | None]:
    def read(path: Path) -> dict:
        return json.loads(path.read_text(encoding="utf-8"))

    return {
        "cp_test_auc": read(workspace / "models" / "cp_metrics.json")["test"]["auc"],
        "tof_test_auc": read(workspace / "models" / "tof_metrics.json")["test"]["auc"],
        "year_profit_avg": read(
            workspace / "reports" / f"backtest_report_t{report_threshold}.json"
        )["YearProfit_avg"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workspace", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="fill this long after --started with rounds of short commands")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    trendlab = _setup(args.workspace)
    setup_s = time.monotonic() - args.started
    calibrate = Calibration()
    result: dict = {"setup_s": setup_s * REFERENCE_CAL_S / calibrate(), "setup_wall_s": setup_s}
    if args.probe:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    import checks
    import workloads

    (args.workspace / "grid.ini").write_text(workloads.GRID_INI, encoding="utf-8")
    commands = workloads.commands(args.workload, args.seed, smoke=args.smoke)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(trendlab)
    runner = ChainRunner(trendlab, commands, tracer, calibrate)
    try:
        for cmd in commands:
            runner.call(cmd)
    finally:
        if tracer is not None:
            tracer.restore()
    first_digest = checks.artifact_digest(args.workspace)
    if tracer is None:
        runner.rounds([c for c in commands if c.again], args.started + args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = checks.artifact_digest(args.workspace)
    found = [checks.Check("digest:rounds", digest == first_digest, "calling again changed artifacts")]
    found += checks.check_backtest_profits(args.workspace)
    found += checks.check_model_aucs(args.workspace, trendlab.gbdt)
    for c in found:
        if not c.ok:
            print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    try:
        quality = _quality(args.workspace, workloads.REPORT_THRESHOLD)
    except (OSError, KeyError, ValueError) as exc:
        print(f"quality metrics unavailable: {exc}", file=sys.stderr)
        quality = {}

    import numpy

    result.update(
        times={name: statistics.median(v) for name, v in runner.scaled.items()},
        wall_times={name: statistics.median(v) for name, v in runner.wall.items()},
        samples={name: len(v) for name, v in runner.wall.items()},
        attempted=runner.attempted + len(found),
        failed=runner.failed + sum(not c.ok for c in found),
        checks=len(found),
        peak_rss_mb=peak_rss_mb,
        quality=quality,
        digest=digest,
        numpy=numpy.__version__,
    )
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["spans"] = len(tracer.span_name)
        tracer.write_spans(args.workspace / "spans.tsv")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
