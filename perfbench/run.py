"""trendlab benchmark: time seeded chains of CLI commands, check their outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 35 --trace 0

The chain runs in a fresh process (``chain.py``) that imports ``trendlab``
from ``src/`` and calls ``trendlab.cli.main(argv)`` once per command, then
calls the short commands again in rounds until ``--seconds`` is used up;
each command's time is the median of its calls. Fresh processes that stop
after set-up give the set-up time. ``--trace 0`` prints the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` adds one traced chain and
prints the per-layer metrics instead. ``--smoke`` runs a tiny variant.

The second-to-last stdout line is ``{"info": ...}`` (environment, artifact
digest, sample counts); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
TIME_LIMIT_S = 165.0  # a run must end within 180 s


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None


class Runner:
    """Spawns chain processes for one workload and seed inside ``run_dir``."""

    def __init__(self, run_dir: Path, workload: str, seed: int, smoke: bool, deadline: float):
        self.run_dir = run_dir
        self.base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        self.deadline = deadline
        self.spawned = 0

    def spawn(self, *flags: str) -> dict | None:
        """Run one chain process; its result, or None if it failed or timed out."""
        tag = f"p{self.spawned:02d}"
        self.spawned += 1
        result = self.run_dir / f"{tag}.json"
        with (self.run_dir / f"{tag}.log").open("w", encoding="utf-8") as log:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "chain.py"), *self.base, *flags,
                 "--workspace", str(self.run_dir / tag), "--result", str(result),
                 "--started", repr(started)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                print(f"{tag}: timed out, see {log.name}", file=sys.stderr)
                return None
        if code != 0 or not result.is_file():
            print(f"{tag}: exit code {code}, see {log.name}", file=sys.stderr)
            return None
        return json.loads(result.read_text(encoding="utf-8"))


def _chain_metrics(chain: dict) -> dict[str, float]:
    """Per-command medians, their sum, peak memory and the quality figures."""
    out = dict(chain["times"])
    out["chain_s"] = sum(chain["times"].values())
    out["peak_rss_mb"] = chain["peak_rss_mb"]
    out.update((k, v) for k, v in chain["quality"].items() if v is not None)
    return out


def _select(spec: list[dict], values: dict[str, float]) -> dict[str, dict]:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny variant of the workload")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench_work",
                        help="scratch directory for workspaces (default: .perfbench_work)")
    args = parser.parse_args(argv)

    run_start = time.monotonic()
    if not (ROOT / "src" / "trendlab" / "__init__.py").is_file():
        print(f"no trendlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, commands

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    calls_per_chain = len(commands(args.workload, args.seed, args.smoke))

    run_dir = args.workdir / (args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, args.workload, args.seed, args.smoke, run_start + TIME_LIMIT_S)
    load_before = os.getloadavg()
    attempted = failed = 0

    def probe_setups(n: int) -> list[dict]:
        nonlocal attempted, failed
        found = [runner.spawn("--probe") for _ in range(n)]
        attempted += n
        failed += sum(p is None for p in found)
        return [p for p in found if p is not None]

    # Set-up probes sit on both sides of the chain so their median spans the run.
    n_probes = 0 if args.trace else 2 if args.smoke else SETUP_PROBES
    setups = probe_setups(n_probes // 2)
    # A traced run compares one untraced pass with one traced pass.
    chain = runner.spawn("--seconds", "0" if args.trace else str(args.seconds))
    if chain is None:
        attempted += calls_per_chain
        failed += calls_per_chain
    else:
        attempted += chain["attempted"]
        failed += chain["failed"]
        setups.append(chain)
    setups += probe_setups(n_probes - n_probes // 2)

    traced = None
    if args.trace and chain is not None:
        traced = runner.spawn("--trace")
        attempted += 1
        if traced is None:
            failed += 1
        else:
            # the traced chain must leave the same artifacts as the untraced one
            attempted += traced["attempted"] + 1
            failed += traced["failed"] + (traced["digest"] != chain["digest"])

    values: dict[str, float] = {}
    if chain is not None:
        values = _chain_metrics(chain)
    if setups:
        values["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    if traced is not None:
        values.update(traced["layers"])
        values["trace.overhead_s"] = sum(traced["times"].values()) - sum(chain["times"].values())

    digest = None if chain is None else chain["digest"]
    expected = recorded.get(args.workload, {}).get(str(args.seed)) if not args.smoke else None
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "samples": None if chain is None else {**chain["samples"], "setup_s": len(setups)},
        "wall_s": {
            **({} if chain is None else chain["wall_times"]),
            "setup_s": statistics.median(p["setup_wall_s"] for p in setups) if setups else None,
        },
        "quality": None if chain is None else chain["quality"],
        "digest": digest,
        "recorded_digest": expected,
        "digest_match": None if expected is None else digest == expected,
        "spans": None if traced is None else traced["spans"],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": None if chain is None else chain["numpy"],
            "git_commit": _git_commit(ROOT),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }
    print(json.dumps({"info": info}, sort_keys=True))
    try:
        metrics = _select(spec["per_layer"] if args.trace else spec["end_to_end"], values)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        metrics = {}
        failed = max(failed, 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
