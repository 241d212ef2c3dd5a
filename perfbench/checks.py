"""Output checks and the artifact digest of one workspace.

The checks recompute results without the code that produced them: profits
come from the ``position_state`` column of each trace and the quote closes,
and AUCs from a rank statistic over the saved models' test-set scores.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _closes_by_date(quotes_csv: Path) -> dict[str, float]:
    with quotes_csv.open(newline="", encoding="utf-8") as handle:
        return {row["date"]: float(row["close"]) for row in csv.DictReader(handle)}


def positions_from_trace(trace_csv: Path, closes: dict[str, float]) -> list[tuple[int, float, int]]:
    """(direction, profit, days_in) of every position a trace records, in order.

    On the last row the series-end close overwrites the state with "exit", so
    a position opened that same day is recognised from the signals: a
    trend answer in a window that has not traded yet, with no position left
    open or the old one closed by a changepoint.
    """
    with trace_csv.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    positions: list[tuple[int, float, int]] = []
    traded_windows: set[str] = set()
    open_at: tuple[int, int, float] | None = None  # (row, direction, close)

    def close(i: int, date: str) -> None:
        entry_row, direction, entry_close = open_at
        profit = direction * (closes[date] - entry_close) / entry_close
        positions.append((direction, profit, i - entry_row + 1))

    for i, row in enumerate(rows):
        state, date = row["position_state"], row["date"]
        opens = state in ("enter", "exit_enter")
        if i == len(rows) - 1 and state == "exit":
            opens = (
                row["tof_signal"] == "1"
                and row["window_id"] not in traded_windows
                and (open_at is None or row["cp_signal"] == "1")
            )
            if open_at is not None:
                close(i, date)
            elif not opens:
                raise ValueError(f"{trace_csv.name}: exit without an open position")
        elif state in ("exit", "exit_enter"):
            if open_at is None:
                raise ValueError(f"{trace_csv.name}:{i + 2}: exit without an open position")
            close(i, date)
            open_at = None
        if opens:
            open_at = (i, int(row["direction"]), closes[date])
            traded_windows.add(row["window_id"])
            if i == len(rows) - 1 and state == "exit":
                close(i, date)
    return positions


def check_backtest_profits(workspace: Path) -> list[Check]:
    """Each stock's Times_in, Days_in and Profit in every backtest report."""
    reports = workspace / "reports"
    checks: list[Check] = []
    closes_cache: dict[str, dict[str, float]] = {}
    for report_path in sorted(reports.glob("backtest_report_t*.json")):
        tag = report_path.stem.split("_t")[-1]
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        for entry in doc["per_stock"]:
            stock = entry["stockname"]
            name = f"profit:{stock}:t{tag}"
            if stock not in closes_cache:
                closes_cache[stock] = _closes_by_date(workspace / "data" / f"quotes_{stock}.csv")
            try:
                positions = positions_from_trace(
                    reports / f"trace_{stock}_t{tag}.csv", closes_cache[stock]
                )
            except (OSError, ValueError, KeyError) as exc:
                checks.append(Check(name, False, str(exc)))
                continue
            # Same summation order as the report: longs, then shorts.
            profit = sum(p for d, p, _ in positions if d > 0) + sum(
                p for d, p, _ in positions if d < 0
            )
            got = (len(positions), sum(n for _, _, n in positions), profit)
            want = (entry["Times_in"], entry["Days_in"], entry["Profit"])
            ok = got[:2] == want[:2] and math.isclose(got[2], want[2], rel_tol=1e-12, abs_tol=1e-15)
            checks.append(Check(name, ok, "" if ok else f"recomputed {got}, report {want}"))
    if not checks:
        checks.append(Check("profit", False, "no backtest report with per-stock entries"))
    return checks


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mann-Whitney AUC with mid-ranks for ties; None for a single class."""
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = [r for r in csv.reader(handle)][1:]
    X = np.array([[float(v) for v in r[:-1]] for r in rows], dtype=np.float64)
    y = np.array([int(r[-1]) for r in rows], dtype=np.int64)
    return X, y


def check_model_aucs(workspace: Path, gbdt) -> list[Check]:
    """The saved models, scored on the prepared test sets, give the recorded AUC."""
    checks: list[Check] = []
    for which in ("cp", "tof"):
        name = f"auc:{which}"
        try:
            model = gbdt.load_model(workspace / "models" / f"{which}_model.json")
            X, y = _read_dataset(workspace / "prepared" / f"{which}_test.csv")
            metrics = json.loads(
                (workspace / "models" / f"{which}_metrics.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError, KeyError) as exc:
            checks.append(Check(name, False, str(exc)))
            continue
        got = roc_auc(gbdt.predict_proba(model, X), y)
        want = metrics["test"]["auc"]
        ok = (got is None and want is None) or (
            got is not None and want is not None and math.isclose(got, want, rel_tol=1e-9)
        )
        checks.append(Check(name, ok, "" if ok else f"recomputed {got}, recorded {want}"))
    return checks


DIGEST_DIRS = ("prepared", "models", "search", "reports")


def _digest_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name.startswith("search_") and path.suffix == ".csv":
        # fit_seconds, the last column, is wall-clock time
        lines = data.decode("utf-8").splitlines()
        data = "\n".join(line.rsplit(",", 1)[0] for line in lines).encode("utf-8")
    return data


def artifact_digest(workspace: Path) -> str:
    """sha256 over the prepared sets, models, metrics, searches, traces and reports."""
    h = hashlib.sha256()
    for sub in DIGEST_DIRS:
        base = workspace / sub
        if not base.is_dir():
            continue
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(path.relative_to(workspace).as_posix().encode("utf-8") + b"\0")
            h.update(hashlib.sha256(_digest_bytes(path)).digest())
    return h.hexdigest()
