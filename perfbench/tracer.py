"""Span tracer that wraps the public functions of ``trendlab`` from outside.

``Tracer.install`` replaces every public function, method and property
defined in the traced modules with a wrapper that records a span (name,
start, end, parent) and, for a few layers, a work count. Each module that
imported a name binds it again, so ``cli``'s ``from .features import
write_feature_csv`` is traced too. Nothing under ``src/`` changes; ``restore``
puts the originals back. The ``cli`` layer is traced by the harness itself:
one span per command, named ``cli.<command>``, around ``cli.main``.

Spans live in flat arrays while the chain runs and are written out after it.
Only the main thread records spans; calls from worker threads pass through.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TRACED_MODULES = ("market_data", "labels", "features", "gbdt", "evaluation", "pipeline", "synth")
CLI_COMMANDS = ("synth", "prepare", "train", "gridsearch", "backtest", "baseline")
# Read once per tree level for every scored row: tens of millions of calls on
# a backtest, which a span each would slow many times over.
UNTRACED = {"gbdt.TreeNode.is_leaf"}
COUNTS = (
    "market_data.load_quotes.bars", "market_data.merge_label_files.rows",
    "features.write_feature_csv.bytes", "features.tof_features.bars", "gbdt.fit.rows",
    "gbdt.fit.cpu_s", "gbdt.fit.nodes", "gbdt.predict_proba.rows",
    "pipeline.run_pipeline.days", "pipeline.positions",
)


def _count_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = [-1]
        self._active: dict[int, int] = defaultdict(int)
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._tof_seen: set[tuple] = set()
        self._pipeline_id = self._id("pipeline.run_pipeline")
        for command in CLI_COMMANDS:
            self._id(f"cli.{command}")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1])
        self._stack.append(idx)
        self._active[nid] += 1
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def new_scope(self) -> None:
        """Start a fresh set of scored trend/flat rows (one per backtest command)."""
        self._tof_seen = set()

    # --- work counts ----------------------------------------------------------

    def _count(self, name: str, args: tuple, kwargs: dict, result, cpu_s: float) -> None:
        c = self.counts
        if name == "market_data.load_quotes":
            c["market_data.load_quotes.bars"] += len(result)
        elif name == "market_data.merge_label_files":
            c["market_data.merge_label_files.rows"] += len(result)
        elif name == "features.write_feature_csv":
            path = kwargs.get("path", args[3] if len(args) > 3 else None)
            c["features.write_feature_csv.bytes"] += os.path.getsize(path)
        elif name == "features.tof_features":
            c["features.tof_features.bars"] += result.len_trend
            if self._active[self._pipeline_id]:
                key = (result.reg_close, result.close_r2, result.reg_vol, result.vol_r2,
                       result.len_trend)
                c["pipeline.tof_rows.scored"] += 1
                if key in self._tof_seen:
                    c["pipeline.tof_rows.repeats"] += 1
                else:
                    self._tof_seen.add(key)
        elif name == "gbdt.fit":
            X = args[0] if args else kwargs["X"]
            c["gbdt.fit.rows"] += len(X)
            c["gbdt.fit.cpu_s"] += cpu_s
            c["gbdt.fit.nodes"] += sum(_count_nodes(t) for t in result.trees)
        elif name == "gbdt.predict_proba":
            X = args[1] if len(args) > 1 else kwargs["X"]
            c["gbdt.predict_proba.rows"] += len(X)
        elif name == "pipeline.run_pipeline":
            series = args[0] if args else kwargs["series"]
            c["pipeline.run_pipeline.days"] += len(series)
            c["pipeline.positions"] += len(result[0].positions)

    COUNTED = {
        "market_data.load_quotes", "market_data.merge_label_files",
        "features.write_feature_csv", "features.tof_features", "gbdt.fit",
        "gbdt.predict_proba", "pipeline.run_pipeline",
    }

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self
        counted = name in self.COUNTED
        cpu = name == "gbdt.fit"

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            cpu0 = time.process_time() if cpu else 0.0
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nid)
            if counted:
                cpu_s = time.process_time() - cpu0 if cpu else 0.0
                tracer._count(name, args, kwargs, result, cpu_s)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, target: object, attr: str, value: object) -> None:
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self, package) -> None:
        """Wrap the public callables of ``package``'s traced modules."""
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for short in TRACED_MODULES:
            mod = getattr(package, short)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{name}", obj)
                    replaced[id(obj)] = wrapper
                    self._set(mod, name, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(f"{short}.{name}", obj)
        # Rebind names that other modules imported with ``from .x import name``.
        for mod_name in (*TRACED_MODULES, "cli"):
            mod = getattr(package, mod_name)
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])

    def _install_class(self, prefix: str, cls: type) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") or f"{prefix}.{attr}" in UNTRACED:
                continue
            if isinstance(val, property) and val.fget is not None:
                wrapped = property(self._wrap(f"{prefix}.{attr}", val.fget), val.fset, val.fdel)
                self._set(cls, attr, wrapped)
            elif isinstance(val, (staticmethod, classmethod)):
                self._set(cls, attr, type(val)(self._wrap(f"{prefix}.{attr}", val.__func__)))
            elif inspect.isfunction(val):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", val))

    def restore(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # --- results --------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """``<name>.s`` (outermost spans), ``.self_s``, ``.calls`` and the work counts."""
        n_names = len(self.names)
        total = [0.0] * n_names
        self_s = [0.0] * n_names
        calls = [0] * n_names
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        child_time = [0.0] * len(names)
        for i in range(len(names) - 1, -1, -1):
            d = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child_time[p] += d
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += d - child_time[i]
            # a span nested in one of the same name is already counted by it
            q = p
            while q >= 0 and names[q] != nid:
                q = parents[q]
            if q < 0:
                total[nid] += d
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.s"] = total[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.calls"] = calls[nid]
        out.update(dict.fromkeys(COUNTS, 0.0))
        out.update(self.counts)
        tof_calls = out.get("features.tof_features.calls", 0)
        out["features.tof_features.bars_per_call"] = (
            out.get("features.tof_features.bars", 0.0) / tof_calls if tof_calls else 0.0
        )
        scored = out.pop("pipeline.tof_rows.scored", 0.0)
        repeats = out.pop("pipeline.tof_rows.repeats", 0.0)
        out["pipeline.tof_rows.repeat_share"] = repeats / scored if scored else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )
