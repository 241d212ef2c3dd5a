"""Gradient boosted decision trees for binary classification, from scratch.

Each boosting round fits one regression tree to the first and second
derivatives of the logistic loss at the current margins. Split finding is
exact greedy: every midpoint between consecutive distinct sorted values of
every feature is scored with

    gain = 1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

and a split is kept only if its gain is positive and both children carry at
least ``min_child_weight`` of hessian mass. Leaves get the L1-soft-thresholded
Newton step ``-(G - alpha*sign(G))/(H + lambda)``, stored pre-multiplied by
the learning rate. Rows with a positive target have their gradient and
hessian multiplied by ``scale_pos_weight``, which restores class parity when
set to the negatives:positives ratio.

Determinism: ties between equal-gain splits resolve to the lowest feature
index, then the lowest threshold; the per-tree row subsample is drawn from a
generator seeded by (seed, tree index); the parallel split search reduces
results in feature order, so any thread count gives identical models.
Missing feature values are never produced by this pipeline and ``fit``
rejects non-finite features; at prediction time NaN routes down the left
branch.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ModelFormatError, ShapeError, SingleClassWarning


@dataclass(frozen=True)
class GbdtParams:
    n_estimators: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    subsample: float = 1.0
    scale_pos_weight: float = 1.0
    min_child_weight: float = 1.0
    gamma: float = 0.0
    seed: int = 42
    threads: int | str = 1

    def validate(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.reg_lambda < 0.0 or self.reg_alpha < 0.0:
            raise ValueError("regularization terms must be >= 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.scale_pos_weight <= 0.0:
            raise ValueError("scale_pos_weight must be > 0")
        if self.min_child_weight < 0.0 or self.gamma < 0.0:
            raise ValueError("min_child_weight and gamma must be >= 0")
        if int(self.seed) < 0:
            raise ValueError("seed must be non-negative")
        if self.threads != "all" and (not isinstance(self.threads, int) or self.threads < 1):
            raise ValueError('threads must be a positive int or "all"')

    def resolved_threads(self) -> int:
        if self.threads == "all":
            return max(1, os.cpu_count() or 1)
        return int(self.threads)


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (value only).

    Internal nodes send ``value < threshold`` (and NaN) to the left child.
    Leaf values are already scaled by the learning rate.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


@dataclass
class GbdtModel:
    params: GbdtParams
    n_features: int
    trees: list[TreeNode] = field(default_factory=list)
    base_logit: float = 0.0
    feature_names: tuple[str, ...] | None = None


def _sigmoid(margins: np.ndarray) -> np.ndarray:
    out = np.empty_like(margins, dtype=np.float64)
    pos = margins >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-margins[pos]))
    ez = np.exp(margins[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class _Split:
    gain: float
    feature: int
    threshold: float


def _feature_best_split(
    values: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    gamma: float,
    min_child_weight: float,
) -> tuple[float, float] | None:
    """Best (gain, threshold) for one feature, or None if nothing splits."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    if v[0] == v[-1]:
        return None
    gc = np.cumsum(g[order])
    hc = np.cumsum(h[order])
    G = gc[-1]
    H = hc[-1]
    cut = np.nonzero(v[:-1] != v[1:])[0]
    thresholds = 0.5 * (v[cut] + v[cut + 1])
    GL = gc[cut]
    HL = hc[cut]
    GR = G - GL
    HR = H - HL
    ok = (HL >= min_child_weight) & (HR >= min_child_weight)
    # a midpoint that rounds down onto the lower value cannot separate the pair
    ok &= thresholds > v[cut]
    if not ok.any():
        return None
    parent = G * G / (H + reg_lambda)
    gain = 0.5 * (GL * GL / (HL + reg_lambda) + GR * GR / (HR + reg_lambda) - parent) - gamma
    gain[~ok] = -np.inf
    j = int(np.argmax(gain))  # first max: lowest threshold wins ties
    if gain[j] <= 0.0:
        return None
    return float(gain[j]), float(thresholds[j])


def _best_split(
    X: np.ndarray,
    g_node: np.ndarray,
    h_node: np.ndarray,
    idx: np.ndarray,
    params: GbdtParams,
    pool: ThreadPoolExecutor | None,
) -> _Split | None:
    def search(f: int) -> tuple[float, float] | None:
        return _feature_best_split(
            X[idx, f], g_node, h_node, params.reg_lambda, params.gamma, params.min_child_weight
        )

    n_features = X.shape[1]
    if pool is None:
        results = [search(f) for f in range(n_features)]
    else:
        results = list(pool.map(search, range(n_features)))
    best: _Split | None = None
    for f, res in enumerate(results):
        if res is None:
            continue
        gain, threshold = res
        if best is None or gain > best.gain:
            best = _Split(gain=gain, feature=f, threshold=threshold)
    return best


def _leaf_value(G: float, H: float, params: GbdtParams) -> float:
    if abs(G) <= params.reg_alpha:
        w = 0.0
    else:
        w = -(G - math.copysign(params.reg_alpha, G)) / (H + params.reg_lambda)
    return params.learning_rate * w


def _grow(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    depth: int,
    params: GbdtParams,
    pool: ThreadPoolExecutor | None,
) -> TreeNode:
    if depth < params.max_depth and idx.size >= 2:
        g_node = g[idx]
        h_node = h[idx]
        split = _best_split(X, g_node, h_node, idx, params, pool)
        if split is not None:
            vals = X[idx, split.feature]
            mask = (vals < split.threshold) | np.isnan(vals)
            left_idx = idx[mask]
            right_idx = idx[~mask]
            if left_idx.size and right_idx.size:
                return TreeNode(
                    feature=split.feature,
                    threshold=split.threshold,
                    left=_grow(X, g, h, left_idx, depth + 1, params, pool),
                    right=_grow(X, g, h, right_idx, depth + 1, params, pool),
                )
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    return TreeNode(value=_leaf_value(G, H, params))


def _apply_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.float64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.value
            continue
        vals = X[idx, node.feature]
        mask = (vals < node.threshold) | np.isnan(vals)
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def _check_matrix(X: object) -> np.ndarray:
    try:
        Xa = np.asarray(X, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"feature matrix is not rectangular numeric data: {exc}") from None
    if Xa.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got ndim={Xa.ndim}")
    return Xa


def fit(X: object, y: object, params: GbdtParams | None = None) -> GbdtModel:
    """Train a boosted binary classifier on targets in {0, 1}."""
    params = params or GbdtParams()
    params.validate()
    Xa = _check_matrix(X)
    if not np.isfinite(Xa).all():
        raise ShapeError("feature matrix contains NaN or infinite values")
    ya = np.asarray(y)
    if ya.ndim != 1 or len(ya) != len(Xa):
        raise ShapeError(f"targets of length {ya.shape} do not match {len(Xa)} rows")
    if np.any(np.isnan(ya.astype(np.float64))):
        raise ShapeError("targets contain NaN")
    ya = ya.astype(np.int64)
    if not np.all((ya == 0) | (ya == 1)):
        raise ShapeError("targets must be 0 or 1")
    if len(np.unique(ya)) < 2:
        warnings.warn("training targets contain a single class", SingleClassWarning)

    n = len(Xa)
    sample_weight = np.where(ya == 1, params.scale_pos_weight, 1.0)
    y_float = ya.astype(np.float64)
    margins = np.zeros(n, dtype=np.float64)
    n_threads = min(params.resolved_threads(), Xa.shape[1])
    pool = ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else None
    trees: list[TreeNode] = []
    try:
        for m in range(params.n_estimators):
            p = _sigmoid(margins)
            g = (p - y_float) * sample_weight
            h = p * (1.0 - p) * sample_weight
            if params.subsample < 1.0:
                rng = np.random.default_rng([int(params.seed), m])
                size = max(1, int(round(params.subsample * n)))
                idx = np.sort(rng.choice(n, size=size, replace=False))
            else:
                idx = np.arange(n)
            root = _grow(Xa, g, h, idx, 0, params, pool)
            margins += _apply_tree(root, Xa)
            trees.append(root)
    finally:
        if pool is not None:
            pool.shutdown()
    return GbdtModel(params=params, n_features=Xa.shape[1], trees=trees)


def _margins(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    margins = np.full(len(X), model.base_logit, dtype=np.float64)
    for tree in model.trees:
        margins += _apply_tree(tree, X)
    return margins


def predict_proba(model: GbdtModel, X: object) -> np.ndarray:
    """Probability of the positive class for each row."""
    Xa = _check_matrix(X)
    if Xa.shape[1] != model.n_features:
        raise ShapeError(f"model expects {model.n_features} features, got {Xa.shape[1]}")
    return _sigmoid(_margins(model, Xa))


def predict_row_proba(model: GbdtModel, row: Sequence[float]) -> float:
    """Single-row probability without array plumbing (used by the simulator)."""
    if len(row) != model.n_features:
        raise ShapeError(f"model expects {model.n_features} features, got {len(row)}")
    margin = model.base_logit
    for tree in model.trees:
        node = tree
        while not node.is_leaf:
            v = row[node.feature]
            node = node.left if (v < node.threshold or math.isnan(v)) else node.right
        margin += node.value
    return float(_sigmoid(np.array([margin]))[0])


def predict(model: GbdtModel, X: object, threshold: float = 0.5) -> np.ndarray:
    """Hard labels: 1 whenever the probability is at or above the threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return (predict_proba(model, X) >= threshold).astype(np.int64)


def staged_margins(model: GbdtModel, X: object) -> np.ndarray:
    """Margins after each boosting round, shape (n_trees + 1, n_rows)."""
    Xa = _check_matrix(X)
    out = np.empty((len(model.trees) + 1, len(Xa)), dtype=np.float64)
    margins = np.full(len(Xa), model.base_logit, dtype=np.float64)
    out[0] = margins
    for i, tree in enumerate(model.trees):
        margins = margins + _apply_tree(tree, Xa)
        out[i + 1] = margins
    return out


# --- serialization ---------------------------------------------------------

FORMAT_NAME = "trendlab.gbdt"
FORMAT_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"leaf": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _finite(value: object) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {number!r}")
    return number


def _node_from_dict(d: dict, n_features: int) -> TreeNode:
    if "leaf" in d:
        return TreeNode(value=_finite(d["leaf"]))
    feature = int(d["feature"])
    if not 0 <= feature < n_features:
        raise ModelFormatError(f"split on feature {feature} of a {n_features}-feature model")
    return TreeNode(
        feature=feature,
        threshold=float(d["threshold"]),
        left=_node_from_dict(d["left"], n_features),
        right=_node_from_dict(d["right"], n_features),
    )


def model_to_dict(model: GbdtModel) -> dict:
    params = asdict(model.params)
    params.pop("threads")  # execution knob, not a property of the fitted model
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "missing_branch": "left",
        "base_logit": model.base_logit,
        "n_features": model.n_features,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "params": params,
        "trees": [_node_to_dict(t) for t in model.trees],
    }


def model_from_dict(doc: dict) -> GbdtModel:
    """Rebuild a model; raise ``ModelFormatError`` on a malformed or foreign document."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported {FORMAT_NAME} version {doc.get('version')!r}")
    try:
        n_features = int(doc["n_features"])
        names = doc.get("feature_names")
        if names and len(names) != n_features:
            raise ValueError(f"{len(names)} feature names for {n_features} features")
        params = GbdtParams(**doc["params"])
        params.validate()
        return GbdtModel(
            params=params,
            n_features=n_features,
            trees=[_node_from_dict(t, n_features) for t in doc["trees"]],
            base_logit=_finite(doc["base_logit"]),
            feature_names=tuple(names) if names else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed {FORMAT_NAME} document: {exc!r}") from None


def save_model(model: GbdtModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), sort_keys=True, indent=1), encoding="utf-8"
    )


def load_model(path: str | Path) -> GbdtModel:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
