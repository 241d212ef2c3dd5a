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

Split finding is presorted, as in XGBoost's column blocks (Chen & Guestrin,
KDD 2016, section 4.1): ``fit`` sorts each feature's row ids once, and a
tree's row subsample filters that order. Trees grow level by level. Each
feature keeps its row ids ordered by (node, value); one pass per level and
feature scores every node of the level, and a stable sort on each row's
child id then splits the order into the children without comparing values
again. Gradient sums run as one sequential cumsum per node in value order,
and leaf sums over the node's rows in ascending row order, exactly as a
per-node sort would have them, so the models are those of a recursive
per-node search.

Determinism: ties between equal-gain splits resolve to the lowest feature
index, then the lowest threshold; the per-tree row subsample is drawn from a
generator seeded by (seed, tree index). Missing feature values are never
produced by this pipeline and ``fit`` rejects non-finite features; at
prediction time NaN routes down the left branch.

Prediction transposes the rows once per call. A model grown at most
``_SELECT_MAX_DEPTH`` deep evaluates each tree as one comparison and one
select per split over every row; a deeper one walks each tree, sending each
node only its own rows. The select visits every split with every row, and the
walk about ``max_depth`` splits per row but gathers the row ids at each. The
select is the faster up to depth 4; from depth 5 the walk wins on a few
thousand rows or more and loses little on fewer. Both give every row the
bits of its leaf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ModelFormatError, ShapeError, SingleClassWarning
from .market_data import _read_json, _write_json


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

    def validate(self) -> None:
        for f in fields(self):
            if f.type in ("float", float) and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number")
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


def _leaf_value(G: float, H: float, params: GbdtParams) -> float:
    # no hessian mass and no L2 term: no step, as XGBoost's CalcWeight
    if abs(G) <= params.reg_alpha or H + params.reg_lambda == 0.0:
        w = 0.0
    else:
        w = -(G - math.copysign(params.reg_alpha, G)) / (H + params.reg_lambda)
    return params.learning_rate * w


# Cells (features x rows) a block of features may hold. A level scores and
# partitions one block per numpy call: small enough that the block's
# temporaries stay in cache, large enough that few-feature data makes few
# calls per level.
_BLOCK_CELLS = 1 << 14


def _feature_blocks(n_features: int, n_rows: int) -> list[slice]:
    """Consecutive feature ranges of at most ``_BLOCK_CELLS`` cells each."""
    size = max(1, _BLOCK_CELLS // max(1, n_rows))
    return [slice(lo, min(lo + size, n_features)) for lo in range(0, n_features, size)]


def _score_block(
    Xt: np.ndarray,
    ords: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    starts: np.ndarray,
    params: GbdtParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best split of every node of a level, for a block of features.

    ``Xt`` and ``ords`` hold the block's features: ``ords[b]`` lists the
    level's row ids grouped by node (node k at ``starts[k]:starts[k + 1]``)
    and sorted by the feature's value within each node, ties by row id.
    Returns (found, gain, threshold) of shape (features, nodes): for each
    node, the first maximum over its cuts in value order, found only where
    the gain is positive.
    """
    n_block, m = ords.shape
    heads, tails = starts[:-1], starts[1:] - 1
    sizes = np.diff(starts)
    v = np.take(Xt, ords + np.arange(n_block)[:, None] * Xt.shape[1])
    GL = g[ords]
    HL = h[ords]
    # One sequential cumsum per node. Offsets subtracted from a shared cumsum
    # round differently, and the search often picks between near-tied gains.
    for a, b in zip(heads.tolist(), starts[1:].tolist()):
        np.add.accumulate(GL[:, a:b], axis=1, out=GL[:, a:b])
        np.add.accumulate(HL[:, a:b], axis=1, out=HL[:, a:b])
    G = GL[:, tails]
    H = HL[:, tails]
    GR = np.repeat(G, sizes, axis=1)
    GR -= GL
    HR = np.repeat(H, sizes, axis=1)
    HR -= HL

    # Position p cuts between p and p + 1 when both are in its node and their
    # values differ; the last position of each node cuts nothing.
    upper = np.empty_like(v)
    upper[:, :-1] = v[:, 1:]
    upper[:, tails] = v[:, tails]
    thresholds = v + upper
    thresholds *= 0.5
    ok = v != upper
    ok &= HL >= params.min_child_weight
    ok &= HR >= params.min_child_weight
    # a midpoint that rounds down onto the lower value cannot separate the pair
    ok &= thresholds > v
    # 1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma, in
    # place and in that order; cells that cut nothing are scored, then dropped
    lam = params.reg_lambda
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gain = GL * GL
        gain /= HL + lam
        GR *= GR
        HR += lam
        GR /= HR
        gain += GR
        gain -= np.repeat(G * G / (H + lam), sizes, axis=1)
        gain *= 0.5
        gain -= params.gamma
    np.copyto(gain, -np.inf, where=~ok)

    # First maximum of each node: lowest threshold wins ties, and, as with
    # np.argmax, a NaN gain wins its node. Every node has a hit.
    top = np.maximum.reduceat(gain, heads, axis=1)
    hits = np.flatnonzero((gain == np.repeat(top, sizes, axis=1)) | np.isnan(gain))
    node_heads = heads + np.arange(n_block)[:, None] * m
    first = hits[np.searchsorted(hits, node_heads)]
    best = gain.ravel()[first]
    return ~(best <= 0.0), best, thresholds.ravel()[first]


def _pick_splits(
    scored: list[tuple[np.ndarray, np.ndarray, np.ndarray]], n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the (feature, threshold) of the best split, feature -1 if none.

    Features are reduced in index order and a later one must have a strictly
    greater gain, so the lowest feature wins ties.
    """
    feature = np.full(n_nodes, -1)
    gain = np.zeros(n_nodes)
    threshold = np.zeros(n_nodes)
    f = 0
    for found, gains, thresholds in scored:
        for b in range(len(found)):
            take = found[b] & ((feature < 0) | (gains[b] > gain))
            feature[take] = f
            gain[take] = gains[b][take]
            threshold[take] = thresholds[b][take]
            f += 1
    return feature, threshold


def _leaf(g: np.ndarray, h: np.ndarray, rows: np.ndarray, params: GbdtParams) -> float:
    """Leaf value of the rows ``rows``, summed in ascending row order."""
    return _leaf_value(float(g[rows].sum()), float(h[rows].sum()), params)


def _grow_tree(
    Xt: np.ndarray,
    blocks: list[slice],
    presorted: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    sample: np.ndarray,
    params: GbdtParams,
) -> TreeNode:
    """One tree on the ascending row ids ``sample``, grown level by level.

    ``Xt`` is the transposed matrix and ``presorted`` holds, for each block
    of features, each feature's row ids in value order. Each level scores
    every node on every feature, turns the nodes without a split into
    leaves, and stably partitions the rows of the others, in each feature's
    value order and in ascending order, into their children.
    """
    n = len(g)
    if sample.size < 2:
        return TreeNode(value=_leaf(g, h, sample, params))
    work = [(Xt[s], o) for s, o in zip(blocks, presorted)]
    if sample.size < n:
        in_sample = np.zeros(n, dtype=bool)
        in_sample[sample] = True
        work = [(x, o[in_sample[o]].reshape(len(o), sample.size)) for x, o in work]
    rows = sample
    starts = np.array([0, rows.size])
    root = TreeNode()
    nodes = [root]
    for depth in range(params.max_depth):
        sizes = np.diff(starts)
        node_of = np.repeat(np.arange(len(nodes)), sizes)
        scored = [_score_block(x, o, g, h, starts, params) for x, o in work]
        feature, threshold = _pick_splits(scored, len(nodes))

        goes_left = np.zeros(n, dtype=bool)
        at = feature[node_of] >= 0
        r, k = rows[at], node_of[at]
        goes_left[r] = Xt[feature[k], r] < threshold[k]
        n_left = np.add.reduceat(goes_left[rows], starts[:-1], dtype=np.intp)
        # a split that leaves a child empty (a midpoint that overflowed to
        # inf) makes the node a leaf, as in a recursive search
        split = (feature >= 0) & (n_left > 0) & (n_left < sizes)
        for k in np.flatnonzero(~split).tolist():
            nodes[k].value = _leaf(g, h, rows[starts[k] : starts[k + 1]], params)
        if not split.any():
            break

        # Children in node order, left before right: the j-th split node's
        # children get ids 2j and 2j + 1, and the rows of nodes that became
        # leaves the last id, so a stable sort on the id puts them past
        # ``size``. An id this small sorts by radix.
        n_children = 2 * int(split.sum())
        first = np.full(len(nodes), n_children)
        first[split] = np.arange(0, n_children, 2)
        child = np.zeros(n, dtype=np.min_scalar_type(n_children))
        child[rows] = first[node_of] + (split[node_of] & ~goes_left[rows])
        ids = child[rows]
        child_starts = np.r_[0, np.cumsum(np.bincount(ids)[:n_children])]
        size = int(child_starts[-1])
        rows = rows[np.argsort(ids, kind="stable")[:size]]

        children = []
        for k in np.flatnonzero(split).tolist():
            node = nodes[k]
            node.feature = int(feature[k])
            node.threshold = float(threshold[k])
            node.left, node.right = TreeNode(), TreeNode()
            children += [node.left, node.right]
        if depth + 1 == params.max_depth:
            for c, child in enumerate(children):
                child.value = _leaf(g, h, rows[child_starts[c] : child_starts[c + 1]], params)
            break

        for i, (x, o) in enumerate(work):
            # replaced block by block, so one level's orders are alive at a time
            order = np.argsort(child[o], axis=1, kind="stable")[:, :size]
            work[i] = (x, np.take_along_axis(o, order, axis=1))
        starts = child_starts
        nodes = children
    return root


# The deepest model whose trees are evaluated as one select per split.
_SELECT_MAX_DEPTH = 4


def _select_tree(node: TreeNode, Xt: np.ndarray) -> np.ndarray | float:
    """The leaf value of each row, from the feature-major matrix ``Xt``.

    One comparison and one select per split over every row, so no row ids
    are gathered: ``Xt[f] >= threshold`` is False for NaN, which goes left.
    A single leaf gives its value as a scalar.
    """
    if node.is_leaf:
        return node.value
    right = Xt[node.feature] >= node.threshold
    return np.where(right, _select_tree(node.right, Xt), _select_tree(node.left, Xt))


def _walk_tree(root: TreeNode, Xt: np.ndarray) -> np.ndarray:
    """The leaf value of each row, from a walk that sends each node its own rows."""
    out = np.empty(Xt.shape[1], dtype=np.float64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(Xt.shape[1]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.value
            continue
        right = Xt[node.feature][idx] >= node.threshold  # False for NaN, which goes left
        stack.append((node.left, idx[~right]))
        stack.append((node.right, idx[right]))
    return out


def _tree_evaluator(
    params: GbdtParams,
) -> Callable[[TreeNode, np.ndarray], np.ndarray | float]:
    return _select_tree if params.max_depth <= _SELECT_MAX_DEPTH else _walk_tree


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
    sample_size = max(1, int(round(params.subsample * n))) if params.subsample < 1.0 else n
    blocks = _feature_blocks(Xa.shape[1], sample_size)
    # each feature's row ids in value order, ties by row id, once per fit
    Xt = np.ascontiguousarray(Xa.T)
    presorted = [np.argsort(Xt[s], axis=1, kind="stable") for s in blocks]
    apply_tree = _tree_evaluator(params)
    trees: list[TreeNode] = []
    for m in range(params.n_estimators):
        p = _sigmoid(margins)
        g = (p - y_float) * sample_weight
        h = p * (1.0 - p) * sample_weight
        if params.subsample < 1.0:
            rng = np.random.default_rng([int(params.seed), m])
            sample = np.sort(rng.choice(n, size=sample_size, replace=False))
        else:
            sample = np.arange(n)
        root = _grow_tree(Xt, blocks, presorted, g, h, sample, params)
        margins += apply_tree(root, Xt)
        trees.append(root)
    return GbdtModel(params=params, n_features=Xa.shape[1], trees=trees)


def _margins(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    Xt = np.ascontiguousarray(X.T)
    apply_tree = _tree_evaluator(model.params)
    margins = np.full(len(X), model.base_logit, dtype=np.float64)
    for tree in model.trees:
        margins += apply_tree(tree, Xt)
    return margins


def predict_proba(model: GbdtModel, X: object) -> np.ndarray:
    """Probability of the positive class for each row."""
    Xa = _check_matrix(X)
    if Xa.shape[1] != model.n_features:
        raise ShapeError(f"model expects {model.n_features} features, got {Xa.shape[1]}")
    return _sigmoid(_margins(model, Xa))


def predict_row_proba(model: GbdtModel, row: Sequence[float]) -> float:
    """Probability for a single row: ``predict_proba`` on a one-row matrix."""
    return float(predict_proba(model, [row])[0])


def staged_margins(model: GbdtModel, X: object) -> np.ndarray:
    """Margins after each boosting round, shape (n_trees + 1, n_rows)."""
    Xa = _check_matrix(X)
    Xt = np.ascontiguousarray(Xa.T)
    apply_tree = _tree_evaluator(model.params)
    out = np.empty((len(model.trees) + 1, len(Xa)), dtype=np.float64)
    margins = np.full(len(Xa), model.base_logit, dtype=np.float64)
    out[0] = margins
    for i, tree in enumerate(model.trees):
        margins = margins + apply_tree(tree, Xt)
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
    feature = d["feature"]
    if type(feature) is not int:  # a bool or a float would pass int()
        raise ModelFormatError(f"split on feature {feature!r}, not an integer")
    if not 0 <= feature < n_features:
        raise ModelFormatError(f"split on feature {feature} of a {n_features}-feature model")
    return TreeNode(
        feature=feature,
        # every row goes left at a NaN threshold
        threshold=_finite(d["threshold"]),
        left=_node_from_dict(d["left"], n_features),
        right=_node_from_dict(d["right"], n_features),
    )


def model_to_dict(model: GbdtModel) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "missing_branch": "left",
        "base_logit": model.base_logit,
        "n_features": model.n_features,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "params": asdict(model.params),
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
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # a tree too deep to rebuild
        raise ModelFormatError(f"malformed {FORMAT_NAME} document: {exc!r}") from None


def save_model(model: GbdtModel, path: str | Path) -> None:
    _write_json(model_to_dict(model), path)


def load_model(path: str | Path) -> GbdtModel:
    """The model in ``path``; a file that holds none raises an error naming it."""
    try:
        return model_from_dict(_read_json(path))
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
