"""Test-only reference: the recursive boosted-tree fit with a per-node sort.

``reference_fit`` is the training loop ``gbdt.fit`` used before split finding
was presorted once per fit and grown level by level. It grows each tree depth
first; at every node it gathers the node's rows, ``argsort``s every feature
again and scans the sorted values for the best midpoint, reducing features in
index order (a later feature must have a strictly greater gain). Leaves sum
the gradients of the node's rows in ascending row order. The differential
tests hold ``gbdt.fit`` to the exact ``model_to_dict`` of this fit.

``reference_apply_tree`` is the tree evaluator ``gbdt`` used before it took
a feature-major matrix and evaluated shallow models as one select per split:
a stack walk over the row-major matrix that sends each node's own rows down
to its children. The differential tests hold each tree's evaluation and
``predict_proba`` to the bits of this walk, with either evaluator.
"""

from __future__ import annotations

import numpy as np

from trendlab.gbdt import (
    GbdtModel,
    GbdtParams,
    TreeNode,
    _leaf_value,
    _sigmoid,
)


def reference_apply_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Each row's leaf value; a row goes left when below the threshold or NaN."""
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


def reference_margins(model: GbdtModel, X) -> np.ndarray:
    """Each row's margin from the stack walk, the trees added in order."""
    Xa = np.asarray(X, dtype=np.float64)
    margins = np.full(len(Xa), model.base_logit, dtype=np.float64)
    for tree in model.trees:
        margins = margins + reference_apply_tree(tree, Xa)
    return margins


def _feature_best_split(values, g, h, reg_lambda, gamma, min_child_weight):
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
    ok &= thresholds > v[cut]
    if not ok.any():
        return None
    parent = G * G / (H + reg_lambda)
    gain = 0.5 * (GL * GL / (HL + reg_lambda) + GR * GR / (HR + reg_lambda) - parent) - gamma
    gain[~ok] = -np.inf
    j = int(np.argmax(gain))
    if gain[j] <= 0.0:
        return None
    return float(gain[j]), float(thresholds[j])


def _best_split(X, g_node, h_node, idx, params):
    best = None  # (gain, feature, threshold)
    for f in range(X.shape[1]):
        res = _feature_best_split(
            X[idx, f], g_node, h_node, params.reg_lambda, params.gamma, params.min_child_weight
        )
        if res is None:
            continue
        gain, threshold = res
        if best is None or gain > best[0]:
            best = (gain, f, threshold)
    return best


def _grow(X, g, h, idx, depth, params):
    if depth < params.max_depth and idx.size >= 2:
        split = _best_split(X, g[idx], h[idx], idx, params)
        if split is not None:
            _, feature, threshold = split
            vals = X[idx, feature]
            mask = (vals < threshold) | np.isnan(vals)
            left_idx = idx[mask]
            right_idx = idx[~mask]
            if left_idx.size and right_idx.size:
                return TreeNode(
                    feature=feature,
                    threshold=threshold,
                    left=_grow(X, g, h, left_idx, depth + 1, params),
                    right=_grow(X, g, h, right_idx, depth + 1, params),
                )
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    return TreeNode(value=_leaf_value(G, H, params))


def reference_fit(X, y, params: GbdtParams) -> GbdtModel:
    """The recursive fit on a finite matrix and 0/1 targets (no input checks)."""
    Xa = np.asarray(X, dtype=np.float64)
    ya = np.asarray(y).astype(np.int64)
    n = len(Xa)
    sample_weight = np.where(ya == 1, params.scale_pos_weight, 1.0)
    y_float = ya.astype(np.float64)
    margins = np.zeros(n, dtype=np.float64)
    trees = []
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
        root = _grow(Xa, g, h, idx, 0, params)
        margins += reference_apply_tree(root, Xa)
        trees.append(root)
    return GbdtModel(params=params, n_features=Xa.shape[1], trees=trees)
