"""Boosted-tree training against independent oracles and its contracts."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from trendlab import gbdt
from trendlab.errors import ModelFormatError, ShapeError, SingleClassWarning
from trendlab.gbdt import (
    GbdtModel,
    GbdtParams,
    TreeNode,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_proba,
    predict_row_proba,
    save_model,
    staged_margins,
)


def brute_force_root_split(X, y, params):
    """Enumerate every (feature, midpoint) pair and score it independently."""
    p0 = 0.5
    w = np.where(y == 1, params.scale_pos_weight, 1.0)
    g = (p0 - y) * w
    h = p0 * (1 - p0) * w
    lam = params.reg_lambda
    best = None  # (gain, feature, threshold)
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            if thr <= lo:
                continue
            mask = X[:, f] < thr
            GL, HL = g[mask].sum(), h[mask].sum()
            GR, HR = G - GL, H - HL
            if HL < params.min_child_weight or HR < params.min_child_weight:
                continue
            gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent) - params.gamma
            if gain <= 0:
                continue
            if best is None or gain > best[0] + 1e-15:
                best = (gain, f, thr)
    return best


def first_split_of(model):
    root = model.trees[0]
    assert not root.is_leaf
    return root.feature, root.threshold


def gain_of_fit_root(X, y, params):
    """Recompute the fitted root's gain from its own partition."""
    model = fit(X, y, params)
    root = model.trees[0]
    if root.is_leaf:
        return None, None
    w = np.where(y == 1, params.scale_pos_weight, 1.0)
    g = (0.5 - y) * w
    h = 0.25 * w
    mask = X[:, root.feature] < root.threshold
    GL, HL = g[mask].sum(), h[mask].sum()
    GR, HR = g[~mask].sum(), h[~mask].sum()
    lam = params.reg_lambda
    gain = 0.5 * (
        GL * GL / (HL + lam)
        + GR * GR / (HR + lam)
        - (GL + GR) ** 2 / (HL + HR + lam)
    ) - params.gamma
    return (root.feature, root.threshold), gain


def test_separable_data_reaches_perfect_accuracy():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, size=200)
    X = x.reshape(-1, 1)
    y = (x > 0).astype(int)
    params = GbdtParams(n_estimators=10, max_depth=1, learning_rate=0.3)
    model = fit(X, y, params)
    assert np.array_equal(predict(model, X), y)


def test_constant_features_balanced_classes_stay_at_half():
    X = np.ones((40, 3))
    y = np.array([0, 1] * 20)
    model = fit(X, y, GbdtParams(n_estimators=5))
    assert all(t.is_leaf for t in model.trees)
    proba = predict_proba(model, X)
    assert np.all(proba == 0.5)


def test_root_split_matches_brute_force_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(20, 200))
        k = int(rng.integers(1, 6))
        X = np.round(rng.normal(0, 1, size=(n, k)), 3)
        y = (X[:, 0] + rng.normal(0, 0.5, size=n) > 0).astype(int)
        if y.min() == y.max():
            continue
        params = GbdtParams(n_estimators=1, max_depth=1)
        oracle = brute_force_root_split(X, y, params)
        model = fit(X, y, params)
        if oracle is None:
            assert model.trees[0].is_leaf
            continue
        feature, threshold = first_split_of(model)
        assert (feature, threshold) == (oracle[1], oracle[2])


def test_root_gain_matches_closed_form():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, size=(150, 4))
    y = (X[:, 2] > 0.3).astype(int)
    params = GbdtParams(n_estimators=1, max_depth=1, scale_pos_weight=2.0)
    oracle = brute_force_root_split(X, y, params)
    w = np.where(y == 1, params.scale_pos_weight, 1.0)
    g = (0.5 - y) * w
    h = 0.25 * w
    model = fit(X, y, params)
    f, thr = first_split_of(model)
    mask = X[:, f] < thr
    GL, HL = g[mask].sum(), h[mask].sum()
    GR, HR = g[~mask].sum(), h[~mask].sum()
    lam = params.reg_lambda
    gain = 0.5 * (
        GL * GL / (HL + lam) + GR * GR / (HR + lam) - (GL + GR) ** 2 / (HL + HR + lam)
    )
    assert gain == pytest.approx(oracle[0], abs=1e-9)


def test_predict_proba_empty_model_is_half():
    model = GbdtModel(params=GbdtParams(), n_features=3, trees=[])
    assert np.all(predict_proba(model, np.zeros((5, 3))) == 0.5)


def test_single_leaf_closed_form():
    leaf = TreeNode(value=0.7)
    model = GbdtModel(params=GbdtParams(learning_rate=1.0), n_features=2, trees=[leaf])
    proba = predict_proba(model, np.zeros((1, 2)))[0]
    assert proba == pytest.approx(1.0 / (1.0 + math.exp(-0.7)), abs=1e-15)


def test_refit_same_seed_is_bitwise_identical():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, size=(120, 4))
    y = (X[:, 0] > 0).astype(int)
    params = GbdtParams(n_estimators=8, max_depth=3, subsample=0.8, seed=9)
    p1 = predict_proba(fit(X, y, params), X)
    p2 = predict_proba(fit(X, y, params), X)
    assert np.array_equal(p1, p2)


def test_threshold_semantics():
    leaf = TreeNode(value=math.log(0.52 / 0.48))  # sigmoid -> 0.52
    model = GbdtModel(params=GbdtParams(), n_features=1, trees=[leaf])
    X = np.zeros((1, 1))
    assert predict(model, X, threshold=0.5)[0] == 1
    assert predict(model, X, threshold=0.6)[0] == 0
    proba = float(predict_proba(model, X)[0])
    assert predict(model, X, threshold=proba)[0] == 1  # at-threshold counts as positive
    with pytest.raises(ValueError):
        predict(model, X, threshold=1.0)


def test_weighted_gradient_parity_at_root():
    # 200 negatives and 2 positives: scale_pos_weight = 100 exactly
    y = np.array([0] * 200 + [1] * 2, dtype=float)
    spw = 200 / 2
    w = np.where(y == 1, spw, 1.0)
    assert float(np.sum(w * (0.5 - y))) == 0.0


def test_training_loss_non_increasing():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, size=(300, 5))
    y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.7, 300)) > 0).astype(int)
    for spw in (1.0, 5.0):
        params = GbdtParams(
            n_estimators=30, max_depth=3, learning_rate=0.1, subsample=1.0, gamma=0.0,
            scale_pos_weight=spw,
        )
        model = fit(X, y, params)
        margins = staged_margins(model, X)
        w = np.where(y == 1, spw, 1.0)
        losses = []
        for stage in margins:
            p = 1.0 / (1.0 + np.exp(-stage))
            eps = 1e-12
            losses.append(float(np.sum(-w * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))))
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9


def test_thread_count_does_not_change_predictions():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, size=(250, 6))
    y = (X[:, 1] - X[:, 3] > 0).astype(int)
    base = GbdtParams(n_estimators=12, max_depth=4, subsample=0.7, seed=21)
    p_single = predict_proba(fit(X, y, base), X)
    from dataclasses import replace

    p_all = predict_proba(fit(X, y, replace(base, threads="all")), X)
    assert np.array_equal(p_single, p_all)


def test_reg_lambda_shrinks_leaf_weights_on_fixed_structure():
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.normal(-2, 0.3, 50), rng.normal(2, 0.3, 50)])
    X = x.reshape(-1, 1)
    y = (x > 0).astype(int)

    def leaves(reg_lambda):
        model = fit(X, y, GbdtParams(n_estimators=1, max_depth=1, reg_lambda=reg_lambda))
        root = model.trees[0]
        assert not root.is_leaf
        return root.threshold, (abs(root.left.value), abs(root.right.value))

    thr_a, la = leaves(0.5)
    thr_b, lb = leaves(5.0)
    thr_c, lc = leaves(50.0)
    assert thr_a == thr_b == thr_c  # same structure on strongly separated data
    assert lb[0] < la[0] and lb[1] < la[1]
    assert lc[0] < lb[0] and lc[1] < lb[1]


def test_l1_soft_threshold_zeroes_small_leaves():
    X = np.ones((10, 1))
    y = np.array([0] * 5 + [1] * 5)
    # balanced: G = 0 at the root leaf, any alpha keeps it 0
    model = fit(X, y, GbdtParams(n_estimators=1, reg_alpha=10.0))
    assert model.trees[0].value == 0.0
    # imbalanced but alpha dominates |G| = 0.5: leaf snaps to zero
    y2 = np.array([0] * 6 + [1] * 4)
    model2 = fit(X, y2, GbdtParams(n_estimators=1, reg_alpha=10.0))
    assert model2.trees[0].value == 0.0
    model3 = fit(X, y2, GbdtParams(n_estimators=1, reg_alpha=0.0))
    assert model3.trees[0].value != 0.0


def test_shape_and_class_guards():
    with pytest.raises(ShapeError):
        fit(np.zeros((5, 2)), np.zeros(4), GbdtParams(n_estimators=1))
    with pytest.raises(ShapeError):
        fit(np.zeros(5), np.zeros(5), GbdtParams(n_estimators=1))
    with pytest.raises(ShapeError):
        fit(np.zeros((4, 2)), np.array([0, 1, 2, 1]), GbdtParams(n_estimators=1))
    with pytest.raises(ShapeError):
        fit([[1.0, 2.0], [3.0]], np.array([0, 1]), GbdtParams(n_estimators=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10), GbdtParams(n_estimators=2))
    assert any(issubclass(w.category, SingleClassWarning) for w in caught)
    # drifts toward the lone class
    assert np.all(predict_proba(model, np.zeros((3, 2))) > 0.5)
    with pytest.raises(ShapeError):
        predict_proba(model, np.zeros((3, 5)))


def test_params_validation():
    with pytest.raises(ValueError):
        GbdtParams(n_estimators=0).validate()
    with pytest.raises(ValueError):
        GbdtParams(subsample=0.0).validate()
    with pytest.raises(ValueError):
        GbdtParams(threads=0).validate()
    with pytest.raises(ValueError):
        GbdtParams(scale_pos_weight=0.0).validate()
    GbdtParams(threads="all").validate()


def test_default_params_match_reference_defaults():
    params = GbdtParams()
    assert params.n_estimators == 100
    assert params.max_depth == 3
    assert params.reg_lambda == 1.0
    assert params.learning_rate == 0.1
    assert params.subsample == 1.0
    assert params.reg_alpha == 0.0
    assert params.scale_pos_weight == 1.0
    assert params.min_child_weight == 1.0
    assert params.gamma == 0.0


def test_serialization_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(0, 1, size=(150, 5))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    model = fit(X, y, GbdtParams(n_estimators=6, max_depth=4, subsample=0.9))
    model.feature_names = tuple(f"f{i}" for i in range(5))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(model)
    assert np.array_equal(predict_proba(loaded, X), predict_proba(model, X))
    doc = json.loads(path.read_text())
    assert doc["missing_branch"] == "left"
    assert doc["format"] == "trendlab.gbdt"
    with pytest.raises(ModelFormatError):
        model_from_dict({"format": "other"})


def _corrupt(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def test_model_from_dict_rejects_malformed_documents():
    X = np.random.default_rng(11).normal(size=(80, 3))
    model = fit(X, (X[:, 0] > 0).astype(int), GbdtParams(n_estimators=2, max_depth=2))
    doc = model_to_dict(model)
    assert model_to_dict(model_from_dict(doc)) == doc

    def bad_feature(d):
        d["trees"][0]["feature"] = 3

    def negative_feature(d):
        d["trees"][1]["feature"] = -1

    def no_right_child(d):
        del d["trees"][0]["right"]

    def wrong_version(d):
        d["version"] = 99

    def no_base_logit(d):
        del d["base_logit"]

    def unknown_param(d):
        d["params"]["depth"] = 3

    def invalid_param(d):
        d["params"]["learning_rate"] = -0.1

    def nan_leaf(d):
        d["trees"][0]["left"] = {"leaf": float("nan")}

    def too_few_names(d):
        d["feature_names"] = ["a", "b"]

    for edit in (bad_feature, negative_feature, no_right_child, wrong_version, no_base_logit,
                 unknown_param, invalid_param, nan_leaf, too_few_names):
        with pytest.raises(ModelFormatError):
            model_from_dict(_corrupt(doc, edit))


def test_fit_rejects_non_finite_features():
    X = np.random.default_rng(12).normal(size=(20, 2))
    y = (X[:, 0] > 0).astype(int)
    for bad in (np.nan, np.inf, -np.inf):
        Xb = X.copy()
        Xb[7, 1] = bad
        with pytest.raises(ShapeError):
            fit(Xb, y, GbdtParams(n_estimators=1))


def test_missing_values_route_left():
    root = TreeNode(feature=0, threshold=1.0, left=TreeNode(value=-2.0), right=TreeNode(value=2.0))
    model = GbdtModel(params=GbdtParams(), n_features=1, trees=[root])
    X = np.array([[0.5], [np.nan], [1.5]])
    proba = predict_proba(model, X)
    assert proba[1] == proba[0] < 0.5 < proba[2]
    assert predict_row_proba(model, [float("nan")]) == proba[1]


def test_row_predictor_matches_matrix_predictor():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    model = fit(X, y, GbdtParams(n_estimators=5, max_depth=2))
    vec = predict_proba(model, X)
    for i in range(0, 60, 7):
        assert predict_row_proba(model, X[i]) == pytest.approx(vec[i], abs=1e-15)


def test_subsample_uses_seeded_tree_draws():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, size=(200, 3))
    y = (X[:, 0] > 0).astype(int)
    a = fit(X, y, GbdtParams(n_estimators=5, subsample=0.5, seed=1))
    b = fit(X, y, GbdtParams(n_estimators=5, subsample=0.5, seed=2))
    pa, pb = predict_proba(a, X), predict_proba(b, X)
    assert not np.array_equal(pa, pb)  # different seeds draw different rows
    assert np.array_equal(pa, predict_proba(fit(X, y, GbdtParams(n_estimators=5, subsample=0.5, seed=1)), X))
