"""Boosted-tree training against independent oracles and its contracts."""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_gbdt import reference_apply_tree, reference_fit, reference_margins

from trendlab import gbdt
from trendlab.errors import (
    ConfigError,
    ModelFormatError,
    ParseError,
    ShapeError,
    SingleClassWarning,
)
from trendlab.gbdt import (
    GbdtModel,
    GbdtParams,
    TreeNode,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_proba,
    predict_row_proba,
    save_model,
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
    assert np.array_equal(predict_proba(model, X) >= 0.5, y)


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
    proba = predict_proba(model, X)
    assert proba[0] == pytest.approx(0.52, abs=1e-15)
    # callers compare with >=, so a probability at the threshold counts as positive
    assert (proba >= 0.5)[0] and not (proba >= 0.6)[0] and (proba >= proba[0])[0]


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
        w = np.where(y == 1, spw, 1.0)
        losses = []
        for m in range(len(model.trees) + 1):
            p = predict_proba(replace(model, trees=model.trees[:m]), X)
            eps = 1e-12
            losses.append(float(np.sum(-w * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))))
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9


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


def test_zero_hessian_leaf_without_l2_takes_no_step():
    # the first tree drives the margin so far that p rounds to exactly 1, so the
    # second tree's leaf has G = 1 from the negative row and H = 0
    params = GbdtParams(n_estimators=2, reg_lambda=0.0, learning_rate=100.0)
    model = fit(np.zeros((3, 1)), np.array([1, 1, 0]), params)
    assert model.trees[0].value > 40.0
    assert model.trees[1].value == 0.0
    assert gbdt._leaf_value(1.0, 0.0, params) == 0.0


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
        GbdtParams(n_estimators=0)
    with pytest.raises(ValueError):
        GbdtParams(subsample=0.0)
    with pytest.raises(ValueError):
        GbdtParams(scale_pos_weight=0.0)


@pytest.mark.parametrize(
    "name",
    ["learning_rate", "reg_lambda", "reg_alpha", "subsample", "scale_pos_weight",
     "min_child_weight", "gamma"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        GbdtParams(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("n_estimators", 0), ("max_depth", 0), ("learning_rate", 0.0), ("reg_lambda", -1.0),
     ("reg_alpha", -1.0), ("subsample", 1.5), ("scale_pos_weight", -1.0),
     ("min_child_weight", -1.0), ("gamma", -0.1), ("seed", -1),
     # a count that is not an integer
     ("n_estimators", 2.7), ("n_estimators", True), ("max_depth", 3.0), ("max_depth", "3"),
     ("seed", 1.5), ("seed", False), ("seed", None)],
)
def test_params_check_themselves_when_built_or_replaced(name, value):
    with pytest.raises(ConfigError):
        GbdtParams(**{name: value})
    with pytest.raises(ValueError):  # a ConfigError is a ValueError
        replace(GbdtParams(), **{name: value})


FLOAT_PARAMS = ["learning_rate", "reg_lambda", "reg_alpha", "subsample", "scale_pos_weight",
                "min_child_weight", "gamma"]


@pytest.mark.parametrize("name", FLOAT_PARAMS)
@pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None, [0.1], complex(1)], ids=repr)
def test_params_reject_a_float_that_is_not_a_number(name, value):
    # a bool would pass as 1.0 or 0.0, and a string would reach math.isfinite
    with pytest.raises(ConfigError, match=rf"^{name} must be a finite number, got "):
        GbdtParams(**{name: value})


def test_params_take_any_real_number_as_a_float():
    params = GbdtParams(learning_rate=np.float32(0.5), subsample=1, gamma=np.int64(2))
    assert (params.learning_rate, params.subsample, params.gamma) == (0.5, 1, 2)


@pytest.mark.parametrize("value", [True, "0.1"], ids=repr)
@pytest.mark.parametrize("name", ["learning_rate", "subsample"])
def test_load_model_rejects_a_float_param_that_is_not_a_number_naming_the_file(
    tmp_path, name, value
):
    doc = model_to_dict(GbdtModel(params=GbdtParams(), n_features=1, trees=[]))
    doc["params"][name] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: .*{name}.*finite"):
        load_model(path)


def test_params_take_numpy_integers():
    params = GbdtParams(n_estimators=np.int64(3), max_depth=np.int32(2), seed=np.uint8(7))
    assert (params.n_estimators, params.max_depth, params.seed) == (3, 2, 7)


@pytest.mark.parametrize(
    "key, value",
    [("n_features", 3.9), ("n_features", 3.0), ("n_features", "3"), ("n_features", True),
     ("max_depth", 2.5), ("n_estimators", "100")],
    ids=repr,
)
def test_load_model_rejects_a_count_that_is_not_an_integer_naming_the_file(tmp_path, key, value):
    doc = model_to_dict(GbdtModel(params=GbdtParams(), n_features=3, trees=[]))
    if key == "n_features":
        doc[key] = value
    else:
        doc["params"][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: .*{key}.*integer"):
        load_model(path)


def test_load_model_names_a_file_whose_params_are_out_of_range(tmp_path):
    doc = model_to_dict(GbdtModel(params=GbdtParams(), n_features=1, trees=[]))
    doc["params"]["subsample"] = 0.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: .*subsample"):
        load_model(path)


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


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.floats(0.5, 1.0),
)
def test_model_dict_round_trip(seed, n_rows, n_features, n_trees, depth, subsample):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n_rows, n_features))
    y = rng.integers(0, 2, size=n_rows)
    y[:2] = (0, 1)
    params = GbdtParams(n_estimators=n_trees, max_depth=depth, subsample=subsample, seed=seed)
    doc = model_to_dict(fit(X, y, params))
    assert model_to_dict(model_from_dict(json.loads(json.dumps(doc)))) == doc


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


def _chain_tree(depth):
    """The JSON text of a tree ``depth`` splits deep."""
    split = '{"feature": 0, "threshold": 1.0, "left": {"leaf": 0.0}, "right": '
    return split * depth + '{"leaf": 0.5}' + "}" * depth


def test_a_tree_too_deep_to_read_is_a_typed_error_naming_the_file(tmp_path):
    doc = model_to_dict(GbdtModel(params=GbdtParams(), n_features=1, trees=[]))
    text = json.dumps({**doc, "trees": "TREES"}).replace('"TREES"', f"[{_chain_tree(1_500)}]")
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    # the JSON reader or the tree builder gives up first, by Python version
    with pytest.raises((ParseError, ModelFormatError), match=rf"^{re.escape(str(path))}: "):
        load_model(path)
    tree = {"leaf": 0.5}
    for _ in range(5_000):
        tree = {"feature": 0, "threshold": 1.0, "left": {"leaf": 0.0}, "right": tree}
    with pytest.raises(ModelFormatError, match="RecursionError"):
        model_from_dict({**doc, "trees": [tree]})


def _stump_doc(threshold, feature=0):
    root = TreeNode(feature=0, threshold=2.0, left=TreeNode(value=-1.0), right=TreeNode(value=1.0))
    doc = model_to_dict(GbdtModel(params=GbdtParams(), n_features=1, trees=[root]))
    doc["trees"][0]["threshold"] = threshold
    doc["trees"][0]["feature"] = feature
    return doc


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_load_model_rejects_a_non_finite_threshold_naming_the_file(tmp_path, threshold):
    # a select sends every row left at a NaN threshold, and a walk sends them right
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_stump_doc(threshold)), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: .*non-finite"):
        load_model(path)


@pytest.mark.parametrize("feature", [0.7, 0.0, True, "0"])
def test_load_model_rejects_a_non_integer_feature_naming_the_file(tmp_path, feature):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_stump_doc(2.0, feature)), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: .*not an integer"):
        load_model(path)


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
        assert predict_row_proba(model, X[i]) == vec[i]


def test_subsample_uses_seeded_tree_draws():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, size=(200, 3))
    y = (X[:, 0] > 0).astype(int)
    a = fit(X, y, GbdtParams(n_estimators=5, subsample=0.5, seed=1))
    b = fit(X, y, GbdtParams(n_estimators=5, subsample=0.5, seed=2))
    pa, pb = predict_proba(a, X), predict_proba(b, X)
    assert not np.array_equal(pa, pb)  # different seeds draw different rows
    assert np.array_equal(pa, predict_proba(fit(X, y, GbdtParams(n_estimators=5, subsample=0.5, seed=1)), X))


# --- the presorted level-wise search against the recursive per-node sort ---


def awkward_matrix(seed=13, n=400):
    """Imbalanced rows with ties, a constant column and duplicated rows."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(0, 1, n),                   # continuous
        rng.integers(0, 5, n).astype(float),   # integer-valued, many ties
        np.full(n, 2.5),                       # constant
        np.round(rng.normal(0, 1, n), 1),      # rounded: some ties
        rng.integers(0, 2, n).astype(float),   # binary
    ])
    X = np.vstack([X, X[:60]])  # duplicate rows
    y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 1, len(X))) > 2.6).astype(int)
    return X, y


def assert_same_model(X, y, params, block_cells=None):
    """``fit`` gives the reference's model, at ``_BLOCK_CELLS = block_cells`` if given."""
    with pytest.MonkeyPatch.context() as mp:
        if block_cells is not None:
            mp.setattr(gbdt, "_BLOCK_CELLS", block_cells)
        got = model_to_dict(fit(X, y, params))
    with np.errstate(all="ignore"):  # the reference warns where fit drops a cell silently
        assert got == model_to_dict(reference_fit(X, y, params))


# Every block holds one feature, as in a fit on _BLOCK_CELLS rows or more,
# beside the default, where the test matrices fit in one block.
BLOCK_CELLS = pytest.mark.parametrize(
    "block_cells", [None, 1], ids=["default-blocks", "one-feature-blocks"]
)


@BLOCK_CELLS
@pytest.mark.parametrize("depth", range(1, 9))
def test_presorted_search_matches_reference_at_every_depth(depth, block_cells):
    X, y = awkward_matrix()
    assert 0.02 < y.mean() < 0.2
    assert_same_model(X, y, GbdtParams(n_estimators=6, max_depth=depth), block_cells)


@BLOCK_CELLS
@pytest.mark.parametrize(
    "overrides",
    [
        {"subsample": 0.5},
        {"subsample": 1.0, "min_child_weight": 0.0},
        {"subsample": 0.5, "min_child_weight": 5.0},
        {"gamma": 0.3},
        {"reg_alpha": 0.5},
        {"scale_pos_weight": 150.0},
        {"scale_pos_weight": 150.0, "subsample": 0.5, "max_depth": 6},
        {"reg_lambda": 0.0, "min_child_weight": 0.0},
        # only one-node levels
        {"max_depth": 1},
        {"max_depth": 1, "subsample": 0.5, "reg_lambda": 0.0, "min_child_weight": 0.0},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_presorted_search_matches_reference_across_params(overrides, block_cells):
    X, y = awkward_matrix(seed=17)
    params = replace(GbdtParams(n_estimators=8, max_depth=4, seed=5), **overrides)
    assert_same_model(X, y, params, block_cells)


def test_presorted_search_matches_reference_over_several_blocks():
    # small blocks, so even five features are searched as several blocks
    X, y = awkward_matrix(seed=19)
    params = GbdtParams(n_estimators=6, max_depth=5, subsample=0.8)
    assert_same_model(X, y, params, block_cells=600)


# --- the level buffers a fit partitions into ---

# Blocks of two features and a last one of one, so the shared scratch is
# wider than the last block's buffers.
UNEVEN_BLOCKS = 2 * 460


@pytest.mark.parametrize("block_cells", [None, 1, UNEVEN_BLOCKS], ids=["default", "one", "uneven"])
@pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
def test_subsampled_blocks_narrower_than_their_buffers_give_the_reference_model(
    depth, block_cells
):
    X, y = awkward_matrix(seed=23)
    params = GbdtParams(n_estimators=5, max_depth=depth, subsample=0.6, seed=3)
    assert_same_model(X, y, params, block_cells)


@pytest.mark.parametrize("depth", [3, 6])
def test_uneven_blocks_give_the_reference_model(depth):
    X, y = awkward_matrix(seed=29)
    assert len(X) == 460
    assert_same_model(X, y, GbdtParams(n_estimators=5, max_depth=depth), UNEVEN_BLOCKS)


def test_consecutive_fits_of_other_shapes_each_give_the_reference_model():
    wide, y_wide = awkward_matrix(seed=31, n=700)
    wide = np.column_stack([wide, wide[:, ::-1] * 0.5])
    narrow, y_narrow = awkward_matrix(seed=37, n=150)
    narrow = narrow[:, :2]
    for X, y, depth in ((wide, y_wide, 6), (narrow, y_narrow, 4), (wide, y_wide, 5)):
        for block_cells in (None, 1):
            assert_same_model(X, y, GbdtParams(n_estimators=4, max_depth=depth), block_cells)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([0.0, 1.0, 3.0]),
    st.sampled_from([0.6, 1.0]),
    st.sampled_from([None, 1]),
)
def test_presorted_search_matches_reference_on_few_distinct_values(
    seed, n_rows, n_features, n_values, min_child_weight, subsample, block_cells
):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_values, size=(n_rows, n_features)).astype(float)
    y = rng.integers(0, 2, size=n_rows)
    params = GbdtParams(
        n_estimators=3, max_depth=3, min_child_weight=min_child_weight,
        subsample=subsample, seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingleClassWarning)
        assert_same_model(X, y, params, block_cells)


BIG = np.finfo(np.float64).max
# Cells whose midpoints overflow (near +-BIG), round onto the lower value
# (adjacent floats around 1.0, and 0 next to 5e-324), or compare equal (+-0.0).
EXTREME_VALUES = (
    BIG, np.nextafter(BIG, 0.0), 1.5e308, -BIG, -np.nextafter(BIG, 0.0), -1.5e308,
    np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 0.0, -0.0, 5e-324, -5e-324, 1e-300,
)
# No L2 term and no hessian floor; at a learning rate of 50 the margins
# saturate after one tree, so hessians reach 0 and gains 0/0 (NaN) win nodes.
NAN_GAINS = {"reg_lambda": 0.0, "min_child_weight": 0.0}
SATURATED = {**NAN_GAINS, "learning_rate": 50.0}
EXTREME_PARAMS = {
    "no-l2": NAN_GAINS,
    "nan-gains": SATURATED,
    "subsample": {"subsample": 0.7},
    "nan-gains-subsample": {**SATURATED, "subsample": 0.7},
    "heavy-positives": {"scale_pos_weight": 1e6},
    "heavy-positives-nan-gains": {**SATURATED, "scale_pos_weight": 1e6},
}


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(sorted(EXTREME_PARAMS)),
    st.sampled_from([None, 1]),
)
def test_presorted_search_matches_reference_on_extreme_values(
    seed, n_rows, n_features, max_depth, overrides, block_cells
):
    rng = np.random.default_rng(seed)
    X = rng.choice(EXTREME_VALUES, size=(n_rows, n_features))
    free = rng.random(X.shape) < 0.2
    X[free] = rng.normal(0.0, 1.0, int(free.sum()))
    y = rng.integers(0, 2, size=n_rows)
    params = replace(
        GbdtParams(n_estimators=3, max_depth=max_depth, seed=seed), **EXTREME_PARAMS[overrides]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingleClassWarning)
        assert_same_model(X, y, params, block_cells)


# --- the select and walk evaluators against the reference walk ---

# Thresholds are drawn from these values, and so are most feature cells, so
# rows land exactly on a threshold; the rest are NaN, +-inf or random.
GRID = (-2.0, -0.5, 0.0, 0.25, 1.0, 3.0)


def random_tree(rng, depth: int, n_features: int, p_leaf: float) -> TreeNode:
    if depth == 0 or rng.random() < p_leaf:
        return TreeNode(value=float(rng.normal(0.0, 0.3)))
    return TreeNode(
        feature=int(rng.integers(n_features)),
        threshold=float(rng.choice(GRID)),
        left=random_tree(rng, depth - 1, n_features, p_leaf),
        right=random_tree(rng, depth - 1, n_features, p_leaf),
    )


def random_cells(rng, n_rows: int, n_features: int) -> np.ndarray:
    pool = np.array([*GRID, np.nan, np.inf, -np.inf])
    X = rng.choice(pool, size=(n_rows, n_features))
    free = rng.random(size=X.shape) < 0.3
    X[free] = rng.normal(0.0, 2.0, size=int(free.sum()))
    return X


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 7),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.integers(1, 5),
    st.integers(0, 4),
    st.integers(0, 80),
    st.integers(1, 8),
)
def test_tree_evaluators_are_bitwise_the_walk(
    seed, depth, p_leaf, n_features, n_trees, n_rows, max_depth
):
    # max_depth picks the evaluator, whatever the trees' own depth
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, depth, n_features, p_leaf) for _ in range(n_trees)]
    params = GbdtParams(max_depth=max_depth)
    model = GbdtModel(params=params, n_features=n_features, trees=trees, base_logit=0.1)
    X = random_cells(rng, n_rows, n_features)
    apply_tree, Xt = gbdt._tree_evaluator(params), np.ascontiguousarray(X.T)
    for tree in trees:
        got = np.broadcast_to(apply_tree(tree, Xt), n_rows)  # a lone leaf gives a scalar
        assert got.tobytes() == reference_apply_tree(tree, X).tobytes()
    want = gbdt._sigmoid(reference_margins(model, X))
    assert predict_proba(model, X).tobytes() == want.tobytes()


def test_shallow_models_select_and_deep_ones_walk():
    assert gbdt._tree_evaluator(GbdtParams(max_depth=1)) is gbdt._select_tree
    assert gbdt._tree_evaluator(GbdtParams(max_depth=4)) is gbdt._select_tree
    assert gbdt._tree_evaluator(GbdtParams(max_depth=5)) is gbdt._walk_tree
    assert gbdt._tree_evaluator(GbdtParams(max_depth=7)) is gbdt._walk_tree


@pytest.mark.parametrize("evaluator", [gbdt._select_tree, gbdt._walk_tree])
def test_tree_evaluators_cover_full_depth_seven_trees(evaluator):
    rng = np.random.default_rng(21)
    trees = [random_tree(rng, 7, 3, 0.0) for _ in range(3)]
    X = random_cells(rng, 500, 3)
    Xt = np.ascontiguousarray(X.T)
    for tree in trees:
        assert evaluator(tree, Xt).tobytes() == reference_apply_tree(tree, X).tobytes()
