from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import readmit
from readmit import classifiers
from readmit.classifiers import (KINDS, ModelSpec, _grow_trees, fit_data, importances, train,
                                 train_fits)
from readmit.errors import ConfigError, DataError
from readmit.evaluate import metrics
from readmit.seeding import derive_seed, rng_for

from helpers import (reference_candidates, reference_grow_tree, reference_permutation_importance,
                     reference_tree_depth, reference_tree_predict, reference_tree_size)

KIND_HYPER = {
    "sgd_linear": {},
    "logistic_regression": {},
    "linear_svc": {},
    "decision_tree": {"max_depth": 6},
    "random_forest": {"n_trees": 15, "max_depth": 8},
    "mlp": {"epochs": 40},
}


def _linear_problem(seed=0, n=200, d=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    w = np.zeros(d)
    w[:2] = (2.0, -1.5)
    p = 1 / (1 + np.exp(-(X @ w)))
    y = (rng.random(n) < p).astype(float)
    return X, y


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_learns_and_is_deterministic(kind):
    X, y = _linear_problem()
    spec = ModelSpec(kind, KIND_HYPER[kind], seed=3)
    clf1 = train(spec, X, y)
    clf2 = train(spec, X, y)
    Xte, yte = _linear_problem(seed=1)
    p1 = clf1.predict_proba(Xte)
    p2 = clf2.predict_proba(Xte)
    assert np.array_equal(p1, p2)
    assert np.all((p1 >= 0) & (p1 <= 1))
    assert metrics(yte, p1).auc > 0.6


def test_single_class_error():
    X = np.zeros((10, 2))
    with pytest.raises(DataError):
        train(ModelSpec("decision_tree"), X, np.ones(10))


def test_non_finite_matrix_error():
    X = np.zeros((10, 2))
    X[0, 0] = np.nan
    y = np.array([0, 1] * 5, dtype=float)
    with pytest.raises(DataError, match="non-finite"):
        train(ModelSpec("logistic_regression"), X, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_rejects_non_finite_rows(bad):
    # A tree routes NaN or inf past every threshold, and the linear kinds
    # and the MLP return NaN: every kind must refuse such a row instead.
    X, y = _linear_problem(n=60, d=3)
    rows = np.zeros((2, 3))
    rows[1, 0] = bad
    for kind in KINDS:
        clf = train(ModelSpec(kind, KIND_HYPER[kind], seed=0), X, y)
        assert clf.predict_proba(rows[:1]).shape == (1,)
        with pytest.raises(DataError, match="impute first"):
            clf.predict_proba(rows)


def test_width_mismatch_error():
    X, y = _linear_problem(n=40, d=4)
    clf = train(ModelSpec("decision_tree"), X, y)
    with pytest.raises(DataError):
        clf.predict_proba(np.zeros((3, 7)))


def test_tree_perfect_binary_column():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (50, 5))
    X[:, 2] = (rng.random(50) < 0.5).astype(float)
    y = X[:, 2].copy()
    clf = train(ModelSpec("decision_tree"), X, y)
    forest = clf.forest
    assert forest.feature[0] == 2
    # depth 1: the root and two leaves, in preorder
    assert forest.skip.tolist() == [2, 0, 0] and forest.roots.tolist() == [0]
    assert np.array_equal(clf.predict(X), y)


def _assert_trees_match_reference(X, y, rows, keys, max_depth, min_leaf, max_features):
    """Grows the trees of ``rows`` in one call and checks each against the
    recursive reference; returns the reference trees' depths."""
    d = X.shape[1]
    forest = _grow_trees(_ranked(X, y), list(rows), keys, max_depth, min_leaf, max_features)
    assert len(forest.roots) == len(rows) and forest.importances.shape == (len(rows), d)
    Xte = np.vstack([X, np.random.default_rng(0).normal(0, 1, (60, d))])
    leaves = forest.leaf_values(Xte)
    sizes = np.diff(np.append(forest.roots, len(forest.feature)))
    depths = []
    for t in range(len(rows)):
        root, imp = reference_grow_tree(X[rows[t]], y[rows[t]], int(keys[t]), max_depth,
                                        min_leaf, max_features, d)
        assert np.array_equal(leaves[t], reference_tree_predict(root, Xte))
        assert np.array_equal(forest.importances[t], imp)
        assert sizes[t] == reference_tree_size(root)
        depths.append(reference_tree_depth(root))
    return depths


def _tree_problem(rng, n, d):
    X = rng.normal(0, 1, (n, d))
    X[:, : d // 3] = np.round(X[:, : d // 3])  # columns with tied values
    y = (rng.random(n) < 1 / (1 + np.exp(-2.0 * X[:, -1]))).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return X, y


def _ranked(X, y):
    """(X, y) rank-coded for the tree grower."""
    return fit_data(ModelSpec("decision_tree"), X, y)


def _keys(seed, n_trees):
    return np.array([derive_seed(seed, "tree", t) for t in range(n_trees)], dtype=np.uint64)


def test_array_tree_matches_reference_tree():
    rng = np.random.default_rng(40)
    mixed_depths = 0
    for k in range(40):
        n = int(rng.integers(10, 400))
        d = int(rng.integers(1, 110)) if k % 4 == 0 else int(rng.integers(1, 20))
        X, y = _tree_problem(rng, n, d)
        n_trees = 1 + k % 4
        rows = np.tile(np.arange(n), (n_trees, 1))
        if k % 5 < 2:  # bootstrap rows, with repeats
            rows = rng.integers(0, n, (n_trees, n))
            rows[:, :2] = np.flatnonzero(y == 0)[0], np.flatnonzero(y == 1)[0]
        max_depth = (None, 3, 8)[k % 3]
        min_leaf = 1 + k % 3
        max_features = None if k % 2 else max(1, int(np.sqrt(d)))
        depths = _assert_trees_match_reference(X, y, rows, _keys(k, n_trees), max_depth,
                                               min_leaf, max_features)
        mixed_depths += len(set(depths)) > 1
    assert mixed_depths >= 3  # batches whose trees stop at different depths


def test_grower_edge_cases_match_reference(monkeypatch):
    rng = np.random.default_rng(41)
    X, y = _tree_problem(rng, 60, 7)
    boot = rng.integers(0, 60, (3, 60))
    boot[:, :2] = np.flatnonzero(y == 0)[0], np.flatnonzero(y == 1)[0]
    keys = _keys(41, 3)
    for max_features in (None, 2):
        # max_depth 0: every tree is one leaf
        _assert_trees_match_reference(X, y, boot, keys, 0, 1, max_features)
        assert _grow_trees(_ranked(X, y), list(boot), keys, 0, 1, max_features).roots.tolist() == [0, 1, 2]
        # min_samples_leaf above half the rows: the root cannot split
        _assert_trees_match_reference(X, y, boot, keys, None, 31, max_features)
        forest = _grow_trees(_ranked(X, y), list(boot), keys, None, 31, max_features)
        assert forest.roots.tolist() == [0, 1, 2] and forest.skip.tolist() == [0, 0, 0]

    # A 385-row problem grown without a depth limit, one tree per batch:
    # the batches' node arrays join with relative skips and shifted roots.
    X, y = _tree_problem(rng, 385, 12)
    rows = np.vstack([np.arange(385), rng.integers(0, 385, (2, 385))])
    monkeypatch.setattr(classifiers, "_MAX_ENTRIES", 1)
    assert max(_assert_trees_match_reference(X, y, rows, _keys(42, 3), None, 1, 3)) > 8
    forest = _grow_trees(_ranked(X, y), list(rows), _keys(42, 3), None, 1, 3)
    leaf = forest.feature < 0
    assert np.all(forest.skip[leaf] == 0) and np.all(forest.skip[~leaf] >= 2)


def test_node_with_constant_candidates_is_a_leaf():
    # Only column 0 varies; a node whose one candidate is another column is a leaf.
    rng = np.random.default_rng(43)
    X = np.ones((40, 6))
    X[:, 0] = rng.normal(0, 1, 40)
    y = (X[:, 0] > 0).astype(float)
    seeds = [s for s in range(50) if reference_candidates(derive_seed(s, "tree", 0), 6, 1)[0] != 0]
    keys = np.array([derive_seed(s, "tree", 0) for s in seeds[:4]], dtype=np.uint64)
    rows = np.tile(np.arange(40), (len(keys), 1))
    _assert_trees_match_reference(X, y, rows, keys, None, 1, 1)
    assert _grow_trees(_ranked(X, y), list(rows), keys, None, 1, 1).roots.tolist() == [0, 1, 2, 3]
    clf = train(ModelSpec("random_forest", {"n_trees": 4, "max_features": 1, "bootstrap": False},
                          seed=seeds[0]), X, y)
    assert clf.forest.roots[1] == 1 and clf.forest.value[0] == y.mean()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fits_grown_together_equal_fits_grown_alone(data):
    # Each fit's rows are any rows of the shared fit data, in any order,
    # repeats allowed; alone, the same rows are the fit's whole matrix.
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(6, 150)), draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40]))
    X, y = _tree_problem(rng, n, d)
    kind = draw(st.sampled_from([k for k in KINDS if k != "mlp"]))
    hyper = {}
    if kind in classifiers.TREE_KINDS:
        hyper = {"max_depth": draw(st.sampled_from([None, 1, 2, 3, 8])),
                 "min_samples_leaf": draw(st.integers(1, 4)),
                 "max_features": draw(st.sampled_from([None, "sqrt", 1, d]))}
    if kind == "random_forest":
        hyper.update(n_trees=draw(st.integers(1, 6)), bootstrap=draw(st.booleans()))
    fits = []
    for seed in draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4)):
        rows = rng.choice(n, draw(st.integers(2, n)), replace=draw(st.booleans()))
        rows[:2] = np.flatnonzero(y == 0)[0], np.flatnonzero(y == 1)[0]
        fits.append((rng.permutation(rows), seed))
    spec = ModelSpec(kind, hyper)
    together = train_fits(spec, fit_data(spec, X, y), iter(fits))
    assert len(together) == len(fits)
    for (rows, seed), clf in zip(fits, together):
        alone = train(replace(spec, seed=seed), X[rows], y[rows])
        assert (clf.spec, clf.n_features) == (alone.spec, alone.n_features)
        if clf.forest is None:
            arrays = [(c.weights, c.bias, c.standardizer.mean, c.standardizer.scale)
                      for c in (clf, alone)]
        else:
            arrays = [[getattr(c.forest, name) for name in
                       ("feature", "threshold", "skip", "value", "roots", "importances")]
                      for c in (clf, alone)]
        for a, b in zip(*arrays):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_train_fits_edge_cases():
    X, y = _tree_problem(np.random.default_rng(45), 30, 3)
    for kind in KINDS:
        spec = ModelSpec(kind, KIND_HYPER[kind])
        data = fit_data(spec, X, y)
        assert (data.low is None) == (kind not in classifiers.TREE_KINDS)
        assert train_fits(spec, data, []) == []
        with pytest.raises(DataError, match="single class"):
            train_fits(spec, data, [(np.arange(30), 0), (np.flatnonzero(y == 1), 1)])
    with pytest.raises(DataError, match="binary 0/1"):
        fit_data(ModelSpec("decision_tree"), X, np.where(y == 1, 2.0, 0.0))
    X[3, 1] = np.inf
    with pytest.raises(DataError, match="non-finite"):
        fit_data(ModelSpec("decision_tree"), X, y)


def test_single_class_bootstrap_trains_on_all_rows():
    # One positive in 30 rows: about a third of the bootstraps miss it, and
    # those trees train on the original rows instead.
    rng = np.random.default_rng(44)
    X = rng.normal(0, 1, (30, 4))
    y = np.zeros(30)
    y[7] = 1.0
    spec = ModelSpec("random_forest", {"n_trees": 12, "max_features": 2}, seed=3)
    rows = [rng_for(3, "tree", t).integers(0, 30, 30) for t in range(12)]
    missed = [t for t in range(12) if y[rows[t]].max() == 0.0]
    assert len(missed) >= 2
    for t in missed:
        rows[t] = np.arange(30)
    clf = train(spec, X, y)
    Xte = np.vstack([X, rng.normal(0, 1, (40, 4))])
    leaves = clf.forest.leaf_values(Xte)
    per_tree = []
    for t in range(12):
        root, imp = reference_grow_tree(X[rows[t]], y[rows[t]], derive_seed(3, "tree", t),
                                        None, 1, 2, 4)
        assert np.array_equal(leaves[t], reference_tree_predict(root, Xte))
        assert np.array_equal(clf.forest.importances[t], imp)
        per_tree.append(imp / imp.sum())
    # The forest's importance is the mean of the trees' normalized ones.
    mean = np.mean(per_tree, axis=0)
    assert np.array_equal(importances(clf, X, y), mean / mean.sum())


def test_tree_splits_between_adjacent_floats():
    # The midpoint of 1 and the next float rounds to 1, which would send
    # every row right; the split must still separate the two values.
    a, b = 1.0, np.nextafter(1.0, 2.0)
    X = np.array([[a]] * 5 + [[b]] * 5)
    y = np.array([0.0] * 5 + [1.0] * 5)
    clf = train(ModelSpec("decision_tree", {"max_depth": None}), X, y)
    assert clf.forest.threshold[0] == b
    assert np.array_equal(clf.predict_proba(X), y)


def test_forest_single_tree_equals_decision_tree():
    X, y = _linear_problem(seed=9, n=120, d=6)
    dt = train(ModelSpec("decision_tree", {"max_depth": 5}, seed=1), X, y)
    rf = train(ModelSpec("random_forest",
                         {"n_trees": 1, "bootstrap": False, "max_features": None,
                          "max_depth": 5},
                         seed=999), X, y)
    Xte, _ = _linear_problem(seed=10, n=80, d=6)
    assert np.array_equal(dt.predict_proba(Xte), rf.predict_proba(Xte))


def test_forest_of_identical_trees_equals_single_tree():
    X, y = _linear_problem(seed=9, n=100, d=6)
    rf = train(ModelSpec("random_forest",
                         {"n_trees": 5, "bootstrap": False, "max_features": None,
                          "max_depth": 4},
                         seed=0), X, y)
    dt = train(ModelSpec("decision_tree", {"max_depth": 4}, seed=0), X, y)
    Xte, _ = _linear_problem(seed=11, n=50, d=6)
    assert np.allclose(rf.predict_proba(Xte), dt.predict_proba(Xte))


@pytest.mark.parametrize("kind", KINDS)
def test_constant_features_majority_and_zero_importance(kind):
    X = np.ones((40, 3))
    y = np.array([1.0] * 28 + [0.0] * 12)
    clf = train(ModelSpec(kind, KIND_HYPER[kind], seed=0), X, y)
    pred = clf.predict(X)
    assert np.all(pred == 1.0)  # majority class
    imp = importances(clf, X, y)
    assert np.all(imp == 0.0)


def test_importance_methods_and_errors():
    X, y = _linear_problem(n=150)
    tree = train(ModelSpec("decision_tree", {"max_depth": 4}), X, y)
    imp = importances(tree, X, y)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


def test_permutation_importance_constant_column_zero():
    X, y = _linear_problem(n=150, d=5)
    X[:, 4] = 7.0
    clf = train(ModelSpec("mlp", KIND_HYPER["mlp"], seed=0), X, y)
    imp = importances(clf, X, y)
    assert imp[4] == 0.0
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [2, 5, 12])
def test_permutation_importance_matches_reference_loop(d):
    X, y = _linear_problem(seed=d, n=90, d=d)
    X[:, 0] *= 50.0  # a column far from standardized
    clf = train(ModelSpec("mlp", {"hidden_sizes": (8,), "epochs": 15}, seed=d), X, y)
    for seed in (0, 1, 7):
        assert np.array_equal(importances(clf, X, y, seed=seed),
                              reference_permutation_importance(clf, X, y, seed))


@pytest.mark.parametrize("copies_per_block", [1, 2, 7, 36, 1000])
def test_block_scored_importance_matches_reference_loop(monkeypatch, copies_per_block):
    # 3 * 12 = 36 shuffled copies: blocks of one copy, blocks that leave a
    # short last block, one block of all copies, and a bound past them.
    X, y = _linear_problem(seed=3, n=90, d=12)
    X[:, 0] *= 50.0
    monkeypatch.setattr(classifiers, "_PERMUTATION_BLOCK_BYTES", copies_per_block * X.nbytes)
    clf = train(ModelSpec("mlp", {"hidden_sizes": (8,), "epochs": 15}, seed=3), X, y)
    for seed in (0, 7):
        assert np.array_equal(importances(clf, X, y, seed=seed),
                              reference_permutation_importance(clf, X, y, seed))


def test_mlp_fits_trained_together_equal_train():
    # Unequal row counts, so the folds' last batches are ragged at different lengths.
    X, y = _linear_problem(seed=4, n=120, d=6)
    spec = ModelSpec("mlp", {"hidden_sizes": (8, 4), "epochs": 12, "batch_size": 16})
    parts = [(X[:n] * (1 + i), y[:n]) for i, n in enumerate((100, 90, 91, 120))]
    data = fit_data(spec, np.vstack([Xf for Xf, _ in parts]),
                    np.concatenate([yf for _, yf in parts]))
    ends = np.cumsum([len(yf) for _, yf in parts])
    fits = [(np.arange(end - len(yf), end), 30 + i)
            for i, (end, (_, yf)) in enumerate(zip(ends, parts))]
    together = train_fits(spec, data, fits)
    for (Xf, yf), (_, seed), clf in zip(parts, fits, together):
        alone = train(replace(spec, seed=seed), Xf, yf)
        assert (clf.spec, clf.n_features) == (alone.spec, alone.n_features)
        assert clf.predict_proba(X).tobytes() == alone.predict_proba(X).tobytes()
        for a, b in zip(clf.mlp.weights + clf.mlp.biases, alone.mlp.weights + alone.mlp.biases):
            assert a.tobytes() == b.tobytes()
        assert clf.mlp.loss_history == alone.mlp.loss_history


@pytest.mark.parametrize("order", ["C", "F"])
def test_standardizer_sums_in_the_matrix_memory_order(order):
    # RFE cuts columns with a fancy index, which gives a Fortran-ordered
    # matrix; numpy sums its columns pairwise, and a C-ordered one row by
    # row. A fit keeps its matrix's order, as fitting each cut alone does.
    X, y = _linear_problem(seed=5, n=300, d=7)
    X = np.asarray(X * 1e3 + 0.1, order=order)
    assert (np.asfortranarray(X).mean(axis=0) != np.ascontiguousarray(X).mean(axis=0)).any()
    for kind in ("logistic_regression", "mlp"):
        clf = train(ModelSpec(kind, {"epochs": 2} if kind == "mlp" else {}), X, y)
        assert clf.standardizer.mean.tobytes() == X.mean(axis=0).tobytes()
        assert clf.standardizer.scale.tobytes() == X.std(axis=0).tobytes()


def test_informative_column_ranks_first_in_forest():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (250, 10))
    p = 1 / (1 + np.exp(-3.0 * X[:, 6]))
    y = (rng.random(250) < p).astype(float)
    clf = train(ModelSpec("random_forest", {"n_trees": 25, "max_depth": 6}, seed=0), X, y)
    imp = importances(clf, X, y)
    assert int(np.argmax(imp)) == 6


def test_logistic_proba_monotone_in_feature():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (300, 1))
    p = 1 / (1 + np.exp(-2.0 * X[:, 0]))
    y = (rng.random(300) < p).astype(float)
    clf = train(ModelSpec("logistic_regression"), X, y)
    grid = np.linspace(-3, 3, 41)[:, None]
    probs = clf.predict_proba(grid)
    assert np.all(np.diff(probs) >= 0)


def test_tree_invariant_to_monotone_transform():
    # Thresholds are midpoints of adjacent training values, so routing of a
    # held-out value strictly inside such a gap is not preserved by a
    # nonlinear transform. Transforming a binary column keeps the check
    # exact: no representable value lies strictly between its two levels.
    rng = np.random.default_rng(12)
    X = rng.normal(0, 1, (180, 4))
    X[:, 2] = (rng.random(180) < 0.5).astype(float)
    p = 1 / (1 + np.exp(-(0.9 * X[:, 0] - 1.4 * X[:, 2] + 0.3)))
    y = (rng.random(180) < p).astype(float)
    Xte = X[rng.permutation(180)[:80]]

    def transform(M):
        out = M.copy()
        out[:, 2] = np.exp(out[:, 2] / 5.0)  # strictly monotone
        return out

    for kind, hyper in (("decision_tree", {"max_depth": 6}),
                        ("random_forest", {"n_trees": 10, "max_depth": 6})):
        a = train(ModelSpec(kind, hyper, seed=5), X, y)
        b = train(ModelSpec(kind, hyper, seed=5), transform(X), y)
        assert np.array_equal(a.predict(Xte), b.predict(transform(Xte)))


def test_forest_variance_reduction():
    rng = np.random.default_rng(21)
    X = rng.normal(0, 1, (150, 8))
    w = rng.normal(0, 1, 8)
    p = 1 / (1 + np.exp(-(X @ w)))
    y = (rng.random(150) < p).astype(float)
    Xte = rng.normal(0, 1, (100, 8))
    pte = 1 / (1 + np.exp(-(Xte @ w)))
    yte = (rng.random(100) < pte).astype(float)

    def f1_for(n_trees, seed):
        spec = ModelSpec("random_forest", {"n_trees": n_trees, "max_depth": 6}, seed=seed)
        clf = train(spec, X, y)
        return metrics(yte, clf.predict_proba(Xte)).f1

    f1_many = [f1_for(100, s) for s in range(20)]
    f1_one = [f1_for(1, s) for s in range(20)]
    assert np.std(f1_many) <= np.std(f1_one)


def test_unknown_kind_and_hyper():
    with pytest.raises(ConfigError):
        ModelSpec("boosted_trees").resolved()
    with pytest.raises(ConfigError):
        ModelSpec("decision_tree", {"bogus": 1}).resolved()


@pytest.mark.parametrize("kind, hyper", [
    ("random_forest", {"n_trees": "abc"}), ("random_forest", {"max_depth": 2.5}),
    ("random_forest", {"max_features": "half"}), ("random_forest", {"bootstrap": "maybe"}),
    ("decision_tree", {"min_samples_leaf": True}), ("mlp", {"hidden_sizes": (8, "x")}),
    ("logistic_regression", {"c": "1"}),
])
def test_mistyped_hyperparameter_is_a_config_error(kind, hyper):
    key, value = next(iter(hyper.items()))
    with pytest.raises(ConfigError, match=f"^{kind}: hyperparameter '{key}' cannot be "):
        ModelSpec(kind, hyper).resolved()


@pytest.mark.parametrize("kind, hyper, message", [
    ("logistic_regression", {"learning_rate": float("nan")}, "hyperparameter 'learning_rate' must be finite, got nan"),
    ("linear_svc", {"c": float("nan")}, "hyperparameter 'c' must be finite, got nan"),
    ("sgd_linear", {"alpha": float("-inf")}, "hyperparameter 'alpha' must be finite, got -inf"),
    ("mlp", {"dropout_rate": float("inf")}, "hyperparameter 'dropout_rate' must be finite, got inf"),
    ("mlp", {"epochs": 0}, "hyperparameter 'epochs' must be >= 1, got 0"),
    ("mlp", {"batch_size": 0}, "hyperparameter 'batch_size' must be >= 1, got 0"),
    ("mlp", {"patience": -1}, "unknown hyperparameters ['patience']"),
    ("mlp", {"dropout_rate": 1.5}, "dropout_rate must lie in [0, 1), got 1.5"),
    ("mlp", {"hidden_sizes": (8, 0)}, "all layer dimensions must be positive"),
    ("mlp", {"learning_rate": -0.1}, "hyperparameter 'learning_rate' must be >= 0, got -0.1"),
    ("linear_svc", {"c": 0}, "hyperparameter 'c' must be > 0, got 0"),
    ("logistic_regression", {"c": -1.0}, "hyperparameter 'c' must be > 0, got -1.0"),
    ("random_forest", {"n_trees": 0}, "hyperparameter 'n_trees' must be >= 1, got 0"),
    ("sgd_linear", {"batch_size": 0}, "hyperparameter 'batch_size' must be >= 1, got 0"),
    ("sgd_linear", {"epochs": 0}, "hyperparameter 'epochs' must be >= 1, got 0"),
    ("sgd_linear", {"alpha": -1}, "hyperparameter 'alpha' must be >= 0, got -1"),
    ("sgd_linear", {"learning_rate": -1.0}, "hyperparameter 'learning_rate' must be >= 0, got -1.0"),
    ("logistic_regression", {"iterations": -3}, "hyperparameter 'iterations' must be >= 1, got -3"),
    ("decision_tree", {"min_samples_leaf": 0}, "hyperparameter 'min_samples_leaf' must be >= 1, got 0"),
    ("random_forest", {"max_depth": 0}, "hyperparameter 'max_depth' must be >= 1, got 0"),
    ("random_forest", {"max_features": 0}, "hyperparameter 'max_features' must be >= 1, got 0"),
    ("decision_tree", {"max_features": -2}, "hyperparameter 'max_features' must be >= 1, got -2"),
])
def test_non_finite_or_out_of_range_hyperparameter_is_a_config_error(kind, hyper, message):
    with pytest.raises(ConfigError) as raised:
        ModelSpec(kind, hyper).resolved()
    assert str(raised.value).startswith(f"{kind}: ") and message in str(raised.value)


def test_hyperparameters_of_related_types_pass():
    assert ModelSpec("mlp", {"hidden_sizes": 8}).resolved()["hidden_sizes"] == (8,)
    assert ModelSpec("logistic_regression", {"c": 2}).resolved()["c"] == 2
    for kind in ("decision_tree", "random_forest"):
        for max_features in (None, "sqrt", 3):
            spec = ModelSpec(kind, {"max_depth": None, "max_features": max_features})
            assert spec.resolved()["max_features"] == max_features
        assert ModelSpec(kind, {"max_depth": 4}).resolved()["max_depth"] == 4


# Per kind, a non-default value of each of its hyperparameters that a fit on
# _linear_problem must feel.
_FELT_VALUES = {
    "sgd_linear": {"epochs": 3, "batch_size": 5, "learning_rate": 0.5, "alpha": 0.1},
    "logistic_regression": {"c": 0.01, "iterations": 5, "learning_rate": 0.05},
    "linear_svc": {"c": 0.01, "iterations": 5},
    "decision_tree": {"max_depth": 1, "min_samples_leaf": 20, "max_features": 1},
    "random_forest": {"n_trees": 3, "max_depth": 1, "min_samples_leaf": 20, "max_features": 1,
                      "bootstrap": False},
    "mlp": {"hidden_sizes": (4,), "dropout_rate": 0.5, "learning_rate": 0.5, "batch_size": 7,
            "epochs": 3},
}


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, hyper in
                                       classifiers.DEFAULT_HYPERPARAMETERS.items() for key in hyper])
def test_every_hyperparameter_reaches_its_fitter(kind, key):
    # A key that ModelSpec.resolved() accepts but no fitter reads fails here,
    # and so does a new key without a felt value.
    X, y = _linear_problem(n=80, d=5)
    Xte, _ = _linear_problem(seed=1, n=80, d=5)  # unseen rows: a grown tree fits its own exactly
    value = _FELT_VALUES[kind][key]
    assert value != classifiers.DEFAULT_HYPERPARAMETERS[kind][key]
    default = train(ModelSpec(kind, seed=3), X, y).predict_proba(Xte)
    changed = train(ModelSpec(kind, {key: value}, seed=3), X, y).predict_proba(Xte)
    assert not np.array_equal(default, changed)


def test_public_api_resolves():
    assert [name for name in readmit.__all__ if not hasattr(readmit, name)] == []
