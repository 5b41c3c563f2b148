import numpy as np
import pytest

import readmit
from readmit.classifiers import KINDS, ModelSpec, _grow_tree, importances, train
from readmit.errors import ConfigError, DataError
from readmit.evaluate import metrics
from readmit.seeding import rng_for

from helpers import reference_grow_tree, reference_tree_predict

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
    tree = clf.trees[0]
    assert tree.feature[0] == 2
    # depth 1: the root and two leaves, in preorder
    assert tree.left.tolist() == [1, -1, -1] and tree.right.tolist() == [2, -1, -1]
    assert np.array_equal(clf.predict(X), y)


def test_array_tree_matches_reference_tree():
    rng = np.random.default_rng(40)
    for k in range(40):
        n = int(rng.integers(10, 400))
        d = int(rng.integers(1, 110)) if k % 4 == 0 else int(rng.integers(1, 20))
        X = rng.normal(0, 1, (n, d))
        X[:, : d // 3] = np.round(X[:, : d // 3])  # columns with tied values
        y = (rng.random(n) < 1 / (1 + np.exp(-2.0 * X[:, -1]))).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        max_depth = (None, 3, 8)[k % 3]
        min_leaf = 1 + k % 3
        max_features = None if k % 2 else max(1, int(np.sqrt(d)))
        args = (max_depth, min_leaf, max_features, d)
        tree = _grow_tree(X, y, rng_for(k, "tree", 0), *args)
        root, imp = reference_grow_tree(X, y, rng_for(k, "tree", 0), *args)

        Xte = np.vstack([X, rng.normal(0, 1, (60, d))])
        assert np.array_equal(tree.predict_proba(Xte), reference_tree_predict(root, Xte))
        assert np.array_equal(tree.importances, imp)


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


def test_public_api_resolves():
    assert [name for name in readmit.__all__ if not hasattr(readmit, name)] == []
