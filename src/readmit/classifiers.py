"""Native implementations of the six-classifier suite.

All kinds share the train / predict_proba / importances surface and are
deterministic given their seed. Linear kinds and the MLP standardize
features internally using training statistics; tree kinds consume raw
values. Hinge-loss models map margins through the logistic function for
probabilities, which is enough for ranking-based metrics.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import neural
from .errors import ConfigError, DataError
from .seeding import rng_for

KINDS = (
    "sgd_linear",
    "logistic_regression",
    "linear_svc",
    "decision_tree",
    "random_forest",
    "mlp",
)

_TREE_KINDS = ("decision_tree", "random_forest")
_LINEAR_KINDS = ("sgd_linear", "logistic_regression", "linear_svc")

DEFAULT_HYPERPARAMETERS = {
    "sgd_linear": {"epochs": 25, "batch_size": 32, "learning_rate": 0.05, "alpha": 1e-4},
    "logistic_regression": {"c": 1.0, "iterations": 300, "learning_rate": 0.5},
    "linear_svc": {"c": 1.0, "iterations": 500},
    "decision_tree": {"max_depth": 10, "min_samples_leaf": 1, "max_features": None},
    "random_forest": {"n_trees": 100, "max_depth": None, "min_samples_leaf": 1,
                      "max_features": "sqrt", "bootstrap": True},
    "mlp": {"hidden_sizes": (32, 16), "dropout_rate": 0.0, "learning_rate": 0.05,
            "batch_size": 32, "epochs": 100, "patience": 20},
}

_N_PERMUTATIONS = 3  # shuffled copies per column in permutation importance


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyper: dict = field(default_factory=dict)
    seed: int = 0

    def resolved(self) -> dict:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown classifier kind {self.kind!r}; expected one of {KINDS}")
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        unknown = set(self.hyper) - set(merged)
        if unknown:
            raise ConfigError(f"{self.kind}: unknown hyperparameters {sorted(unknown)}")
        merged.update(self.hyper)
        return merged


class _Standardizer:
    def __init__(self, mean: np.ndarray, scale: np.ndarray):
        self.mean = mean
        self.scale = scale

    @classmethod
    def fit(cls, X: np.ndarray) -> "_Standardizer":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        return cls(mean, scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


# ------------------------------------------------------------------ trees

class _Tree:
    """A binary tree as five parallel arrays, nodes in preorder (root at 0).

    Node i sends a row left when ``X[row, feature[i]] < threshold[i]``.
    Leaves have ``left == right == -1`` (and feature -1, threshold 0);
    ``value`` is the positive-class fraction of the training rows at a node.
    """

    def __init__(self, feature, threshold, left, right, value, importances: np.ndarray):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=float)
        self.importances = importances

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Moves every row still at an internal node down one level per step."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.left[node] >= 0)
        while len(active):
            at = node[active]
            go_left = X[active, self.feature[at]] < self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.left[node[active]] >= 0]
        return self.value[node]


def _gini(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(X: np.ndarray, y: np.ndarray, feat_idx: np.ndarray, min_leaf: int):
    """Best Gini split over the candidate features; None if no valid split."""
    n = X.shape[0]
    sub = X[:, feat_idx]
    order = np.argsort(sub, axis=0, kind="stable")
    Xs = np.take_along_axis(sub, order, axis=0)
    ys = y[order]

    cum_pos = np.cumsum(ys, axis=0)
    total_pos = cum_pos[-1]
    left_n = np.arange(1, n, dtype=float)[:, None]
    right_n = n - left_n
    left_pos = cum_pos[:-1]
    right_pos = total_pos - left_pos

    p_all = y.sum() / n
    parent_gini = 2.0 * p_all * (1.0 - p_all)

    weighted = (left_n * _gini(left_pos, left_n) + right_n * _gini(right_pos, right_n)) / n
    decrease = parent_gini - weighted
    valid = (Xs[1:] > Xs[:-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    decrease[~valid] = -np.inf
    flat = int(np.argmax(decrease))
    pos_i, col = np.unravel_index(flat, decrease.shape)
    if decrease[pos_i, col] <= 0.0 or not np.isfinite(decrease[pos_i, col]):
        return None
    threshold = 0.5 * (Xs[pos_i, col] + Xs[pos_i + 1, col])
    return int(feat_idx[col]), float(threshold), float(decrease[pos_i, col])


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: Optional[np.random.Generator],
               max_depth: Optional[int], min_leaf: int,
               max_features: Optional[int], n_total_features: int) -> _Tree:
    importances = np.zeros(n_total_features)
    n_root = X.shape[0]
    feature, threshold, left, right, value = [], [], [], [], []

    def build(idx: np.ndarray, depth: int) -> int:
        """Appends the subtree at idx in preorder; returns its root's index."""
        yn = y[idx]
        node = len(value)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(yn.mean()))
        n = len(idx)
        if (max_depth is not None and depth >= max_depth) or n < 2 * min_leaf:
            return node
        if yn.min() == yn.max():
            return node
        if max_features is None:
            feat_idx = np.arange(n_total_features)
        else:
            feat_idx = rng.permutation(n_total_features)[:max_features]
        split = _best_split(X[idx], yn, feat_idx, min_leaf)
        if split is None:
            return node
        feature[node], threshold[node], decrease = split
        importances[feature[node]] += decrease * n / n_root
        mask = X[idx, feature[node]] < threshold[node]
        left[node] = build(idx[mask], depth + 1)
        right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(n_root), 0)
    return _Tree(feature, threshold, left, right, value, importances)


def _resolve_max_features(setting, n_features: int) -> Optional[int]:
    if setting is None:
        return None
    if setting == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    k = int(setting)
    if not 1 <= k <= n_features:
        raise ConfigError(f"max_features {setting!r} outside [1, {n_features}]")
    return None if k == n_features else k


# ------------------------------------------------------------ linear fits

def _fit_logistic(X: np.ndarray, y: np.ndarray, hyper: dict):
    n, d = X.shape
    lam = 1.0 / (hyper["c"] * n)
    w = np.zeros(d)
    b = 0.0
    lr = hyper["learning_rate"]
    for _ in range(hyper["iterations"]):
        p = neural.sigmoid(X @ w + b)
        grad_w = X.T @ (p - y) / n + lam * w
        grad_b = float((p - y).mean())
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def _fit_svc(X: np.ndarray, y: np.ndarray, hyper: dict):
    n, d = X.shape
    lam = 1.0 / (hyper["c"] * n)
    w = np.zeros(d)
    b = 0.0
    sign = 2.0 * y - 1.0
    for t in range(1, hyper["iterations"] + 1):
        lr = 1.0 / (lam * t + 10.0)
        margins = sign * (X @ w + b)
        active = margins < 1.0
        grad_w = lam * w - (sign[active, None] * X[active]).sum(axis=0) / n
        grad_b = -float(sign[active].sum()) / n
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def _fit_sgd_hinge(X: np.ndarray, y: np.ndarray, hyper: dict, seed: int):
    n, d = X.shape
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    b = 0.0
    sign = 2.0 * y - 1.0
    alpha = hyper["alpha"]
    lr0 = hyper["learning_rate"]
    step = 0
    for _ in range(hyper["epochs"]):
        order = rng.permutation(n)
        for start in range(0, n, hyper["batch_size"]):
            idx = order[start:start + hyper["batch_size"]]
            lr = lr0 / (1.0 + 0.01 * step)
            margins = sign[idx] * (X[idx] @ w + b)
            active = margins < 1.0
            grad_w = alpha * w - (sign[idx][active, None] * X[idx][active]).sum(axis=0) / len(idx)
            grad_b = -float(sign[idx][active].sum()) / len(idx)
            w -= lr * grad_w
            b -= lr * grad_b
            step += 1
    return w, b


# -------------------------------------------------------------- the suite

@dataclass
class TrainedClassifier:
    """Immutable after training; predict_proba returns P(positive)."""

    spec: ModelSpec
    n_features: int
    standardizer: Optional[_Standardizer] = None
    weights: Optional[np.ndarray] = None
    bias: float = 0.0
    trees: Optional[list[_Tree]] = None
    mlp: Optional[neural.MLPModel] = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"row width {X.shape[1] if X.ndim == 2 else '?'} != trained width {self.n_features}")
        kind = self.spec.kind
        if kind in _LINEAR_KINDS:
            Z = self.standardizer.transform(X)
            return neural.sigmoid(Z @ self.weights + self.bias)
        if kind in _TREE_KINDS:
            return np.mean([t.predict_proba(X) for t in self.trees], axis=0)
        Z = self.standardizer.transform(X)
        return neural.predict(self.mlp, Z)[:, 1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(float)


def train(spec: ModelSpec, X, y) -> TrainedClassifier:
    """Fit one classifier on a finite matrix and binary 0/1 labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError("feature matrix contains non-finite entries; impute first")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DataError("training labels contain a single class")
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise DataError(f"labels must be binary 0/1, got {classes.tolist()}")

    hyper = spec.resolved()
    clf = TrainedClassifier(spec=spec, n_features=X.shape[1])
    kind = spec.kind

    if kind in _LINEAR_KINDS:
        clf.standardizer = _Standardizer.fit(X)
        Z = clf.standardizer.transform(X)
        if kind == "logistic_regression":
            clf.weights, clf.bias = _fit_logistic(Z, y, hyper)
        elif kind == "linear_svc":
            clf.weights, clf.bias = _fit_svc(Z, y, hyper)
        else:
            clf.weights, clf.bias = _fit_sgd_hinge(Z, y, hyper, spec.seed)
    elif kind in _TREE_KINDS:
        # A decision tree is grown exactly like a forest's one tree without bootstrap.
        forest = kind == "random_forest"
        max_feats = _resolve_max_features(hyper["max_features"], X.shape[1])
        trees = []
        for t in range(hyper["n_trees"] if forest else 1):
            rng = rng_for(spec.seed, "tree", t)
            if forest and hyper["bootstrap"]:
                idx = rng.integers(0, X.shape[0], X.shape[0])
                Xt, yt = X[idx], y[idx]
                if yt.min() == yt.max():  # degenerate bootstrap: keep original
                    Xt, yt = X, y
            else:
                Xt, yt = X, y
            trees.append(_grow_tree(Xt, yt, rng, hyper["max_depth"],
                                    hyper["min_samples_leaf"], max_feats, X.shape[1]))
        clf.trees = trees
    else:  # mlp
        clf.standardizer = _Standardizer.fit(X)
        Z = clf.standardizer.transform(X)
        mlp_spec = neural.MLPSpec(
            input_dim=X.shape[1], hidden_sizes=tuple(hyper["hidden_sizes"]),
            activation="relu", dropout_rate=hyper["dropout_rate"],
            output_kind="softmax", n_outputs=2)
        Y = np.stack([1.0 - y, y], axis=1)
        cfg = neural.TrainConfig(
            learning_rate=hyper["learning_rate"], batch_size=hyper["batch_size"],
            epochs=hyper["epochs"], seed=spec.seed, patience=hyper["patience"])
        clf.mlp = neural.train_mlp(mlp_spec, Z, Y, cfg)
    return clf


def _normalize(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


def f1_score(y_true, y_pred) -> float:
    """Binary F1 of the positive class; 0 when there are no true or predicted positives."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = float(np.sum((y_pred == 1) & (y_true == 1)))
    fp = float(np.sum((y_pred == 1) & (y_true == 0)))
    fn = float(np.sum((y_pred == 0) & (y_true == 1)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def importances(clf: TrainedClassifier, X, y, seed: int = 0) -> np.ndarray:
    """Per-column nonnegative importances summing to 1 (or all zero).

    The method is fixed by the kind. Trees: mean decrease in Gini. Linear
    kinds: |weight| on standardized inputs. MLP: permutation, the mean F1
    drop on (X, y) over three shuffled copies of each column, negatives
    clamped to 0.
    """
    if clf.spec.kind in _TREE_KINDS:
        per_tree = [_normalize(t.importances.copy()) for t in clf.trees]
        return _normalize(np.mean(per_tree, axis=0))
    if clf.spec.kind in _LINEAR_KINDS:
        return _normalize(np.abs(clf.weights))

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    base = f1_score(y, clf.predict(X))
    drops = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j].copy()
        for r in range(_N_PERMUTATIONS):
            rng = rng_for(seed, "perm", j, r)
            Xp = X.copy()
            Xp[:, j] = col[rng.permutation(len(col))]
            drops[j] += base - f1_score(y, clf.predict(Xp))
    drops = np.maximum(drops / _N_PERMUTATIONS, 0.0)
    return _normalize(drops)

