"""Native implementations of the six-classifier suite.

All kinds share the train / predict_proba / importances surface and are
deterministic given their seed. ``train_fits`` fits many classifiers of one
spec, each on its own rows of one ``fit_data`` matrix, in one call, and
``train`` is its one-fit case. Linear kinds and the MLP standardize features
internally using training statistics; tree kinds consume raw values.
Hinge-loss models map margins through the logistic function for
probabilities, which is enough for ranking-based metrics.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import neural
from .errors import ConfigError, DataError
from .neural import f1_score
from .seeding import derive_seed, rng_for

KINDS = (
    "sgd_linear",
    "logistic_regression",
    "linear_svc",
    "decision_tree",
    "random_forest",
    "mlp",
)

TREE_KINDS = ("decision_tree", "random_forest")
_LINEAR_KINDS = ("sgd_linear", "logistic_regression", "linear_svc")

DEFAULT_HYPERPARAMETERS = {
    "sgd_linear": {"epochs": 25, "batch_size": 32, "learning_rate": 0.05, "alpha": 1e-4},
    "logistic_regression": {"c": 1.0, "iterations": 300, "learning_rate": 0.5},
    "linear_svc": {"c": 1.0, "iterations": 500},
    "decision_tree": {"max_depth": 10, "min_samples_leaf": 1, "max_features": None},
    "random_forest": {"n_trees": 100, "max_depth": None, "min_samples_leaf": 1,
                      "max_features": "sqrt", "bootstrap": True},
    "mlp": {"hidden_sizes": (32, 16), "dropout_rate": 0.0, "learning_rate": 0.05,
            "batch_size": 32, "epochs": 100},
}

# Lower bounds of the numeric hyperparameters of the kinds other than the MLP.
_LOWER_BOUNDS = {"c": (">", 0), "learning_rate": (">=", 0), "alpha": (">=", 0),
                 **dict.fromkeys(("n_trees", "iterations", "epochs", "batch_size",
                                  "min_samples_leaf", "max_depth", "max_features"), (">=", 1))}

_N_PERMUTATIONS = 3  # shuffled copies per column in permutation importance
# The MLP's permutation importance scores its shuffled copies of the training
# matrix in blocks of at most this many bytes, one stacked forward pass per
# block. A block's arrays add about 1.5 times its bytes to peak memory. Per copy
# on a 2-CPU Xeon, a 160x102 matrix took 122 us alone, 76 in blocks of 4 and
# 72 in blocks of 16; a 378x109 one took 200 us alone and 167 in blocks of 4.
_PERMUTATION_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyper: dict = field(default_factory=dict)
    seed: int = 0

    def resolved(self) -> dict:
        """The kind's defaults with ``hyper`` applied, each value of its
        default's type: an int also passes for a float, and a single int for
        a tuple as a one-element tuple; ``max_depth`` also takes None, and
        ``max_features`` None, "sqrt" or an int. A float must be finite, a
        value of another kind than the MLP must pass its ``_LOWER_BOUNDS``,
        and the MLP's values must pass its ``MLPSpec`` and ``TrainConfig`` checks."""
        if self.kind not in KINDS:
            raise ConfigError(f"unknown classifier kind {self.kind!r}; expected one of {KINDS}")
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        unknown = set(self.hyper) - set(merged)
        if unknown:
            raise ConfigError(f"{self.kind}: unknown hyperparameters {sorted(unknown)}")
        for key, value in self.hyper.items():
            default = merged[key]
            if isinstance(default, tuple) and type(value) is int:
                value = (value,)
            if key in ("max_depth", "max_features"):
                ok = value is None or type(value) is int or (key, value) == ("max_features", "sqrt")
            elif isinstance(default, tuple):
                ok = type(value) is tuple and all(type(v) is int for v in value)
            else:
                ok = type(value) is type(default) or type(value) is int and type(default) is float
            if not ok:
                raise ConfigError(f"{self.kind}: hyperparameter {key!r} cannot be {value!r}")
            if type(value) is float and not math.isfinite(value):
                raise ConfigError(f"{self.kind}: hyperparameter {key!r} must be finite, got {value!r}")
            op, bound = _LOWER_BOUNDS.get(key, (None, None))
            if (op and self.kind != "mlp" and isinstance(value, (int, float))
                    and not (value > bound if op == ">" else value >= bound)):
                raise ConfigError(f"{self.kind}: hyperparameter {key!r} must be {op} {bound}, "
                                  f"got {value!r}")
            merged[key] = value
        if self.kind == "mlp":
            try:
                _mlp_configs(merged, input_dim=1)
            except ConfigError as e:
                raise ConfigError(f"{self.kind}: {e}") from None
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


def _mlp_configs(hyper: dict, input_dim: int):
    """The checked ``MLPSpec`` and ``TrainConfig`` of an mlp classifier."""
    spec = neural.MLPSpec(input_dim=input_dim, hidden_sizes=tuple(hyper["hidden_sizes"]),
                          activation="relu", dropout_rate=hyper["dropout_rate"],
                          output_kind="softmax", n_outputs=2)
    config = neural.TrainConfig(learning_rate=hyper["learning_rate"],
                                batch_size=hyper["batch_size"], epochs=hyper["epochs"])
    spec.validate()
    config.validate()
    return spec, config


# ------------------------------------------------------------------ trees

@dataclass(frozen=True)
class _Forest:
    """Every tree of a fit as one set of flat node arrays.

    Tree t's nodes start at ``roots[t]`` and run in preorder, so an internal
    node i has its left child at i + 1 and its right child at ``i + skip[i]``.
    Node i sends a row left when ``X[row, feature[i]] < threshold[i]``; it is
    a leaf when ``feature[i] < 0`` (threshold 0, skip 0). ``value`` is the
    positive-class fraction of the training rows at a node, and
    ``importances[t]`` is tree t's Gini decrease per column.
    """

    feature: np.ndarray
    threshold: np.ndarray
    skip: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    importances: np.ndarray

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) leaf values; every (tree, row) pair still at an
        internal node moves down one level per step."""
        n = X.shape[0]
        node = self.roots.repeat(n)
        row = np.tile(np.arange(n), len(self.roots))
        active = np.flatnonzero(self.feature[node] >= 0)
        while len(active):
            at = node[active]
            go_left = X[row[active], self.feature[at]] < self.threshold[at]
            node[active] = at + np.where(go_left, 1, self.skip[at])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node].reshape(len(self.roots), n)

    def trees(self, lo: int, hi: int) -> "_Forest":
        """The forest of trees lo, lo + 1, ..., hi - 1."""
        start = self.roots[lo]
        end = self.roots[hi] if hi < len(self.roots) else len(self.feature)
        return _Forest(self.feature[start:end], self.threshold[start:end], self.skip[start:end],
                       self.value[start:end], self.roots[lo:hi] - start, self.importances[lo:hi])


# splitmix64's constants, as uint64 so that its arithmetic wraps in uint64
_PHI = np.uint64(0x9E3779B97F4A7C15)  # the increment, 2**64 / golden ratio
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_U1, _U27, _U30, _U31 = (np.uint64(v) for v in (1, 27, 30, 31))

# Trees are grown in batches whose levels hold at most this many sorted
# (node, candidate, sample) entries, 512 KB per int64 array, so that a
# level's arrays stay in a 2 MB L2 cache. Unbatched, a 100-tree fit on
# 385x109 whose nodes see every column raised peak RSS by 326 MB. Three
# such 100-tree fits grown in one call took 2.2 s at this size and 3.4 s
# at 1 << 18 (0.32 and 0.42 s with max_features "sqrt") on a 2-CPU Xeon.
_MAX_ENTRIES = 1 << 16
_NO_TIE = np.iinfo(np.int64).max


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 of each entry of a uint64 array, wrapping modulo 2**64."""
    z = z + _PHI
    z = (z ^ (z >> _U30)) * _MUL1
    z = (z ^ (z >> _U27)) * _MUL2
    return z ^ (z >> _U31)


def _candidates(keys: np.ndarray, n_features: int, k: int) -> np.ndarray:
    """Per node key, the k columns with the smallest ``splitmix64(key ^ col * phi)``,
    in ascending column order.

    One key's hashes are distinct: ``col * phi`` is one-to-one for odd phi,
    and so are the xor with the key and splitmix64. So there are no ties,
    and a partition picks the same columns as a full sort.
    """
    h = _splitmix64(keys[:, None] ^ (np.arange(n_features, dtype=np.uint64) * _PHI))
    return np.sort(np.argpartition(h, k - 1, axis=1)[:, :k], axis=1)


@dataclass(frozen=True)
class FitData:
    """A finite matrix X with binary 0/1 labels y, and for the tree kinds its
    columns' rank codes (``low`` and ``values`` are None for the other kinds).

    Column j's distinct values get codes 0, 1, ... in ascending order, and
    ``values[j, c]`` is the value with code c. ``low[i, j]`` is the tail of
    row i's sort entry for column j: its code, then its label. A node's rows
    sort the same whatever other rows share the codes, so trees grown on any
    rows of one FitData equal trees grown on those rows alone.
    """

    X: np.ndarray
    y: np.ndarray
    low: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    code_bits: int = 0

    def columns(self, cols) -> "FitData":
        """The FitData of ``X[:, cols]``, cut from this one."""
        if self.low is None:
            return FitData(self.X[:, cols], self.y)
        return FitData(self.X[:, cols], self.y, self.low[:, cols], self.values[cols], self.code_bits)


def fit_data(spec: ModelSpec, X, y) -> FitData:
    """(X, y) checked for ``train_fits``; for a tree kind every column is
    rank-coded with one argsort over axis 0."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError("feature matrix contains non-finite entries; impute first")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError(f"labels must be binary 0/1, got {np.unique(y).tolist()}")
    if spec.kind not in TREE_KINDS:
        return FitData(X, y)
    n, d = X.shape
    order = np.argsort(X, axis=0)
    Xs = np.take_along_axis(X, order, axis=0)
    sorted_codes = np.zeros((n, d), dtype=np.int64)
    np.cumsum(Xs[1:] != Xs[:-1], axis=0, out=sorted_codes[1:])
    values = np.zeros((d, n))
    values[np.arange(d), sorted_codes] = Xs
    low = np.empty_like(sorted_codes)
    np.put_along_axis(low, order, sorted_codes << 1, axis=0)
    low |= y.astype(np.int64)[:, None]
    return FitData(X, y, low, values, max(1, int(sorted_codes.max(initial=0)).bit_length()))


def _grow_trees(data: FitData, rows, keys: np.ndarray, max_depth: Optional[int],
                min_leaf: int, max_features: Optional[int]) -> _Forest:
    """Grows one CART tree per entry of ``rows`` (the rows of ``data`` it
    trains on, any number, repeats allowed), all trees of a batch together,
    one depth per step. A tree's importances weight each split by its rows
    over the tree's root rows.

    A node is a leaf at ``max_depth``, below ``2 * min_leaf`` rows, when pure,
    or when no split decreases Gini. Otherwise it splits at the midpoint of
    two adjacent values of a candidate column, taking the largest Gini
    decrease, then the fewest rows on the left, then the lowest column. The
    candidates are every column or, with ``max_features``, the columns that
    ``_candidates`` draws from the node's key: ``keys[t]`` at tree t's root,
    and ``splitmix64(2 * key + side)`` at a child (side 1 on the right).
    """
    batch = max(1, _MAX_ENTRIES // (max(map(len, rows)) * (max_features or data.X.shape[1])))
    parts = [_grow_batch(data, rows[lo:lo + batch], keys[lo:lo + batch] if max_features else None,
                         max_depth, min_leaf, max_features)
             for lo in range(0, len(rows), batch)]
    feature, threshold, skip, value, size, imp = (np.concatenate(a) for a in zip(*parts))
    return _Forest(feature, threshold, skip, value, np.cumsum(size) - size, imp)


def _grow_batch(data, rows, keys, max_depth, min_leaf, max_features):
    """_grow_trees for one batch."""
    X, y = data.X, data.y
    n_trees = len(rows)
    n_root = np.array([len(r) for r in rows])
    k = max_features or X.shape[1]

    # The frontier is the nodes of one depth. Samples are the (row, node)
    # pairs of the frontier nodes that may split; those nodes are numbered
    # 0, 1, ... in frontier order.
    f_tree = np.arange(n_trees)
    f_key = keys
    f_n = n_root
    s_row = np.concatenate(rows)
    s_node = f_tree.repeat(n_root)
    f_pos = np.bincount(s_node, weights=y[s_row], minlength=n_trees)
    side = np.arange(2 * len(s_row), dtype=np.uint64) & _U1
    # Per depth: (tree, n, pos) of the frontier, and (node, left child,
    # feature, threshold, decrease) of its splits, by node number over all depths.
    levels = []
    offset = 0  # the number of the frontier's first node
    depth = 0
    while True:
        grow = (f_n >= 2 * min_leaf) & (f_pos > 0) & (f_pos < f_n)
        if max_depth is not None and depth >= max_depth:
            grow[:] = False
        sp = grow.nonzero()[0]
        if len(sp) < len(grow):
            keep = grow[s_node].nonzero()[0]
            s_row = s_row[keep]
            s_node = (grow.cumsum() - 1)[s_node[keep]]
        if len(sp):
            split, feature, threshold, decrease = _best_splits(
                data.low, data.values, data.code_bits, s_row, s_node,
                None if f_key is None else _candidates(f_key[sp], X.shape[1], k),
                f_n[sp], f_pos[sp], k, min_leaf)
        else:
            split = feature = threshold = decrease = sp
        q = len(split)
        left = np.arange(0, 2 * q, 2)
        levels.append((f_tree, f_n, f_pos, offset + sp[split], offset + len(f_tree) + left,
                       feature, threshold, decrease))
        if not q:
            break
        offset += len(f_tree)
        # Route: the q-th split sends its samples to children 2q (left) and
        # 2q + 1; samples of nodes that did not split go to two bins past the end.
        child = np.full(len(sp), 2 * q)
        child[split] = left
        at_feature = np.zeros(len(sp), dtype=np.intp)
        at_feature[split] = feature
        at_threshold = np.zeros(len(sp))
        at_threshold[split] = threshold
        c = child[s_node] + (X[s_row, at_feature[s_node]] >= at_threshold[s_node])
        split = sp[split]
        f_tree = f_tree[split].repeat(2)
        if f_key is not None:
            f_key = _splitmix64((f_key[split].repeat(2) << _U1) | side[:2 * q])
        f_n = np.bincount(c, minlength=2 * q + 2)[:2 * q]
        f_pos = np.bincount(c, weights=y[s_row], minlength=2 * q + 2)[:2 * q]
        keep = (c < 2 * q).nonzero()[0]
        s_row = s_row[keep]
        s_node = c[keep]
        depth += 1
    return _assemble(levels, n_root, X.shape[1])


def _best_splits(low, values, code_bits, s_row, s_node, cand, n, pos, k, min_leaf):
    """(nodes, feature, threshold, decrease) of the nodes that split.

    Node i has ``n[i]`` samples, ``pos[i]`` of them positive, and candidate
    columns ``cand[i]`` (every column when ``cand`` is None). Every (node,
    candidate) pair is one segment of entries, one per sample, packed as
    ``segment | code | label`` into an int64 and sorted, so a segment lists
    its node's samples in the candidate column's value order.
    """
    shift = code_bits + 1
    entry = low[s_row] if cand is None else low[s_row[:, None], cand[s_node]]
    entry += (s_node * (k << shift))[:, None] + (np.arange(k) << shift)
    entry = np.sort(entry, axis=None)

    # A split may follow the last entry of each (segment, code) group but a segment's last.
    group = entry >> 1
    b = (group[1:] != group[:-1]).nonzero()[0]
    seg_b = group[b] >> code_bits
    seg_n = n.repeat(k)
    seg_start = seg_n.cumsum() - seg_n
    left_n = b + 1 - seg_start[seg_b]
    node_n = seg_n[seg_b]
    ok = ((left_n >= min_leaf) & (node_n - left_n >= min_leaf)).nonzero()[0]
    if not len(ok):
        return ok, ok, ok, ok
    b, seg_b, left_n, node_n = b[ok], seg_b[ok], left_n[ok], node_n[ok]
    cum = (entry & 1).cumsum()
    lft_pos = cum[b] - (cum[seg_start] - (entry[seg_start] & 1))[seg_b]
    node_b = seg_b // k

    # The Gini decrease, in the floating-point operations of a per-node search.
    rgt_n = node_n - left_n
    rgt_pos = pos[node_b] - lft_pos
    pl = lft_pos / left_n
    pr = rgt_pos / rgt_n
    weighted = (left_n * (2.0 * pl * (1.0 - pl)) + rgt_n * (2.0 * pr * (1.0 - pr))) / node_n
    p = pos / n
    dec = (2.0 * p * (1.0 - p))[node_b] - weighted

    # Per node: largest decrease, then fewest rows on the left, then lowest candidate.
    first = np.empty(len(b), dtype=bool)
    first[0] = True
    np.not_equal(node_b[1:], node_b[:-1], out=first[1:])
    starts = first.nonzero()[0]
    at = first.cumsum() - 1
    best = np.maximum.reduceat(dec, starts)
    tie = left_n * k + seg_b % k
    tie[dec != best[at]] = _NO_TIE
    chosen = (tie == np.minimum.reduceat(tie, starts)[at]).nonzero()[0]
    chosen = chosen[best > 0]
    s = node_b[chosen]
    f = seg_b[chosen] % k
    if cand is not None:
        f = cand[s, f]
    code_mask = (1 << code_bits) - 1
    lo = values[f, group[b[chosen]] & code_mask]
    hi = values[f, group[b[chosen] + 1] & code_mask]
    thr = 0.5 * (lo + hi)
    # Between adjacent floats the midpoint can round down to lo, which would
    # send every row right; hi separates the two values.
    return s, f, np.where(thr > lo, thr, hi), dec[chosen]


def _assemble(levels, n_root: np.ndarray, n_features: int):
    """One batch's (feature, threshold, skip, value, tree sizes, importances),
    each tree's nodes in preorder, with the split importances added in that
    order, as a depth-first grower would. Tree t has ``n_root[t]`` root rows."""
    n_trees = len(n_root)
    tree, n, pos = (np.concatenate(a) for a in zip(*(lv[:3] for lv in levels)))
    size = np.ones(len(tree), dtype=np.intp)
    for lv in reversed(levels):
        size[lv[3]] += size[lv[4]] + size[lv[4] + 1]
    pre = np.zeros(len(tree), dtype=np.intp)
    for lv in levels:
        pre[lv[4]] = pre[lv[3]] + 1
        pre[lv[4] + 1] = pre[lv[4]] + size[lv[4]]
    place = (np.cumsum(size[:n_trees]) - size[:n_trees])[tree] + pre

    split, left, feature, threshold, decrease = (np.concatenate(a)
                                                 for a in zip(*(lv[3:] for lv in levels)))
    at = place[split]
    node_feature = np.full(len(tree), -1)
    node_feature[at] = feature
    node_threshold = np.zeros(len(tree))
    node_threshold[at] = threshold
    skip = np.zeros(len(tree), dtype=np.intp)
    skip[at] = 1 + size[left]
    value = np.empty(len(tree))
    value[place] = pos / n

    # bincount of no entries is int64 even with weights, hence the cast.
    order = np.argsort(at)
    imp = np.bincount((tree[split] * n_features + feature)[order],
                      weights=(decrease * n[split] / n_root[tree[split]])[order],
                      minlength=n_trees * n_features).astype(float).reshape(n_trees, n_features)
    return node_feature, node_threshold, skip, value, size[:n_trees], imp


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
    forest: Optional[_Forest] = None
    mlp: Optional[neural.MLPModel] = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"row width {X.shape[1] if X.ndim == 2 else '?'} != trained width {self.n_features}")
        if not np.all(np.isfinite(X)):
            raise DataError("feature rows contain non-finite entries; impute first")
        kind = self.spec.kind
        if kind in _LINEAR_KINDS:
            Z = self.standardizer.transform(X)
            return neural.sigmoid(Z @ self.weights + self.bias)
        if kind in TREE_KINDS:
            return self.forest.leaf_values(X).mean(axis=0)
        Z = self.standardizer.transform(X)
        return neural.predict(self.mlp, Z)[:, 1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(float)


def train(spec: ModelSpec, X, y) -> TrainedClassifier:
    """Fit one classifier on a finite matrix and binary 0/1 labels."""
    data = fit_data(spec, X, y)
    return train_fits(spec, data, [(np.arange(len(data.y)), spec.seed)])[0]


def train_fits(spec: ModelSpec, data: FitData, fits) -> list[TrainedClassifier]:
    """For each (rows, seed) of ``fits``, the classifier that
    ``train(replace(spec, seed=seed), X, data.y[rows])`` returns, X being
    ``data.X[rows]`` in the memory order of ``data.X``.

    The tree kinds grow the trees of all fits in one ``_grow_trees`` call.
    The MLP standardizes each fit on its own rows and trains all fits in one
    ``neural.train_mlps`` loop, on their standardized rows stacked. The
    linear kinds fit one after another.
    """
    fits = list(fits)
    for rows, _ in fits:
        if len(np.unique(data.y[rows])) < 2:
            raise DataError("training labels contain a single class")
    hyper = spec.resolved()
    if not fits:
        return []
    d = data.X.shape[1]
    if spec.kind in TREE_KINDS:
        # A decision tree is grown exactly like a forest's one tree without bootstrap.
        forest = spec.kind == "random_forest"
        n_trees = hyper["n_trees"] if forest else 1
        rows, keys = [], []
        for fit_rows, seed in fits:
            n = len(fit_rows)
            for t in range(n_trees):
                keys.append(derive_seed(seed, "tree", t))
                idx = fit_rows
                if forest and hyper["bootstrap"]:
                    boot = fit_rows[rng_for(seed, "tree", t).integers(0, n, n)]
                    if data.y[boot].min() != data.y[boot].max():  # degenerate bootstrap: keep original
                        idx = boot
                rows.append(idx)
        grown = _grow_trees(data, rows, np.array(keys, dtype=np.uint64), hyper["max_depth"],
                            hyper["min_samples_leaf"], _resolve_max_features(hyper["max_features"], d))
        return [TrainedClassifier(spec=replace(spec, seed=seed), n_features=d,
                                  forest=grown.trees(i * n_trees, (i + 1) * n_trees))
                for i, (_, seed) in enumerate(fits)]

    # A fit's rows keep data.X's memory order, on which numpy's column sums depend:
    # it sums a column of a Fortran-ordered matrix, as RFE's cuts are, pairwise.
    order = "F" if data.X.flags.f_contiguous else "C"
    Xs = [np.asarray(data.X[rows], order=order) for rows, _ in fits]
    clfs = [TrainedClassifier(spec=replace(spec, seed=seed), n_features=d,
                              standardizer=_Standardizer.fit(X)) for X, (_, seed) in zip(Xs, fits)]
    if spec.kind == "mlp":
        # Each fit's standardized rows and labels, stacked in fit order.
        Z = np.concatenate([clf.standardizer.transform(X) for clf, X in zip(clfs, Xs)])
        y = np.concatenate([data.y[rows] for rows, _ in fits])
        stacked = np.split(np.arange(len(y)), np.cumsum([len(rows) for rows, _ in fits])[:-1])
        mlp_spec, config = _mlp_configs(hyper, d)
        models = neural.train_mlps(mlp_spec, Z, np.stack([1.0 - y, y], axis=1),
                                   [(at, clf.spec.seed) for at, clf in zip(stacked, clfs)], config)
        return [replace(clf, mlp=model) for clf, model in zip(clfs, models)]
    for clf, X, (rows, seed) in zip(clfs, Xs, fits):
        Z, y = clf.standardizer.transform(X), data.y[rows]
        if spec.kind == "logistic_regression":
            clf.weights, clf.bias = _fit_logistic(Z, y, hyper)
        elif spec.kind == "linear_svc":
            clf.weights, clf.bias = _fit_svc(Z, y, hyper)
        else:  # sgd_linear
            clf.weights, clf.bias = _fit_sgd_hinge(Z, y, hyper, seed)
    return clfs


def _normalize(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


def importances(clf: TrainedClassifier, X, y, seed: int = 0) -> np.ndarray:
    """Per-column nonnegative importances summing to 1 (or all zero).

    The method is fixed by the kind. Trees: mean decrease in Gini. Linear
    kinds: |weight| on standardized inputs. MLP: permutation, the mean F1
    drop on (X, y) over three shuffled copies of each column, negatives
    clamped to 0. The copies are scored in blocks, each block stacked
    through one forward pass.
    """
    if clf.spec.kind in TREE_KINDS:
        imp = clf.forest.importances
        total = imp.sum(axis=1, keepdims=True)
        return _normalize((imp / np.where(total > 0, total, 1.0)).mean(axis=0))
    if clf.spec.kind in _LINEAR_KINDS:
        return _normalize(np.abs(clf.weights))

    # Standardizing is elementwise per column, so shuffling a standardized
    # column gives the same matrix as standardizing a shuffled one.
    Z = clf.standardizer.transform(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = Z.shape

    def f1_on(Z):
        return f1_score(y, neural.predict(clf.mlp, Z)[..., 1] >= 0.5)

    base = f1_on(Z)
    copies = [(j, r) for j in range(d) for r in range(_N_PERMUTATIONS)]
    per_block = min(len(copies), max(1, _PERMUTATION_BLOCK_BYTES // max(1, Z.nbytes)))
    shuffled = np.repeat(Z[None], per_block, axis=0)  # reused: each block restores its columns
    f1 = np.empty(len(copies))
    for lo in range(0, len(copies), per_block):
        block = copies[lo:lo + per_block]
        for c, (j, r) in enumerate(block):
            shuffled[c, :, j] = Z[rng_for(seed, "perm", j, r).permutation(n), j]
        f1[lo:lo + len(block)] = f1_on(shuffled[:len(block)])
        for c, (j, _) in enumerate(block):
            shuffled[c, :, j] = Z[:, j]
    drops = np.zeros(d)
    for r in range(_N_PERMUTATIONS):
        drops += base - f1[r::_N_PERMUTATIONS]
    drops = np.maximum(drops / _N_PERMUTATIONS, 0.0)
    return _normalize(drops)
