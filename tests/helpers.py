"""Independent oracles shared across test modules.

These deliberately re-derive results by the most direct method available
(all-pairs counting, explicit confusion tallies, finite differences) so
the implementations under test are checked against a second route.
"""

import hashlib
import re
from dataclasses import replace

import numpy as np

from readmit import classifiers, neural, syngen
from readmit.classifiers import f1_score
from readmit.corpus import Admission, Corpus, Note, Patient
from readmit.domains import RISK_DOMAINS
from readmit.errors import FieldRangeError, NoteParseError, TrainingDivergedError
from readmit.evaluate import RfeOutcome, RfeRepeat
from readmit.features import FEATURES, FeatureSchema, Imputer
from readmit.seeding import derive_seed, rng_for
from readmit.textproc import (_TOKEN_RE, COMPLIANCE_LEVELS, INSIGHT_LEVELS, NoteFields,
                              _block_spans, default_abbreviations, split_sentences,
                              tokenize)


def brute_force_auc(y_true, y_score) -> float:
    """All-pairs AUC: wins count 1, ties 0.5, over every (pos, neg) pair."""
    y_true = np.asarray(y_true)
    y_score = np.asarray(y_score)
    pos = y_score[y_true == 1]
    neg = y_score[y_true == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def confusion_tally(y_true, y_pred):
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def reference_hash_slot(gram: str, dim: int):
    """Second implementation of the encoder's hashing contract."""
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=9).digest()
    value = 0
    for byte in digest[:8]:
        value = value * 256 + byte
    bucket = value % dim
    sign = 1.0 if digest[8] % 2 == 0 else -1.0
    return bucket, sign


def reference_encode(tokens, dim):
    v = np.zeros(dim)
    grams = list(tokens) + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    for g in grams:
        bucket, sign = reference_hash_slot(g, dim)
        v[bucket] += sign
    n = np.sqrt((v * v).sum())
    return v / n if n > 0 else v


def reference_encode_rows(rows):
    """``features.encode_rows`` cell by cell: each name of
    ``FeatureSchema.build()`` is read back as ``f``, ``f__missing`` or
    ``f=level`` and its cell filled from ``row.values``. A numeric is its
    value, NaN when missing, and its ``__missing`` cell is 1 when missing.
    A categorical sets the one level its value falls in: a known level is
    itself; a missing value falls in Missing, else Unknown, else the last
    level; an unseen value in Unknown, else Missing, else the last level."""
    by_name = {f.name: f for f in FEATURES}
    names = FeatureSchema.build().names
    X = np.zeros((len(rows), len(names)))
    for i, row in enumerate(rows):
        for j, name in enumerate(names):
            feature, is_onehot, level = name.partition("=")
            if is_onehot:
                f, v = by_name[feature], row.values[feature]
                has = {"Unknown": "Unknown" in f.levels, "Missing": f.missing_level}
                order = ("Missing", "Unknown") if v is None else ("Unknown", "Missing")
                falls_in = v if v in f.levels else next((lv for lv in order if has[lv]),
                                                        f.levels[-1])
                X[i, j] = 1.0 if falls_in == level else 0.0
            elif name.endswith("__missing"):
                X[i, j] = 1.0 if row.values[name[:-len("__missing")]] is None else 0.0
            else:
                X[i, j] = np.nan if row.values[name] is None else float(row.values[name])
    return X


def reference_tokenize(text):
    """``textproc.tokenize`` by way of ``finditer``, one match object per token."""
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


def mlp_as_dtype(model, dtype):
    """A copy of an MLP with its weights and biases cast to ``dtype``."""
    return replace(model, weights=[W.astype(dtype) for W in model.weights],
                   biases=[b.astype(dtype) for b in model.biases])


def gradient_check(spec, seed, n_rows=7, step=1e-4, weight_decay=0.0,
                   max_entries=10, kink_margin=5e-3):
    """Worst relative error between analytic and central-difference grads.

    For relu specs, redraws the seed until no pre-activation sits within
    ``kink_margin`` of zero, where finite differences are invalid.
    """
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1000 * attempt)
        model = neural.init_mlp(spec, seed=seed + 1000 * attempt)
        for l in range(len(model.weights)):
            model.weights[l] = rng.normal(0, 0.5, model.weights[l].shape)
            model.biases[l] = rng.normal(0, 0.5, model.biases[l].shape)
        X = rng.normal(0, 1.0, (n_rows, spec.input_dim))
        if spec.output_kind == "softmax":
            Y = np.zeros((n_rows, spec.n_outputs))
            Y[np.arange(n_rows), rng.integers(0, spec.n_outputs, n_rows)] = 1.0
        else:
            Y = (rng.random((n_rows, spec.n_outputs)) < 0.5).astype(float)
        if spec.activation == "relu":
            _, zs, _, _ = _reference_forward(model, X)
            if any(np.abs(z).min() < kink_margin for z in zs):
                continue
        break

    loss, gW, gb = neural.loss_and_gradients(model, X, Y, weight_decay=weight_decay)
    worst = 0.0
    param_rng = np.random.default_rng(seed + 7)
    for l in range(len(model.weights)):
        for arr, grad in ((model.weights[l], gW[l]), (model.biases[l], gb[l])):
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            picks = param_rng.permutation(flat.size)[:max_entries]
            for k in picks:
                orig = flat[k]
                flat[k] = orig + step
                lp = neural.loss_and_gradients(model, X, Y, weight_decay=weight_decay)[0]
                flat[k] = orig - step
                lm = neural.loss_and_gradients(model, X, Y, weight_decay=weight_decay)[0]
                flat[k] = orig
                numeric = (lp - lm) / (2 * step)
                rel = abs(numeric - gflat[k]) / max(1e-8, abs(numeric) + abs(gflat[k]))
                worst = max(worst, rel)
    return worst


def _reference_forward(model, X, masks=None):
    """One model's forward pass on a (rows, d) matrix, layer by layer."""
    spec = model.spec
    inputs, zs, hs = [X], [], []
    h = X
    for l in range(len(spec.hidden_sizes)):
        z = h @ model.weights[l] + model.biases[l]
        a = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
        zs.append(z)
        hs.append(a)
        h = a if masks is None else a * masks[l]
        inputs.append(h)
    z_out = h @ model.weights[-1] + model.biases[-1]
    if spec.output_kind == "softmax":
        with np.errstate(invalid="ignore", over="ignore"):
            e = np.exp(z_out - z_out.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
    else:
        probs = neural.sigmoid(z_out)
    return inputs, zs, hs, probs


def _reference_loss_and_gradients(model, X, Y, weight_decay, masks):
    """Mean cross-entropy plus L2 penalty, and its gradients, for one model."""
    spec = model.spec
    inputs, zs, hs, probs = _reference_forward(model, X, masks)
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    Y64 = np.asarray(Y, dtype=np.float64)
    if spec.output_kind == "softmax":
        loss = float(-(Y64 * np.log(p)).sum(axis=1).mean())
    else:
        loss = float(-(Y64 * np.log(p) + (1.0 - Y64) * np.log(1.0 - p)).sum(axis=1).mean())
    if weight_decay:
        loss += 0.5 * weight_decay * sum(float((W * W).sum()) for W in model.weights)
    delta = (probs - Y) / X.shape[0]
    grads_W, grads_b = [None] * len(model.weights), [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_W[l] = inputs[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if weight_decay:
            grads_W[l] = grads_W[l] + weight_decay * model.weights[l]
        if l > 0:
            upstream = delta @ model.weights[l].T
            if masks is not None:
                upstream = upstream * masks[l - 1]
            grad = ((zs[l - 1] > 0.0).astype(zs[l - 1].dtype) if spec.activation == "relu"
                    else 1.0 - hs[l - 1] * hs[l - 1])
            delta = upstream * grad
    return loss, grads_W, grads_b


def reference_train_mlp(spec, X, Y, config):
    """One MLP trained alone, batch by batch on 2-D arrays: the minibatch SGD
    loop that ``neural.train_mlps`` runs for many fits at once."""
    X = np.asarray(X)
    dtype = np.float32 if X.dtype == np.float32 else np.float64
    X = X.astype(dtype, copy=False)
    Y = np.asarray(Y, dtype=dtype)
    model = neural.init_mlp(spec, seed=config.seed)
    model.weights = [W.astype(dtype, copy=False) for W in model.weights]
    model.biases = [b.astype(dtype, copy=False) for b in model.biases]
    rng = np.random.default_rng(config.seed + 1)
    n = X.shape[0]
    best_loss, stale, history = np.inf, 0, []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            masks = None
            if spec.dropout_rate > 0.0:
                masks = [neural.dropout_mask((len(idx), h), spec.dropout_rate, rng).astype(dtype)
                         for h in spec.hidden_sizes]
            loss, gW, gb = _reference_loss_and_gradients(model, X[idx], Y[idx],
                                                         config.weight_decay, masks)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
            for l in range(len(model.weights)):
                model.weights[l] -= np.multiply(gW[l], config.learning_rate, out=gW[l])
                model.biases[l] -= np.multiply(gb[l], config.learning_rate, out=gb[l])
            total += loss * len(idx)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch, epoch_loss)
        history.append(epoch_loss)
        if epoch_loss < best_loss - 1e-9:
            best_loss, stale = epoch_loss, 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.seed = config.seed
    model.epochs_run = len(history)
    model.final_loss = history[-1] if history else float("nan")
    model.loss_history = history
    return model


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix64(x: int) -> int:
    """splitmix64 on a Python int, masked to 64 bits after every step."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_candidates(key: int, n_features: int, k: int) -> np.ndarray:
    """The k columns with the smallest splitmix64(key ^ col * phi), ascending."""
    hashed = sorted((reference_splitmix64(key ^ ((col * _GOLDEN) & _MASK64)), col)
                    for col in range(n_features))
    return np.array(sorted(col for _, col in hashed[:k]))


def _reference_gini(pos, n):
    p = pos / n
    return 2.0 * p * (1.0 - p)


def reference_best_split(X, y, feat_idx, min_leaf):
    """Best Gini split of one node over the candidate columns; None if none is valid.

    Ties go to the fewest rows on the left, then to the earlier candidate.
    """
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

    weighted = (left_n * _reference_gini(left_pos, left_n)
                + right_n * _reference_gini(right_pos, right_n)) / n
    decrease = parent_gini - weighted
    valid = (Xs[1:] > Xs[:-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    decrease[~valid] = -np.inf
    flat = int(np.argmax(decrease))
    pos_i, col = np.unravel_index(flat, decrease.shape)
    if decrease[pos_i, col] <= 0.0 or not np.isfinite(decrease[pos_i, col]):
        return None
    lo, hi = Xs[pos_i, col], Xs[pos_i + 1, col]
    threshold = 0.5 * (lo + hi)
    if threshold <= lo:  # the midpoint of adjacent floats rounded down
        threshold = hi
    return int(feat_idx[col]), float(threshold), float(decrease[pos_i, col])


class ReferenceNode:
    """Node of the reference tree: leaves have left is None."""

    def __init__(self, value: float):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def reference_grow_tree(X, y, key, max_depth, min_leaf, max_features, n_total_features):
    """Recursive linked-node CART grower, the reference for the level-wise one.

    A node with key ``key`` draws its candidate columns with
    ``reference_candidates``; its children's keys are
    ``splitmix64(2 * key + side)``, side 0 on the left. Importances are
    added in preorder. Returns (root, importances).
    """
    importances = np.zeros(n_total_features)
    n_root = X.shape[0]

    def build(idx, depth, key):
        yn = y[idx]
        node = ReferenceNode(float(yn.mean()))
        n = len(idx)
        if (max_depth is not None and depth >= max_depth) or n < 2 * min_leaf:
            return node
        if yn.min() == yn.max():
            return node
        if max_features is None:
            feat_idx = np.arange(n_total_features)
        else:
            feat_idx = reference_candidates(key, n_total_features, max_features)
        split = reference_best_split(X[idx], yn, feat_idx, min_leaf)
        if split is None:
            return node
        feature, threshold, decrease = split
        importances[feature] += decrease * n / n_root
        mask = X[idx, feature] < threshold
        node.feature = feature
        node.threshold = threshold
        node.left = build(idx[mask], depth + 1, reference_splitmix64((2 * key) & _MASK64))
        node.right = build(idx[~mask], depth + 1, reference_splitmix64((2 * key + 1) & _MASK64))
        return node

    return build(np.arange(n_root), 0, key), importances


def reference_tree_depth(root) -> int:
    if root.left is None:
        return 0
    return 1 + max(reference_tree_depth(root.left), reference_tree_depth(root.right))


def reference_tree_size(root) -> int:
    if root.left is None:
        return 1
    return 1 + reference_tree_size(root.left) + reference_tree_size(root.right)


def reference_tree_predict(root, X):
    """Walks each row down the linked tree on its own."""
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = root
        while node.left is not None:
            node = node.left if X[i, node.feature] < node.threshold else node.right
        out[i] = node.value
    return out


def lexicon_sentence_fractions(admission, lexicon) -> dict[str, float]:
    """Per domain, the fraction of the admission's sentences that
    ``lexicon.match`` tags: the matcher ``domains.weak_label`` labels with."""
    sents = [s for note in admission.notes for s in split_sentences(note.text)]
    return {d: sum(d in lexicon.match(s) for s in sents) / len(sents)
            for d in RISK_DOMAINS}


def reference_stratified_folds(y, folds, rng):
    """Row by row: within each class, in a permuted order, the k-th row goes to fold k % folds."""
    assignment = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        for k, row in enumerate(idx[rng.permutation(len(idx))]):
            assignment[row] = k % folds
    return assignment


def reference_rfe(matrix, spec, folds, repeats, master_seed):
    """RFE fit by fit: each repeat, width and fold imputes the fold's rows of
    the active columns on their own, then trains, scores and explains one
    classifier with ``classifiers.train``. The reference for the RFE that
    imputes once per repeat and grows a width's fold trees together."""
    names = list(matrix.names)
    details = []
    for rep in range(repeats):
        rep_seed = derive_seed(master_seed, "rfe", rep)
        fold_of = reference_stratified_folds(matrix.y, folds, np.random.default_rng(rep_seed))
        active = list(range(len(names)))
        order, widths, scores, sets = [], [], [], []
        while active:
            X = matrix.X[:, active]
            f1s, imp_sum = [], np.zeros(len(active))
            for k in range(folds):
                tr, te = np.flatnonzero(fold_of != k), np.flatnonzero(fold_of == k)
                imputer = Imputer.fit(X[tr])
                X_tr = imputer.transform(X[tr])
                clf = classifiers.train(
                    replace(spec, seed=derive_seed(rep_seed, "fold", k, len(active))),
                    X_tr, matrix.y[tr])
                probs = clf.predict_proba(imputer.transform(X[te]))
                f1s.append(f1_score(matrix.y[te], (probs >= 0.5).astype(float)))
                imp_sum += classifiers.importances(clf, X_tr, matrix.y[tr],
                                                   seed=derive_seed(rep_seed, "imp", k, len(active)))
            widths.append(len(active))
            scores.append(float(np.mean(f1s)))
            sets.append(list(active))
            if len(active) == 1:
                break
            drop = int(np.argmin(imp_sum / folds))
            order.append(names[active.pop(drop)])
        best = max(range(len(scores)), key=lambda i: (scores[i], i))
        details.append(RfeRepeat(elimination_order=order, cv_scores=scores, widths=widths,
                                 best_width=widths[best], best_set=[names[j] for j in sets[best]],
                                 best_score=scores[best]))
    best_repeat = max(range(repeats), key=lambda r: (details[r].best_score, -r))
    return RfeOutcome(model_kind=spec.kind, folds=folds, repeats=repeats,
                      master_seed=master_seed, schema_names=names, repeats_detail=details,
                      best_repeat=best_repeat, best_set=details[best_repeat].best_set,
                      best_score=details[best_repeat].best_score)


def reference_grouped_test_rows(patient_ids, test_fraction, rng):
    """Whole patients, in first-seen order permuted by ``rng``, join the test
    side until it holds ``round(test_fraction * rows)`` rows or more."""
    unique = []
    for pid in patient_ids:
        if pid not in unique:
            unique.append(pid)
    target = round(test_fraction * len(patient_ids))
    test = []
    for k in rng.permutation(len(unique)):
        if len(test) >= target:
            break
        test += [i for i, pid in enumerate(patient_ids) if pid == unique[k]]
    return sorted(test)


def _reference_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def reference_realize_labels(config, patients, intercept):
    """The generator's labels admission by admission, with a scalar sigmoid:
    per patient, lists of labels, propensities and signal dicts."""
    labels, propensities, signal_maps = [], [], []
    for patient in patients:
        p_labels, p_props, p_signals = [], [], []
        for latent in patient.admissions:
            signals = {
                "poor_insight": syngen._INSIGHT_SIGNAL[latent.insight],
                "noncompliance": syngen._COMPLIANCE_SIGNAL[latent.compliance],
                "low_gaf_discharge": (100 - latent.gaf_discharge) / 99.0,
                "past_readmission_ratio": sum(p_labels) / len(p_labels) if p_labels else 0.5,
                "negative_mood_sentiment": (1.0 - latent.t[syngen._MOOD_IDX]) / 2.0,
                "negative_substance_sentiment": (1.0 - latent.t[syngen._SUBSTANCE_IDX]) / 2.0,
            }
            z = intercept + latent.noise
            for name, w in config.effect_weights.items():
                z += w * (2.0 * signals[name] - 1.0)
            prop = _reference_sigmoid(z)
            p_labels.append(latent.label_u < prop)
            p_props.append(prop)
            p_signals.append(signals)
        labels.append(p_labels)
        propensities.append(p_props)
        signal_maps.append(p_signals)
    return labels, propensities, signal_maps


def reference_permutation_importance(clf, X, y, seed, n_permutations=3):
    """The MLP's permutation importance by shuffling raw columns and calling
    ``clf.predict`` on each shuffled copy."""
    base = f1_score(y, clf.predict(X))
    drops = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j].copy()
        for r in range(n_permutations):
            rng = rng_for(seed, "perm", j, r)
            Xp = X.copy()
            Xp[:, j] = col[rng.permutation(len(col))]
            drops[j] += base - f1_score(y, clf.predict(Xp))
    drops = np.maximum(drops / n_permutations, 0.0)
    total = drops.sum()
    return drops / total if total > 0 else drops


_PUNCT_RUN_RE = re.compile(r"[.!?]+")
_ABBREV_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z.]*$")


def _reference_is_guarded_abbreviation(block: str, punct_start: int, abbreviations) -> bool:
    m = _ABBREV_TOKEN_RE.search(block, 0, punct_start)
    if m is None:
        return False
    return (m.group(0) + ".").lower() in abbreviations


def reference_split_sentences(text: str, abbreviations=None) -> list[tuple[str, ...]]:
    """The original sentence splitter, the reference for the linear one.

    It searches each block from its start for the guard word and copies
    the rest of the block at every punctuation run, so it is quadratic in
    block length.
    """
    if abbreviations is None:
        abbreviations = default_abbreviations()
    out: list[tuple[str, ...]] = []

    def emit(lo: int, hi: int) -> None:
        stripped = text[lo:hi].strip()
        if stripped:
            out.append(tuple(tokenize(stripped)))

    for bstart, bend in _block_spans(text):
        block = text[bstart:bend]
        start = 0
        for m in _PUNCT_RUN_RE.finditer(block):
            tail = block[m.end():]
            if tail and not tail[0].isspace():
                continue  # punctuation glued to following text: not a boundary
            nxt = tail.lstrip()
            if nxt and not nxt[0].isupper():
                continue
            if nxt and "." in m.group() and _reference_is_guarded_abbreviation(block, m.start(), abbreviations):
                continue
            emit(bstart + start, bstart + m.end())
            start = m.end()
        emit(bstart + start, bend)
    return out


# The header reader as six regexes, one search of the note each.
_REFERENCE_FIELD_LINE_RES = {
    "gaf_admission": re.compile(r"^[ \t]*gaf[ \t]+at[ \t]+admission[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "gaf_discharge": re.compile(r"^[ \t]*gaf[ \t]+at[ \t]+discharge[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "gaf": re.compile(r"^[ \t]*gaf[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "insight": re.compile(r"^[ \t]*insight[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "compliance": re.compile(r"^[ \t]*compliance[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "estimated_los": re.compile(r"^[ \t]*estimated[ \t]+los[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
}
_REFERENCE_INSIGHT_MAP = {v.lower(): v for v in INSIGHT_LEVELS}
_REFERENCE_COMPLIANCE_MAP = {v.lower(): v for v in COMPLIANCE_LEVELS}


def reference_extract_structured(text: str, note_id="<unknown>") -> NoteFields:
    """The original header reader, the reference for the one-scan table reader."""
    found = {}
    for field, regex in _REFERENCE_FIELD_LINE_RES.items():
        m = regex.search(text)
        if m is None:
            continue
        raw = m.group("v")
        if field in ("gaf_admission", "gaf_discharge", "gaf"):
            if re.fullmatch(r"\d+", raw) is None:
                raise NoteParseError(f"note {note_id}: {field} value {raw!r} is not an integer")
            value = int(raw)
            if not 1 <= value <= 100:
                raise FieldRangeError(f"note {note_id}: {field} value {value} outside [1, 100]")
            found[field] = value
        elif field == "insight":
            level = _REFERENCE_INSIGHT_MAP.get(raw.lower())
            if level is None:
                raise NoteParseError(f"note {note_id}: unrecognized insight value {raw!r}")
            found[field] = level
        elif field == "compliance":
            level = _REFERENCE_COMPLIANCE_MAP.get(raw.lower())
            if level is None:
                raise NoteParseError(f"note {note_id}: unrecognized compliance value {raw!r}")
            found[field] = level
        else:
            m2 = re.fullmatch(r"(\d+)[ \t]*days", raw, re.I)
            if m2 is None:
                raise NoteParseError(f"note {note_id}: estimated LOS value {raw!r} not of the form '<int> days'")
            found["estimated_los_days"] = int(m2.group(1))
    return NoteFields(**found)


def reference_header_block(text: str) -> str:
    """The leading lines of ``text`` that a reference field regex reads, up
    to the first line that none reads."""
    lines = text.split("\n")
    n = next((i for i, line in enumerate(lines)
              if not any(r.search(line) for r in _REFERENCE_FIELD_LINE_RES.values())), len(lines))
    return "\n".join(lines[:n])


def tiny_corpus(note_texts=("Sleeping well. Appetite poor.",), label=None,
                n_admissions=1, gap_days=40):
    """A minimal hand-built corpus: one patient, simple notes."""
    from datetime import date, datetime, timedelta

    admissions = []
    admit = date(2019, 1, 1)
    for k in range(n_admissions):
        discharge = admit + timedelta(days=5)
        notes = []
        for i, text in enumerate(note_texts):
            notes.append(Note(
                note_id=f"A{k}-N{i}",
                note_type="DischargeSummary" if i == len(note_texts) - 1 else "Progress",
                timestamp=datetime(admit.year, admit.month, admit.day, 9 + i),
                text=text,
            ))
        admissions.append(Admission(
            admission_id=f"A{k}", patient_id="P0", admit_date=admit,
            discharge_date=discharge, suicide_risk="No", notes=tuple(notes),
            label_readmitted_30d=label,
        ))
        admit = discharge + timedelta(days=gap_days)
    patient = Patient(patient_id="P0", gender="Female", race="White",
                      marital_status="Single", veteran="No",
                      birth_date=date(1985, 6, 15))
    return Corpus(patients=(patient,), admissions=tuple(admissions))
