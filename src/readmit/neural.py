"""Sentence encoding and a small MLP training engine.

The encoder is a deterministic stand-in for a pretrained sentence encoder:
signed feature hashing of unigrams and bigrams into a fixed-width vector,
L2-normalized. A token list is a sentence as ``textproc.split_sentences``
gives it. The plug-in contract is ``dim`` and ``__call__(tokens) -> vector``:
anything exposing those can be dropped in instead. ``encode_rows`` calls an
encoder's ``rows(token_lists)`` when it has one, and otherwise calls the
encoder once per token list. ``HashingEncoder`` has one hashing
implementation, the block path: ``rows`` encodes a whole list at once,
``encode_rows`` uses it, and ``__call__`` is one row of it, in float64.

The MLP engine has one training loop, ``train_mlps``: many fits of one spec
in one minibatch SGD loop on stacked arrays, each fit byte-identical to
itself trained alone. ``train_mlp`` is its one-fit case. With a
``validation_fraction`` above 0, each fit holds out a seeded slice of its
rows and stops when its score on that slice stops rising (Prechelt 1998,
"Early Stopping -- But When?"). A fit with fewer training rows than inputs
and no weight decay trains its first layer in the span of those rows
(``first_layer``, ``_RowSpace``): equal to input space up to rounding, and
cheaper per step. The seven sentiment models, and topic models on fewer
than 512 training sentences, train this way.

Hashing contract (stable across platforms): for an n-gram string g,
``d = blake2b(g.encode(), digest_size=9)``; bucket = first 8 bytes as a
big-endian integer mod dim; sign = +1 if the 9th byte is even else -1.
"""

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError
from .seeding import derive_seed


def hash_gram(gram: str, dim: int) -> tuple[int, float]:
    """(bucket, sign) for one n-gram under the documented contract."""
    d = hashlib.blake2b(gram.encode("utf-8"), digest_size=9).digest()
    bucket = int.from_bytes(d[:8], "big") % dim
    sign = 1.0 if d[8] % 2 == 0 else -1.0
    return bucket, sign


class HashingEncoder:
    """Signed unigram+bigram hashing into ``dim`` buckets, L2-normalized.

    ``rows`` encodes a list of token lists block by block in numpy;
    ``__call__`` encodes one token list as a block of one row, in float64.
    """

    def __init__(self, dim: int = 512):
        if dim <= 0:
            raise ConfigError(f"encoder dim must be positive, got {dim}")
        self.dim = dim
        # Token -> id, id -> token, and per id the unigram's slot;
        # per id pair (id_a << 32 | id_b) the bigram's slot. A slot packs
        # (bucket, sign) as 2 * bucket + (1 if the sign is -1 else 0).
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        self._unigram_slots = np.empty(0, dtype=np.int64)
        self._bigram_slots: dict[int, int] = {}

    def __call__(self, tokens: Sequence[str]) -> np.ndarray:
        return self._block([tokens])[0]

    def _packed_slot(self, gram: str) -> int:
        bucket, sign = hash_gram(gram, self.dim)
        return 2 * bucket + (sign < 0)

    def rows(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """``self(tokens)`` for each token list, as the float32 rows of one array.

        Every cell is a sum of +-1 and every squared norm a sum of integers,
        both exact in float64 in any order, so a row's bytes do not depend on
        the block it is encoded in.
        """
        X = np.empty((len(token_lists), self.dim), dtype=np.float32)
        for start in range(0, len(token_lists), _BLOCK_ROWS):
            block = token_lists[start:start + _BLOCK_ROWS]
            X[start:start + len(block)] = self._block(block)
        return X

    def _block(self, block: Sequence[Sequence[str]]) -> np.ndarray:
        """The float64 rows of ``block``, all built by one ``bincount``."""
        tokens = list(chain.from_iterable(block))
        ids = self._ids
        token_ids = np.fromiter(map(ids.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens))
        new_slots = []
        for j in np.flatnonzero(token_ids < 0).tolist():
            tok = tokens[j]
            if tok not in ids:
                ids[tok] = len(self._tokens)
                self._tokens.append(tok)
                new_slots.append(self._packed_slot(tok))
            token_ids[j] = ids[tok]
        if new_slots:
            self._unigram_slots = np.concatenate([self._unigram_slots, new_slots])
        row_of = np.repeat(np.arange(len(block)), list(map(len, block)))

        same_row = row_of[:-1] == row_of[1:]
        pairs = (token_ids[:-1][same_row] << 32) | token_ids[1:][same_row]
        distinct, inverse = np.unique(pairs, return_inverse=True)
        known = self._bigram_slots
        keys = distinct.tolist()
        pair_slots = np.fromiter(map(known.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))
        for j in np.flatnonzero(pair_slots < 0).tolist():
            key = keys[j]
            gram = self._tokens[key >> 32] + " " + self._tokens[key & 0xFFFFFFFF]
            pair_slots[j] = known[key] = self._packed_slot(gram)

        slots = np.concatenate([self._unigram_slots[token_ids], pair_slots[inverse]])
        cells = np.concatenate([row_of, row_of[1:][same_row]]) * self.dim + (slots >> 1)
        # astype: bincount returns integers when the block has no token at all.
        sums = np.bincount(cells, weights=1.0 - 2.0 * (slots & 1), minlength=len(block) * self.dim)
        sums = sums.astype(np.float64, copy=False).reshape(len(block), self.dim)
        norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))[:, None]
        return np.divide(sums, norms, out=sums, where=norms > 0)


# Rows per bincount in HashingEncoder.rows: large enough to amortize the
# numpy calls, small enough that a block's float64 sums (1 MB at dim 512)
# add little to peak memory.
_BLOCK_ROWS = 256


def encode_rows(encoder, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """``encoder`` applied to each token list, as the float32 rows of one array.

    An encoder with a ``rows`` method, as ``HashingEncoder`` has, encodes
    the whole list with it. Any other encoder is called once per token list.
    The rows are written into a single preallocated array instead of being
    stacked from a list of row arrays, so the matrix is held once, not
    twice, and no heap of row-sized blocks is left behind after it. The
    encoder works in float64; each row is rounded to float32 once, as it is
    written, so the NLP models that read these rows train and run in
    single precision.
    """
    rows = getattr(encoder, "rows", None)
    if rows is not None:
        return rows(token_lists)
    X = np.empty((len(token_lists), encoder.dim), dtype=np.float32)
    for i, tokens in enumerate(token_lists):
        X[i] = encoder(tokens)
    return X


ACTIVATIONS = ("relu", "tanh")
OUTPUT_KINDS = ("softmax", "sigmoid")


@dataclass(frozen=True)
class MLPSpec:
    input_dim: int
    hidden_sizes: tuple[int, ...] = (256, 64)
    activation: str = "relu"
    dropout_rate: float = 0.0
    output_kind: str = "softmax"
    n_outputs: int = 2

    def validate(self) -> None:
        if self.input_dim <= 0 or self.n_outputs <= 0 or any(h <= 0 for h in self.hidden_sizes):
            raise ConfigError("all layer dimensions must be positive")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if self.output_kind not in OUTPUT_KINDS:
            raise ConfigError(f"output_kind must be one of {OUTPUT_KINDS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0
    weight_decay: float = 0.0
    # Above 0, the share of each fit's rows held out: the fit stops after
    # ``patience`` epochs without a gain of its score on them.
    patience: int = 20
    validation_fraction: float = 0.0

    def validate(self) -> None:
        # Written so that NaN fails: every comparison with NaN is False.
        if not (0 <= self.learning_rate < np.inf and 0 <= self.weight_decay < np.inf):
            raise ConfigError(f"learning_rate and weight_decay must be finite and non-negative, "
                              f"got {self.learning_rate!r} and {self.weight_decay!r}")
        if self.batch_size <= 0 or self.epochs <= 0 or self.patience <= 0:
            raise ConfigError("batch_size, epochs and patience must be positive")
        if not 0 <= self.validation_fraction < 1:
            raise ConfigError(f"validation_fraction must lie in [0, 1), got {self.validation_fraction!r}")


@dataclass
class MLPModel:
    spec: MLPSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int = 0
    epochs_run: int = 0
    final_loss: float = float("nan")
    loss_history: list[float] = field(default_factory=list)
    # The epoch whose weights the model holds: epochs_run unless it trained
    # with validation. validation_scores[e] is the held-out score after e
    # epochs, [0] at initialization; empty without validation.
    best_epoch: int = 0
    validation_scores: list[float] = field(default_factory=list)


def _layer_dims(spec: MLPSpec) -> list[tuple[int, int]]:
    sizes = [spec.input_dim, *spec.hidden_sizes, spec.n_outputs]
    return list(zip(sizes[:-1], sizes[1:]))


def init_mlp(spec: MLPSpec, seed: int = 0) -> MLPModel:
    """Glorot-uniform weights, zero biases, seed-driven."""
    spec.validate()
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in _layer_dims(spec):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(spec=spec, weights=weights, biases=biases, seed=seed)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``, written over ``z``."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _activate_grad(h: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output ``h``: relu's is 1
    where h > 0, as where its input is."""
    if kind == "relu":
        return (h > 0.0).astype(h.dtype)
    return 1.0 - h * h


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so each row of a stack is its own."""
    with np.errstate(invalid="ignore", over="ignore"):
        # The row max, column by column: numpy reduces a short last axis
        # one row at a time, which is slow on a stack of many rows.
        top = z[..., :1]
        for j in range(1, z.shape[-1]):
            top = np.maximum(top, z[..., j:j + 1])
        e = np.exp(z - top)
        e /= e.sum(axis=-1, keepdims=True)
        return e


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow on either side of 0."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def f1_score(y_true, y_pred):
    """Binary F1 of the positive class; 0 when there are no true or predicted
    positives. A float for one vector of predictions; for stacked
    predictions (..., n), the F1 of each along the last axis."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = np.sum((y_pred == 1) & (y_true == 1), axis=-1)
    fp = np.sum((y_pred == 1) & (y_true == 0), axis=-1)
    fn = np.sum((y_pred == 0) & (y_true == 1), axis=-1)
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    return float(f1) if f1.ndim == 0 else f1


def _forward(spec: MLPSpec, weights, biases, X: np.ndarray, masks=None, first=None):
    """Returns (layer inputs, activations before dropout, output probs).

    ``X`` holds rows on its last two axes. It is (rows, d) for one model, or
    a stack (k, rows, d): against stacked (k, d, h) weights and (k, 1, h)
    biases, k fits run at once; against one model's weights, k blocks of
    rows do. ``matmul`` makes one gemm per contiguous slice and every
    reduction runs over the last axis, so a fit's bytes do not depend on
    the stack it runs in. ``first``, when given, is the first layer's
    product ``X @ weights[0]`` made in row space (``_RowSpace``); it is
    overwritten, and ``X`` and ``weights[0]`` are not read.
    """
    inputs, hs = [X], []
    h = X
    for l in range(len(weights)):
        z = first if l == 0 and first is not None else h @ weights[l]
        z += biases[l]
        if l == len(spec.hidden_sizes):  # the output layer
            break
        a = _activate(z, spec.activation)
        hs.append(a)
        h = a if masks is None else a * masks[l]
        inputs.append(h)
    probs = _softmax(z) if spec.output_kind == "softmax" else sigmoid(z)
    return inputs, hs, probs


def predict(model: MLPModel, X: np.ndarray) -> np.ndarray:
    """Inference-mode probabilities (dropout off), in the model's dtype, for
    one row (d,), rows (n, d), or a stack of row blocks (m, n, d).

    softmax: rows sum to 1; sigmoid: each output independently in [0, 1].
    """
    X = np.asarray(X, dtype=model.weights[0].dtype)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.shape[-1] != model.spec.input_dim:
        raise DataError(f"input width {X.shape[-1]} != model input_dim {model.spec.input_dim}")
    probs = _forward(model.spec, model.weights, model.biases, X)[2]
    return probs[0] if squeeze else probs


def _losses(probs: np.ndarray, Y: np.ndarray, kind: str) -> np.ndarray:
    """Mean cross-entropy over the rows axis (-2): one loss per fit of a stack."""
    # In float64 whatever the model's dtype: in float32, 1 - 1e-12 rounds to
    # 1.0, so a saturated sigmoid output would give 0 * log(0) = nan.
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    Y = np.asarray(Y, dtype=np.float64)
    if kind == "softmax":
        row_losses = -(Y * np.log(p)).sum(axis=-1)
    else:
        row_losses = -(Y * np.log(p) + (1.0 - Y) * np.log(1.0 - p)).sum(axis=-1)
    return row_losses.sum(axis=-1) / row_losses.shape[-1]  # the mean, as numpy computes it


def _stacked_loss_and_gradients(spec: MLPSpec, weights, biases, X, Y, weight_decay: float,
                                masks=None, first=None):
    """Per-fit losses (k,) and gradients of k stacked fits, as ``_forward``
    stacks them: weights (k, fan_in, fan_out), biases (k, 1, fan_out),
    X (k, rows, d), Y (k, rows, n_outputs). With ``first``, the first
    layer's products in row space, the first weight gradient is the one of
    those products, (k, rows, fan_out), and there is no weight decay."""
    inputs, hs, probs = _forward(spec, weights, biases, X, masks=masks, first=first)
    losses = _losses(probs, Y, spec.output_kind)
    if weight_decay:
        losses += [0.5 * weight_decay * sum(float((W[i] * W[i]).sum()) for W in weights)
                   for i in range(len(losses))]

    delta = (probs - Y) / Y.shape[-2]  # gradient of mean CE wrt output pre-activations
    grads_W = [None] * len(weights)
    grads_b = [None] * len(biases)
    for l in range(len(weights) - 1, -1, -1):
        grads_W[l] = delta if l == 0 and first is not None else inputs[l].swapaxes(-1, -2) @ delta
        grads_b[l] = delta.sum(axis=-2, keepdims=True)
        if weight_decay:
            grads_W[l] = grads_W[l] + weight_decay * weights[l]
        if l > 0:
            upstream = delta @ weights[l].swapaxes(-1, -2)
            if masks is not None:
                upstream = upstream * masks[l - 1]
            delta = upstream * _activate_grad(hs[l - 1], spec.activation)
    return losses, grads_W, grads_b


def loss_and_gradients(model: MLPModel, X: np.ndarray, Y: np.ndarray,
                       weight_decay: float = 0.0, masks=None):
    """Mean cross-entropy (plus L2 penalty) and analytic parameter gradients."""
    losses, grads_W, grads_b = _stacked_loss_and_gradients(
        model.spec, [W[None] for W in model.weights], [b[None, None] for b in model.biases],
        X[None], Y[None], weight_decay, None if masks is None else [m[None] for m in masks])
    return float(losses[0]), [g[0] for g in grads_W], [g[0, 0] for g in grads_b]


def _validate_targets(spec: MLPSpec, Y: np.ndarray) -> None:
    if Y.ndim != 2 or Y.shape[1] != spec.n_outputs:
        raise DataError(f"target shape {Y.shape} incompatible with {spec.n_outputs} outputs")
    if np.any((Y < 0) | (Y > 1)):
        raise DataError("targets must lie in [0, 1]")
    if spec.output_kind == "softmax" and not np.allclose(Y.sum(axis=1), 1.0, atol=1e-9):
        raise DataError("softmax targets must be one-hot (rows summing to 1)")


def train_mlp(spec: MLPSpec, X: np.ndarray, Y: np.ndarray,
              config: Optional[TrainConfig] = None, rows=None) -> MLPModel:
    """Minibatch SGD on cross-entropy with inverted dropout: the one-fit
    case of ``train_mlps``, on ``rows`` of (X, Y), read in place (every row
    by default), with seed ``config.seed``.

    Deterministic given (spec, data, config.seed): initialization, epoch
    shuffles, dropout masks and the validation slice all come from seeded
    generators, and batches run sequentially. Training runs ``config.epochs``
    epochs; with a ``validation_fraction``, it stops earlier after
    ``patience`` epochs without a gain of the held-out score (see
    ``train_mlps``).

    Parameters, targets and dropout masks take X's dtype: float32 if X is
    float32, float64 otherwise. The loss is always summed in float64.
    """
    config = config or TrainConfig()
    rows = np.arange(len(X)) if rows is None else rows
    return train_mlps(spec, X, Y, [(rows, config.seed)], config)[0]


def validation_split(rows: np.ndarray, fraction: float, seed: int):
    """(training rows, validation rows) of a fit on ``rows`` with ``seed``.

    The validation slice is round(fraction * len(rows)) of the fit's own
    positions, at least one, drawn by a generator seeded from ``seed`` alone
    (not the ``seed + 1`` stream that shuffles the training rows); both parts
    keep the order of ``rows``. A DataError when no row is left to train on.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n_val = max(1, int(round(fraction * len(rows))))
    if n_val >= len(rows):
        raise DataError(f"a fit of {len(rows)} rows cannot hold out {n_val} for validation "
                        "and keep a row to train on")
    held = np.zeros(len(rows), dtype=bool)
    held[np.random.default_rng(derive_seed(seed, "validation")).permutation(len(rows))[:n_val]] = True
    return rows[~held], rows[held]


# A held-out score counts as a gain only when it beats the best so far by more than this.
_MIN_GAIN = 0.002


def first_layer(spec: MLPSpec, config: TrainConfig, n_train: int) -> str:
    """How ``train_mlps`` trains the first layer of a fit with ``n_train``
    training rows (after its validation slice): ``"row_space"`` with fewer
    rows than inputs and no weight decay, ``"input_space"`` otherwise."""
    return "row_space" if n_train < spec.input_dim and not config.weight_decay else "input_space"


class _RowSpace:
    """A fit's first layer in the span of its n training rows ``X``.

    Every SGD update of that layer is ``X_batch.T @ delta``, so its weights
    stay ``W0 + X.T @ A`` for the initial ``W0`` and an (n, h) ``A`` that
    starts at 0 (the representer argument: Schoelkopf, Herbrich & Smola
    2001, "A Generalized Representer Theorem"). A step reads ``P = X @ W0``
    and ``K = X @ X.T`` at its batch's positions and moves only those rows
    of ``A``: b * n * h multiply-adds, against 2 * b * d * h in input space.
    """

    def __init__(self, X: np.ndarray, W0: np.ndarray):
        self.X, self.W0 = X, W0
        self.P, self.K = X @ W0, X @ X.T
        self.A = np.zeros_like(self.P)

    def products(self, pos: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``P[pos] + K[pos] @ A``, the first layer's products before the
        bias for the rows at positions ``pos``, written into ``out``."""
        np.matmul(self.K[pos], self.A, out=out)
        out += self.P[pos]
        return out

    def step(self, pos: np.ndarray, delta: np.ndarray, lr: float) -> None:
        """The SGD step of the rows at positions ``pos`` (distinct, as a
        batch's are), whose products have the gradient ``delta``."""
        self.A[pos] -= np.multiply(delta, lr, out=delta)

    def weights(self, out: np.ndarray) -> np.ndarray:
        """The first layer's explicit weights ``W0 + X.T @ A``, into ``out``."""
        return np.add(self.W0, self.X.T @ self.A, out=out)


def _validation_score(spec: MLPSpec, weights, biases, X: np.ndarray, Y: np.ndarray) -> float:
    """Micro-F1 at 0.5 of sigmoid outputs, accuracy of softmax outputs."""
    probs = _forward(spec, weights, biases, X)[2]
    if spec.output_kind == "softmax":
        return float(np.mean(probs.argmax(axis=-1) == Y.argmax(axis=-1)))
    return f1_score(Y.ravel() > 0.5, probs.ravel() >= 0.5)


def train_mlps(spec: MLPSpec, X: np.ndarray, Y: np.ndarray, fits,
               config: Optional[TrainConfig] = None) -> list[MLPModel]:
    """For each (rows, seed) of ``fits``, the model that
    ``train_mlp(spec, X[rows], Y[rows], replace(config, seed=seed))`` trains,
    byte for byte; ``config.seed`` is not read.

    All fits run in one minibatch SGD loop on stacked (k, batch, d) arrays.
    Each keeps its own Glorot init from ``seed`` and its own generator from
    ``seed + 1``, which draws each epoch's shuffle and then each batch's
    dropout masks, as a lone fit draws them. The stack runs from the fit
    with the most rows to the one with the fewest, so at every step the
    fits with a batch of one length are a contiguous slice of it: a full
    batch for the fits that have one, then the ragged last batches, one
    slice per length. A fit leaves the stack after ``config.epochs``
    epochs, and earlier only at its held-out plateau or when it diverges.

    With a ``validation_fraction`` above 0, each fit trains on the rest of
    its rows after ``validation_split`` and scores the slice after every
    epoch. It leaves earlier after ``patience`` epochs without a gain above
    ``_MIN_GAIN`` over its best score so far, counted only once the score
    first rises above its value at initialization, and keeps the weights of
    its best epoch: the one with the highest score, or the latest one while
    the score has not yet risen. Its weights are then those of
    ``train_mlp`` on its training rows with ``best_epoch`` as the epoch
    budget and no validation.

    A fit with fewer training rows than ``spec.input_dim`` and no
    ``weight_decay`` trains its first layer in the span of its training
    rows (``first_layer``, ``_RowSpace``): each step reads the batch's rows
    of ``X @ W0`` and ``X @ X.T`` instead of ``X``, and moves only the
    batch's rows of the (n, h) coefficients ``A``. The explicit weights
    ``W0 + X.T @ A`` are formed only for a validation score, the best-epoch
    snapshot and the returned model. The result equals input-space training
    up to rounding, not byte for byte. Dropout masks, shuffles and every
    later layer are those of input space. These fits sit at the stack's
    tail, each running its first layer alone, so a fit's bytes still do not
    depend on its stack.

    A diverging fit raises what a fit-by-fit loop raises: the
    ``TrainingDivergedError`` of the lowest-index fit that diverges.
    """
    config = config or TrainConfig()
    config.validate()
    X = np.asarray(X)
    dtype = np.float32 if X.dtype == np.float32 else np.float64
    X = X.astype(dtype, copy=False)
    Y = np.asarray(Y, dtype=dtype)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise DataError(f"data width {X.shape[1] if X.ndim == 2 else '?'} != input_dim {spec.input_dim}")
    if X.shape[0] != Y.shape[0]:
        raise DataError("X and Y row counts differ")
    _validate_targets(spec, Y)
    rows = [np.asarray(r, dtype=np.intp) for r, _ in fits]
    if any(len(r) == 0 for r in rows):
        raise DataError("every fit needs at least one row")
    if not fits:
        return []
    validate = config.validation_fraction > 0
    if validate:  # per fit, its validation slice's (X, Y)
        rows, held = map(list, zip(*(validation_split(r, config.validation_fraction, seed)
                                     for r, (_, seed) in zip(rows, fits))))
        held = [(X[h], Y[h]) for h in held]

    models = []
    for i, (_, seed) in enumerate(fits):
        model = init_mlp(spec, seed=seed)
        model.weights = [W.astype(dtype, copy=False) for W in model.weights]
        model.biases = [b.astype(dtype, copy=False) for b in model.biases]
        if validate:
            model.validation_scores = [_validation_score(spec, model.weights, model.biases,
                                                         *held[i])]
        models.append(model)
    histories: list[list[float]] = [[] for _ in fits]
    diverged: dict[int, TrainingDivergedError] = {}
    # per fit, with validation: best score once it rose, epochs without a gain
    best_score = np.full(len(fits), -np.inf)
    stale = np.zeros(len(fits), dtype=np.intp)
    batch, lr = config.batch_size, config.learning_rate

    # The stack, by position: fit index, row count, generator, weights, biases,
    # and the first layer in row space (None in input space), those fits last.
    fit = np.array(sorted(range(len(fits)), key=lambda i: -len(rows[i])), dtype=np.intp)
    n = np.array([len(rows[i]) for i in fit])
    rngs = [np.random.default_rng(fits[i][1] + 1) for i in fit]
    Ws = [np.stack([models[i].weights[l] for i in fit]) for l in range(len(models[0].weights))]
    Bs = [np.stack([models[i].biases[l] for i in fit])[:, None, :] for l in range(len(Ws))]
    spaces = [_RowSpace(X[rows[i]], models[i].weights[0])
              if first_layer(spec, config, len(rows[i])) == "row_space" else None for i in fit]
    steps = _batch_slices(n.tolist(), batch, spaces.count(None))

    def weights_at(p):
        """The weights of stack position p, a row-space first layer made explicit."""
        if spaces[p] is not None:
            spaces[p].weights(out=Ws[0][p])
        return [W[p] for W in Ws]

    for epoch in range(config.epochs):
        # per position, its batches' positions in its own rows, and those rows
        position = np.zeros((len(fit), n[0]), dtype=np.intp)
        order = np.zeros_like(position)
        for p, i in enumerate(fit):
            position[p, :n[p]] = rngs[p].permutation(n[p])
            order[p, :n[p]] = rows[i][position[p, :n[p]]]
        totals = [0.0] * len(fit)
        for start, slices in steps:
            for lo, hi, b in slices:
                idx = order[lo:hi, start:start + b]
                masks = None
                if spec.dropout_rate > 0.0:
                    masks = [np.empty((hi - lo, b, h), dtype) for h in spec.hidden_sizes]
                    for p in range(lo, hi):
                        for mask, h in zip(masks, spec.hidden_sizes):
                            mask[p - lo] = dropout_mask((b, h), spec.dropout_rate, rngs[p])
                params = [W[lo:hi] for W in Ws] + [c[lo:hi] for c in Bs]
                first = None
                if spaces[lo] is not None:  # a slice is all in one space
                    pos = position[lo:hi, start:start + b]
                    first = np.empty((hi - lo, b, Ws[0].shape[-1]), dtype)
                    for p in range(lo, hi):
                        spaces[p].products(pos[p - lo], first[p - lo])
                losses, gW, gb = _stacked_loss_and_gradients(
                    spec, params[:len(Ws)], params[len(Ws):], None if first is not None else X[idx],
                    Y[idx], config.weight_decay, masks=masks, first=first)
                if first is not None:
                    for p in range(lo, hi):
                        spaces[p].step(pos[p - lo], gW[0][p - lo], lr)
                    params, gW = params[1:], gW[1:]
                for param, grad in zip(params, gW + gb):
                    param -= np.multiply(grad, lr, out=grad)
                for p, loss in enumerate(losses.tolist(), lo):
                    totals[p] += loss * b
                    if not math.isfinite(loss):
                        # The diverged fit's slice runs on to the epoch's end, apart from the others.
                        diverged.setdefault(fit[p], TrainingDivergedError(epoch, loss))
        epoch_loss = np.array(totals) / n
        for p in np.flatnonzero(~np.isfinite(epoch_loss)):
            diverged.setdefault(fit[p], TrainingDivergedError(epoch, float(epoch_loss[p])))
        failed = fit >= min(diverged, default=len(fits))  # a later fit no longer matters
        for p in np.flatnonzero(~failed):
            i = fit[p]
            histories[i].append(float(epoch_loss[p]))
            if validate:
                model = models[i]
                weights, biases = weights_at(p), [c[p] for c in Bs]
                score = _validation_score(spec, weights, biases, *held[i])
                model.validation_scores.append(score)
                if best_score[i] == -np.inf and score <= model.validation_scores[0]:
                    best_yet = True  # until the score first rises, the latest epoch is the best
                else:
                    stale[i] = 0 if score > best_score[i] + _MIN_GAIN else stale[i] + 1
                    best_yet = score > best_score[i]
                    best_score[i] = max(best_score[i], score)
                if best_yet:
                    model.best_epoch = epoch + 1
                    model.weights = [W.copy() for W in weights]
                    model.biases = [c[0].copy() for c in biases]

        out = failed | (stale[fit] >= config.patience) | (epoch == config.epochs - 1)
        if out.any():  # those fits leave the stack
            if not validate:
                for p in np.flatnonzero(out):
                    models[fit[p]].weights = [W.copy() for W in weights_at(p)]
                    models[fit[p]].biases = [c[p, 0].copy() for c in Bs]
            keep = ~out
            fit, n = fit[keep], n[keep]
            rngs, spaces = ([x for x, k in zip(xs, keep) if k] for xs in (rngs, spaces))
            Ws, Bs = [W[keep] for W in Ws], [c[keep] for c in Bs]
            if not len(fit):
                break
            steps = _batch_slices(n.tolist(), batch, spaces.count(None))
    if diverged:
        raise diverged[min(diverged)]

    for model, (_, seed), history in zip(models, fits, histories):
        model.seed = seed
        model.epochs_run = len(history)
        model.final_loss = history[-1] if history else float("nan")
        model.loss_history = history
        if not validate:
            model.best_epoch = len(history)
    return models


def _batch_slices(n: list[int], batch: int, split: int):
    """One epoch's steps for a stack whose fits have ``n`` rows, most first:
    per step, (start, [(lo, hi, length)]), each a slice of stack positions
    whose batch at ``start`` has ``length`` rows, and that lies wholly
    before or wholly from position ``split``."""
    steps = []
    for start in range(0, n[0] if n else 0, batch):
        lengths = [min(m - start, batch) for m in n if m > start]
        cuts = [0] + [p for p in range(1, len(lengths))
                      if lengths[p] != lengths[p - 1] or p == split]
        ends = cuts[1:] + [len(lengths)]
        steps.append((start, [(lo, hi, lengths[lo]) for lo, hi in zip(cuts, ends)]))
    return steps


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """One inverted-dropout mask: Bernoulli(1-rate) scaled by 1/(1-rate)."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(float) / keep


_FORMAT = "readmit-mlp"
_VERSION = 2
# Version 1 files carry no dtype field; their arrays are float64.
_DTYPES = {"float32": np.float32, "float64": np.float64}


def encode_array(a: np.ndarray) -> str:
    """Base64 of the array's own row-major bytes, in its own dtype;
    decode_array with that dtype inverts it bit-exactly."""
    return base64.b64encode(np.ascontiguousarray(a).tobytes()).decode("ascii")


def decode_array(s: str, shape=(-1,), dtype=np.float64) -> np.ndarray:
    return np.frombuffer(base64.b64decode(s), dtype=dtype).reshape(shape).copy()


def save_mlp(model: MLPModel, path) -> None:
    """Versioned JSON container; weights stored row-major, bit-exact, in
    the model's dtype, which the file records. The metadata records
    ``best_epoch`` and ``validation_scores`` only for a model trained with
    validation."""
    metadata = {"seed": model.seed, "epochs_run": model.epochs_run,
                "final_loss": model.final_loss, "loss_history": model.loss_history}
    if model.validation_scores:
        metadata.update(best_epoch=model.best_epoch, validation_scores=model.validation_scores)
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "dtype": model.weights[0].dtype.name,
        "spec": {**asdict(model.spec), "hidden_sizes": list(model.spec.hidden_sizes)},
        "weights": [encode_array(W) for W in model.weights],
        "biases": [encode_array(b) for b in model.biases],
        "metadata": metadata,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def load_mlp(path) -> MLPModel:
    """The model ``save_mlp`` wrote to ``path``; a DataError naming the file
    when it is not such a container or its arrays do not fit its spec."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise DataError(f"{path}: not JSON ({e})") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise DataError(f"{path}: not a {_FORMAT} container")
    version = payload.get("version")
    if version not in (1, _VERSION):
        raise DataError(f"{path}: unsupported container version {version}")
    dtype_name = payload.get("dtype") if version == _VERSION else "float64"
    if dtype_name not in _DTYPES:
        raise DataError(f"{path}: unsupported weight dtype {dtype_name!r}")
    dtype = _DTYPES[dtype_name]
    try:
        raw_spec = payload["spec"]
        spec = MLPSpec(**{**raw_spec, "hidden_sizes": tuple(raw_spec["hidden_sizes"])})
        spec.validate()
        dims = _layer_dims(spec)
        if not len(payload["weights"]) == len(payload["biases"]) == len(dims):
            raise DataError(f"{path}: {len(dims)} layers in the spec, {len(payload['weights'])} "
                            f"weight and {len(payload['biases'])} bias arrays")
        meta = payload["metadata"]
        return MLPModel(spec=spec,
                        weights=[decode_array(w, d, dtype) for w, d in zip(payload["weights"], dims)],
                        biases=[decode_array(b, (d[1],), dtype)
                                for b, d in zip(payload["biases"], dims)],
                        seed=meta["seed"], epochs_run=meta["epochs_run"],
                        final_loss=meta["final_loss"], loss_history=list(meta["loss_history"]),
                        best_epoch=meta.get("best_epoch", meta["epochs_run"]),
                        validation_scores=list(meta.get("validation_scores", [])))
    except (KeyError, TypeError, ValueError, ConfigError) as e:  # a field missing or mistyped
        raise DataError(f"{path}: malformed {_FORMAT} container ({e!r})") from None
