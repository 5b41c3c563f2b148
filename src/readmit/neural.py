"""Sentence encoding and a small MLP training engine.

The encoder is a deterministic stand-in for a pretrained sentence encoder:
signed feature hashing of unigrams and bigrams into a fixed-width vector,
L2-normalized. A token list is a sentence as ``textproc.split_sentences``
gives it. The plug-in contract is ``dim`` and ``__call__(tokens) -> vector``:
anything exposing those can be dropped in instead, and ``encode_rows`` calls
it once per token list. ``HashingEncoder`` has one hashing implementation,
the block path: ``rows`` encodes a whole list at once, ``encode_rows`` uses
it, and ``__call__`` is one row of it, in float64.

Hashing contract (stable across platforms): for an n-gram string g,
``d = blake2b(g.encode(), digest_size=9)``; bucket = first 8 bytes as a
big-endian integer mod dim; sign = +1 if the 9th byte is even else -1.
"""

import base64
import hashlib
import json
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError


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
    patience: int = 20

    def validate(self) -> None:
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ConfigError("learning_rate and weight_decay must be non-negative")
        if self.batch_size <= 0 or self.epochs <= 0 or self.patience <= 0:
            raise ConfigError("batch_size, epochs and patience must be positive")


@dataclass
class MLPModel:
    spec: MLPSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int = 0
    epochs_run: int = 0
    final_loss: float = float("nan")
    loss_history: list[float] = field(default_factory=list)


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
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, h: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    return 1.0 - h * h


def _softmax(z: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow on either side of 0."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(model: MLPModel, X: np.ndarray, masks=None):
    """Returns (hidden inputs, pre-activations, masked activations, output probs)."""
    spec = model.spec
    inputs = [X]
    zs, hs = [], []
    h = X
    n_hidden = len(spec.hidden_sizes)
    for l in range(n_hidden):
        z = h @ model.weights[l] + model.biases[l]
        a = _activate(z, spec.activation)
        zs.append(z)
        hs.append(a)
        h = a if masks is None else a * masks[l]
        inputs.append(h)
    z_out = h @ model.weights[-1] + model.biases[-1]
    probs = _softmax(z_out) if spec.output_kind == "softmax" else sigmoid(z_out)
    return inputs, zs, hs, probs


def predict(model: MLPModel, X: np.ndarray) -> np.ndarray:
    """Inference-mode probabilities (dropout off), in the model's dtype.

    softmax: rows sum to 1; sigmoid: each output independently in [0, 1].
    """
    X = np.asarray(X, dtype=model.weights[0].dtype)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.shape[1] != model.spec.input_dim:
        raise DataError(f"input width {X.shape[1]} != model input_dim {model.spec.input_dim}")
    probs = _forward(model, X)[3]
    return probs[0] if squeeze else probs


def _loss(probs: np.ndarray, Y: np.ndarray, kind: str) -> float:
    # In float64 whatever the model's dtype: in float32, 1 - 1e-12 rounds to
    # 1.0, so a saturated sigmoid output would give 0 * log(0) = nan.
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    Y = np.asarray(Y, dtype=np.float64)
    if kind == "softmax":
        return float(-(Y * np.log(p)).sum(axis=1).mean())
    return float(-(Y * np.log(p) + (1.0 - Y) * np.log(1.0 - p)).sum(axis=1).mean())


def _l2_penalty(model: MLPModel, weight_decay: float) -> float:
    if weight_decay == 0.0:
        return 0.0
    return 0.5 * weight_decay * sum(float((W * W).sum()) for W in model.weights)


def loss_and_gradients(model: MLPModel, X: np.ndarray, Y: np.ndarray,
                       weight_decay: float = 0.0, masks=None):
    """Mean cross-entropy (plus L2 penalty) and analytic parameter gradients."""
    spec = model.spec
    inputs, zs, hs, probs = _forward(model, X, masks=masks)
    loss = _loss(probs, Y, spec.output_kind) + _l2_penalty(model, weight_decay)

    n = X.shape[0]
    delta = (probs - Y) / n  # gradient of mean CE wrt output pre-activations
    grads_W = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_W[l] = inputs[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if weight_decay:
            grads_W[l] = grads_W[l] + weight_decay * model.weights[l]
        if l > 0:
            upstream = delta @ model.weights[l].T
            if masks is not None:
                upstream = upstream * masks[l - 1]
            delta = upstream * _activate_grad(zs[l - 1], hs[l - 1], spec.activation)
    return loss, grads_W, grads_b


def _validate_targets(spec: MLPSpec, Y: np.ndarray) -> None:
    if Y.ndim != 2 or Y.shape[1] != spec.n_outputs:
        raise DataError(f"target shape {Y.shape} incompatible with {spec.n_outputs} outputs")
    if np.any((Y < 0) | (Y > 1)):
        raise DataError("targets must lie in [0, 1]")
    if spec.output_kind == "softmax" and not np.allclose(Y.sum(axis=1), 1.0, atol=1e-9):
        raise DataError("softmax targets must be one-hot (rows summing to 1)")


def train_mlp(spec: MLPSpec, X: np.ndarray, Y: np.ndarray,
              config: Optional[TrainConfig] = None) -> MLPModel:
    """Minibatch SGD on cross-entropy with inverted dropout.

    Deterministic given (spec, data, config.seed): initialization, epoch
    shuffles, and dropout masks all come from one seeded generator, and
    batches run sequentially. Early-stops after ``patience`` epochs without
    improvement of the epoch loss.

    Parameters, targets and dropout masks take X's dtype: float32 if X is
    float32, float64 otherwise. The loss is always summed in float64.
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

    model = init_mlp(spec, seed=config.seed)
    model.weights = [W.astype(dtype, copy=False) for W in model.weights]
    model.biases = [b.astype(dtype, copy=False) for b in model.biases]
    rng = np.random.default_rng(config.seed + 1)
    n = X.shape[0]
    best_loss = np.inf
    stale = 0
    history: list[float] = []

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = X[idx], Y[idx]
            masks = None
            if spec.dropout_rate > 0.0:
                masks = [dropout_mask((len(idx), h), spec.dropout_rate, rng).astype(dtype)
                         for h in spec.hidden_sizes]
            loss, gW, gb = loss_and_gradients(model, xb, yb, config.weight_decay, masks=masks)
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
            best_loss = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.seed = config.seed
    model.epochs_run = len(history)
    model.final_loss = history[-1] if history else float("nan")
    model.loss_history = history
    return model


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
    the model's dtype, which the file records."""
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "dtype": model.weights[0].dtype.name,
        "spec": {**asdict(model.spec), "hidden_sizes": list(model.spec.hidden_sizes)},
        "weights": [encode_array(W) for W in model.weights],
        "biases": [encode_array(b) for b in model.biases],
        "metadata": {
            "seed": model.seed,
            "epochs_run": model.epochs_run,
            "final_loss": model.final_loss,
            "loss_history": model.loss_history,
        },
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
                        final_loss=meta["final_loss"], loss_history=list(meta["loss_history"]))
    except (KeyError, TypeError, ValueError, ConfigError) as e:  # a field missing or mistyped
        raise DataError(f"{path}: malformed {_FORMAT} container ({e!r})") from None
