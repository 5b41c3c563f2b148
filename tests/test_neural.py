import json

import numpy as np
import pytest

from readmit import neural
from readmit.errors import ConfigError, DataError, TrainingDivergedError
from readmit.neural import (MLPSpec, TrainConfig, init_mlp,
                            load_mlp, predict, save_mlp, train_mlp)
from readmit.textproc import split_sentences

from helpers import gradient_check, mlp_as_dtype, reference_encode


def test_encode_deterministic(encoder):
    a = encoder(["mood", "is", "stable"])
    b = encoder(["mood", "is", "stable"])
    assert np.array_equal(a, b)


def test_encode_empty_is_zero(encoder):
    assert np.array_equal(encoder([]), np.zeros(encoder.dim))


def test_encode_unit_norm(encoder):
    v = encoder(["sleeping", "well", "tonight"])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_encode_bigram_sensitivity_against_reference(encoder):
    a = encoder(["mood", "is", "stable"])
    b = encoder(["stable", "is", "mood"])
    assert not np.array_equal(a, b)
    ra = reference_encode(["mood", "is", "stable"], encoder.dim)
    rb = reference_encode(["stable", "is", "mood"], encoder.dim)
    cos_impl = float(a @ b)
    cos_ref = float(ra @ rb)
    assert abs(cos_impl - cos_ref) < 1e-12
    assert np.allclose(a, ra, atol=1e-12)


def test_encode_rows_matches_stacked_encoder_calls(encoder):
    token_lists = [["mood", "is", "stable"], [], ["sleeping", "well"]]
    X = neural.encode_rows(encoder, token_lists)
    assert X.shape == (3, encoder.dim) and X.dtype == np.float32
    assert np.array_equal(X, np.stack([encoder(t) for t in token_lists]).astype(np.float32))
    assert neural.encode_rows(encoder, []).shape == (0, encoder.dim)


class _CallOnlyEncoder:
    """The plug-in contract alone: ``dim`` and ``__call__``."""

    def __init__(self, dim):
        self.dim = dim
        self.calls = 0
        self._inner = neural.HashingEncoder(dim)

    def __call__(self, tokens):
        self.calls += 1
        return self._inner(tokens)


@pytest.mark.parametrize("dim", [512, 7])
def test_hashing_rows_equal_reference_bytes(small_gen, dim):
    _, corpus, _ = small_gen
    edge = [(), ("mood",), ("mood", "is", "mood", "is", "mood", "is"), ("a", "a", "a", "a"), ()]
    token_lists = edge + [s for a in corpus.admissions for n in a.notes
                          for s in split_sentences(n.text)] + edge
    assert len(token_lists) > 2 * neural._BLOCK_ROWS
    expected64 = [reference_encode(t, dim) for t in token_lists]
    expected = np.array(expected64).astype(np.float32)

    def assert_calls_equal_reference(encoder):
        for t, e in zip(token_lists, expected64):
            v = encoder(t)
            assert v.dtype == np.float64 and np.array_equal(v, e)

    calls_first = neural.HashingEncoder(dim)
    assert_calls_equal_reference(calls_first)  # before any rows call
    assert np.array_equal(neural.encode_rows(calls_first, token_lists), expected)
    encoder = neural.HashingEncoder(dim)
    assert np.array_equal(neural.encode_rows(encoder, [(), ()]), np.zeros((2, dim), np.float32))
    for _ in range(2):  # cold, then with every gram already seen
        X = neural.encode_rows(encoder, token_lists)
        assert X.dtype == np.float32 and np.array_equal(X, expected)
    assert_calls_equal_reference(encoder)  # after rows filled the id tables
    call_only = _CallOnlyEncoder(dim)
    assert np.array_equal(neural.encode_rows(call_only, token_lists), expected)
    assert call_only.calls == len(token_lists)


@pytest.mark.parametrize("output_kind", ["softmax", "sigmoid"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradients_match_finite_differences(output_kind, activation):
    spec = MLPSpec(input_dim=5, hidden_sizes=(6, 4), activation=activation,
                   output_kind=output_kind, n_outputs=3)
    assert gradient_check(spec, seed=11, weight_decay=0.01) < 1e-4


def test_xor_trains_to_perfect_accuracy():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    Y = np.zeros((4, 2))
    Y[[0, 3], 0] = 1.0
    Y[[1, 2], 1] = 1.0
    spec = MLPSpec(input_dim=2, hidden_sizes=(4, 4), activation="tanh",
                   dropout_rate=0.0, output_kind="softmax", n_outputs=2)
    cfg = TrainConfig(learning_rate=0.5, batch_size=4, epochs=2000, seed=0, patience=2000)
    model = train_mlp(spec, X, Y, cfg)
    assert model.epochs_run <= 2000
    pred = predict(model, X).argmax(axis=1)
    assert np.array_equal(pred, Y.argmax(axis=1))


def test_dropout_retention_rate():
    rng = np.random.default_rng(0)
    rate = 0.75
    draws = neural.dropout_mask((10_000,), rate, rng)
    retained = float(np.mean(draws > 0))
    assert abs(retained - 0.25) <= 0.02


def test_zero_learning_rate_keeps_parameters():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (20, 4))
    Y = np.zeros((20, 2))
    Y[rng.random(20) < 0.5, 0] = 1.0
    Y[:, 1] = 1.0 - Y[:, 0]
    spec = MLPSpec(input_dim=4, hidden_sizes=(5,), output_kind="softmax", n_outputs=2)
    cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=9, patience=5)
    before = init_mlp(spec, seed=9)
    model = train_mlp(spec, X, Y, cfg)
    for w0, w1 in zip(before.weights, model.weights):
        assert np.array_equal(w0, w1)


def test_training_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (60, 6))
    labels = (X[:, 0] > 0).astype(float)
    Y = np.stack([1 - labels, labels], axis=1)
    spec = MLPSpec(input_dim=6, hidden_sizes=(8,), dropout_rate=0.3,
                   output_kind="softmax", n_outputs=2)
    cfg = TrainConfig(learning_rate=0.1, batch_size=16, epochs=12, seed=21, patience=12)
    m1 = train_mlp(spec, X, Y, cfg)
    m2 = train_mlp(spec, X, Y, cfg)
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    assert m1.loss_history == m2.loss_history


def test_loss_decreases_on_separable_data():
    rng = np.random.default_rng(7)
    X = np.concatenate([rng.normal(-2, 0.5, (30, 3)), rng.normal(2, 0.5, (30, 3))])
    Y = np.zeros((60, 2))
    Y[:30, 0] = 1.0
    Y[30:, 1] = 1.0
    spec = MLPSpec(input_dim=3, hidden_sizes=(6,), output_kind="softmax", n_outputs=2)
    model = train_mlp(spec, X, Y, TrainConfig(learning_rate=0.1, epochs=30, seed=1, patience=30))
    assert model.loss_history[-1] < model.loss_history[0]


def test_predict_softmax_normalized():
    spec = MLPSpec(input_dim=4, hidden_sizes=(5,), output_kind="softmax", n_outputs=3)
    model = init_mlp(spec, seed=0)
    X = np.random.default_rng(1).normal(0, 3, (50, 4))
    probs = predict(model, X)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_predict_zero_final_layer_uniform():
    spec = MLPSpec(input_dim=4, hidden_sizes=(5,), output_kind="softmax", n_outputs=4)
    model = init_mlp(spec, seed=0)
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = 0.0
    probs = predict(model, np.random.default_rng(2).normal(0, 1, (10, 4)))
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_predict_batch_order_invariant():
    spec = MLPSpec(input_dim=4, hidden_sizes=(5,), output_kind="sigmoid", n_outputs=2)
    model = init_mlp(spec, seed=4)
    X = np.random.default_rng(0).normal(0, 1, (20, 4))
    p = predict(model, X)
    perm = np.random.default_rng(1).permutation(20)
    assert np.array_equal(predict(model, X[perm]), p[perm])


def test_predict_dimension_mismatch():
    spec = MLPSpec(input_dim=4, hidden_sizes=(5,), output_kind="softmax", n_outputs=2)
    model = init_mlp(spec, seed=0)
    with pytest.raises(DataError):
        predict(model, np.zeros((3, 7)))


def test_target_validation():
    spec = MLPSpec(input_dim=2, hidden_sizes=(3,), output_kind="softmax", n_outputs=2)
    X = np.zeros((4, 2))
    with pytest.raises(DataError):
        train_mlp(spec, X, np.full((4, 2), 0.7))  # rows sum to 1.4, not one-hot
    with pytest.raises(DataError):
        train_mlp(spec, X, np.zeros((4, 3)))  # wrong output width


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 100, (16, 3))
    labels = (X[:, 0] > 0).astype(float)
    Y = np.stack([1 - labels, labels], axis=1)
    spec = MLPSpec(input_dim=3, hidden_sizes=(4,), output_kind="softmax", n_outputs=2)
    with pytest.raises(TrainingDivergedError):
        train_mlp(spec, X, Y, TrainConfig(learning_rate=1e12, epochs=50, seed=0, patience=50))


def test_spec_validation():
    with pytest.raises(ConfigError):
        MLPSpec(input_dim=0, output_kind="softmax").validate()
    with pytest.raises(ConfigError):
        MLPSpec(input_dim=2, dropout_rate=1.0).validate()
    with pytest.raises(ConfigError):
        MLPSpec(input_dim=2, activation="gelu").validate()


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    X64 = rng.normal(0, 1, (30, 4))
    labels = (X64[:, 1] > 0).astype(float)
    Y = np.stack([1 - labels, labels], axis=1)
    spec = MLPSpec(input_dim=4, hidden_sizes=(6, 3), output_kind="softmax", n_outputs=2)
    for dtype in (np.float32, np.float64):
        X = X64.astype(dtype)
        model = train_mlp(spec, X, Y, TrainConfig(epochs=5, seed=8, patience=5))
        assert all(a.dtype == dtype for a in model.weights + model.biases)
        path = tmp_path / f"model_{np.dtype(dtype).name}.json"
        save_mlp(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 2 and payload["dtype"] == np.dtype(dtype).name
        loaded = load_mlp(path)
        assert loaded.spec == model.spec
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)
        assert loaded.final_loss == model.final_loss
        assert loaded.loss_history == model.loss_history
        probs = predict(loaded, X)
        assert probs.dtype == dtype
        assert np.array_equal(probs, predict(model, X))


# A version-1 file (no dtype field, float64 arrays) as the version-1 writer
# saved it: a (3 -> 2 -> 2) softmax model trained for two epochs.
V1_PAYLOAD = (
    '{"biases": ["azo2IFcVdz+Q5pHQH0A6vw==", "2Ttecf/ypj/ZO15x//Kmvw=="], '
    '"format": "readmit-mlp", "metadata": {"epochs_run": 2, "final_loss": 0.5862643817342292, '
    '"loss_history": [0.5953838589183624, 0.5862643817342292], "seed": 8}, '
    '"spec": {"activation": "relu", "dropout_rate": 0.0, "hidden_sizes": [2], "input_dim": 3, '
    '"n_outputs": 2, "output_kind": "softmax"}, "version": 1, '
    '"weights": ["Ve2izhlO2L8NsCcPsBnxPybWqkf29dm/U+47dn2n5D82Gp25W+3pPyQPddZQ7c6/", '
    '"ZRxcyR7dwL/XJXfzSUHVv2N7MwICLO+/4rgBUIGQpL8="]}\n'
)
V1_WEIGHTS = [
    [[-0.37976689509715317, 1.068771418761574], [-0.4056373309971114, 0.6454455670604581],
     [0.8102244019763194, -0.2416173026232339]],
    [[-0.13174805480977905, -0.33210991645736726], [-0.9741220515241874, -0.040164986626096924]],
]


def test_load_version_1_file_as_float64(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(V1_PAYLOAD, encoding="utf-8")
    model = load_mlp(path)
    assert model.spec == MLPSpec(input_dim=3, hidden_sizes=(2,), output_kind="softmax", n_outputs=2)
    assert all(a.dtype == np.float64 for a in model.weights + model.biases)
    for W, expected in zip(model.weights, V1_WEIGHTS):
        assert W.tolist() == expected
    assert (model.seed, model.epochs_run) == (8, 2)
    assert model.loss_history == [0.5953838589183624, 0.5862643817342292]
    assert predict(model, np.array([0.5, -1.0, 2.0])) == pytest.approx(
        [0.6127008696176905, 0.3872991303823094], abs=1e-15)


@pytest.mark.parametrize("field, value, message", [
    ("dtype", "float16", "unsupported weight dtype"),
    ("dtype", None, "unsupported weight dtype"),
    ("version", 3, "unsupported container version"),
], ids=["dtype_float16", "dtype_missing", "version_3"])
def test_load_rejects_unknown_dtype_or_version(tmp_path, field, value, message):
    spec = MLPSpec(input_dim=3, hidden_sizes=(2,), output_kind="softmax", n_outputs=2)
    path = tmp_path / "model.json"
    save_mlp(init_mlp(spec, seed=0), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[field] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=message) as err:
        load_mlp(path)
    assert str(path) in str(err.value)


def test_float32_saturated_sigmoid_loss_stays_finite():
    # Inputs of magnitude ~100 drive the output pre-activations far past
    # the point where a float32 sigmoid rounds to exactly 1.0; the loss must
    # still be finite for every epoch.
    rng = np.random.default_rng(2)
    X = (100.0 * rng.normal(0, 1, (40, 4))).astype(np.float32)
    Y = np.stack([np.ones(40), X[:, 0] > 0, np.zeros(40)], axis=1)
    spec = MLPSpec(input_dim=4, hidden_sizes=(8,), output_kind="sigmoid", n_outputs=3)
    model = train_mlp(spec, X, Y, TrainConfig(learning_rate=0.01, batch_size=8, epochs=20,
                                              seed=1, patience=20))
    assert model.weights[0].dtype == np.float32
    assert model.epochs_run == 20 and np.all(np.isfinite(model.loss_history))
    initial = predict(mlp_as_dtype(init_mlp(spec, seed=1), np.float32), X)
    assert initial.dtype == np.float32 and np.any(initial == 1.0)


def test_float32_gradients_stay_float32():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (6, 5)).astype(np.float32)
    Y = np.eye(3, dtype=np.float32)[rng.integers(0, 3, 6)]
    for activation in ("relu", "tanh"):
        spec = MLPSpec(input_dim=5, hidden_sizes=(4, 3), activation=activation,
                       output_kind="softmax", n_outputs=3)
        model = mlp_as_dtype(init_mlp(spec, seed=0), np.float32)
        loss, gW, gb = neural.loss_and_gradients(model, X, Y, weight_decay=0.01)
        assert isinstance(loss, float) and np.isfinite(loss)
        assert all(g.dtype == np.float32 for g in gW + gb)
