import numpy as np
import pytest

from readmit import neural
from readmit.errors import ConfigError, DataError, TrainingDivergedError
from readmit.neural import (MLPSpec, TrainConfig, init_mlp,
                            load_mlp, predict, save_mlp, train_mlp)

from helpers import gradient_check, reference_encode


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
    assert X.shape == (3, encoder.dim) and X.dtype == np.float64
    assert np.array_equal(X, np.stack([encoder(t) for t in token_lists]))
    assert neural.encode_rows(encoder, []).shape == (0, encoder.dim)


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
    X = rng.normal(0, 1, (30, 4))
    labels = (X[:, 1] > 0).astype(float)
    Y = np.stack([1 - labels, labels], axis=1)
    spec = MLPSpec(input_dim=4, hidden_sizes=(6, 3), output_kind="softmax", n_outputs=2)
    model = train_mlp(spec, X, Y, TrainConfig(epochs=5, seed=8, patience=5))
    path = tmp_path / "model.json"
    save_mlp(model, path)
    loaded = load_mlp(path)
    assert loaded.spec == model.spec
    for w0, w1 in zip(model.weights, loaded.weights):
        assert np.array_equal(w0, w1)
    assert loaded.final_loss == model.final_loss
    assert np.array_equal(predict(loaded, X), predict(model, X))
