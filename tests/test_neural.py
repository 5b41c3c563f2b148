import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from readmit import neural
from readmit.errors import ConfigError, DataError, TrainingDivergedError
from readmit.neural import (MLPSpec, TrainConfig, init_mlp, load_mlp, predict, save_mlp,
                            train_mlp, train_mlps, validation_split)
from readmit.seeding import derive_seed
from readmit.textproc import split_sentences

from helpers import (confusion_tally, gradient_check, mlp_as_dtype, reference_encode,
                     reference_stopping, reference_train_mlp)


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


@pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_train_config_rejects_non_finite_or_negative_rates(field, value):
    with pytest.raises(ConfigError, match="must be finite and non-negative"):
        TrainConfig(**{field: value}).validate()


def _targets(rng, n, spec):
    if spec.output_kind == "softmax":
        return np.eye(spec.n_outputs)[rng.integers(0, spec.n_outputs, n)]
    return (rng.random((n, spec.n_outputs)) < 0.5).astype(float)


def _assert_same_model(a, b):
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert (a.spec, a.seed, a.epochs_run, a.loss_history) == (b.spec, b.seed, b.epochs_run,
                                                               b.loss_history)
    assert repr(a.final_loss) == repr(b.final_loss)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fits_trained_together_equal_fits_trained_alone(data):
    # Each fit trains on its own rows of one shared matrix, any number of
    # them in any order; alone, the same rows are its whole matrix. Row
    # counts differ, so fits have ragged last batches of different lengths.
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    output_kind = draw(st.sampled_from(["softmax", "sigmoid"]))
    spec = MLPSpec(input_dim=draw(st.integers(1, 6)),
                   hidden_sizes=tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=2))),
                   activation=draw(st.sampled_from(["relu", "tanh"])),
                   dropout_rate=draw(st.sampled_from([0.0, 0.0, 0.5, 0.75])),
                   output_kind=output_kind,
                   n_outputs=draw(st.integers(2 if output_kind == "softmax" else 1, 4)))
    config = TrainConfig(learning_rate=draw(st.sampled_from([0.0, 0.05, 0.3])),
                         batch_size=draw(st.integers(1, 12)), epochs=draw(st.integers(1, 8)),
                         weight_decay=draw(st.sampled_from([0.0, 0.01])),
                         patience=draw(st.integers(1, 4)))
    n = draw(st.integers(1, 40))
    X = rng.normal(0, 1, (n, spec.input_dim)).astype(draw(st.sampled_from([np.float32, np.float64])))
    Y = _targets(rng, n, spec)
    fits = [(rng.choice(n, draw(st.integers(1, n)), replace=draw(st.booleans())), seed)
            for seed in draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4))]
    together = train_mlps(spec, X, Y, fits, config)
    assert len(together) == len(fits)
    for (rows, seed), model in zip(fits, together):
        alone = replace(config, seed=seed)
        _assert_same_model(model, reference_train_mlp(spec, X[rows], Y[rows], alone))
        _assert_same_model(model, train_mlp(spec, X[rows], Y[rows], alone))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_space_first_layer_equals_input_space_to_rounding(data):
    # Fits with fewer training rows than inputs train their first layer in
    # the span of their rows, in one stack with fits that have more rows than
    # inputs. Each must be byte-identical to itself trained alone and to the
    # reference loop on its training rows, and equal input-space training up
    # to rounding, with validation on or off.
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    output_kind = draw(st.sampled_from(["softmax", "sigmoid"]))
    d = draw(st.integers(8, 40))
    spec = MLPSpec(input_dim=d,
                   hidden_sizes=tuple(draw(st.lists(st.integers(1, 8), max_size=2))),
                   activation=draw(st.sampled_from(["relu", "tanh"])),
                   dropout_rate=draw(st.sampled_from([0.0, 0.5])),
                   output_kind=output_kind,
                   n_outputs=draw(st.integers(2 if output_kind == "softmax" else 1, 3)))
    config = TrainConfig(learning_rate=draw(st.sampled_from([0.05, 0.3])),
                         batch_size=draw(st.integers(1, 12)), epochs=draw(st.integers(1, 4)),
                         patience=draw(st.integers(1, 3)),
                         validation_fraction=draw(st.sampled_from([0.0, 0.2])))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = 2 * d
    X = rng.normal(0, 1, (n, d)).astype(dtype)
    Y = _targets(rng, n, spec)
    sizes = [draw(st.integers(2, d - 1))] + draw(st.lists(st.integers(2, n), max_size=3))
    fits = [(rng.choice(n, size, replace=False), draw(st.integers(0, 2**31))) for size in sizes]
    together = train_mlps(spec, X, Y, fits, config)
    tolerance = 1000 * np.finfo(dtype).eps
    for (rows, seed), model in zip(fits, together):
        alone = train_mlp(spec, X[rows], Y[rows], replace(config, seed=seed))
        _assert_same_model(model, alone)
        assert model.validation_scores == alone.validation_scores
        train_part, epochs = rows, config.epochs
        if config.validation_fraction:
            train_part, epochs = validation_split(rows, config.validation_fraction, seed)[0], model.best_epoch
        row_space = len(train_part) < d
        assert neural.first_layer(spec, config, len(train_part)) == ("row_space" if row_space
                                                                      else "input_space")
        plain = replace(config, seed=seed, epochs=epochs, validation_fraction=0)
        reference = reference_train_mlp(spec, X[train_part], Y[train_part], plain)
        input_space = reference_train_mlp(spec, X[train_part], Y[train_part], plain, row_space=False)
        for x, y, z in zip(model.weights + model.biases, reference.weights + reference.biases,
                           input_space.weights + input_space.biases):
            assert x.dtype == y.dtype == z.dtype and x.shape == y.shape == z.shape
            assert x.tobytes() == y.tobytes()
            if row_space:
                np.testing.assert_allclose(x, z, rtol=tolerance, atol=tolerance)
            else:
                assert x.tobytes() == z.tobytes()
        assert model.loss_history[:epochs] == reference.loss_history
        np.testing.assert_allclose(reference.loss_history, input_space.loss_history, rtol=tolerance)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scales", [
    (1.0, 1e6, 1.0, 1e150),   # fit 1 diverges at epoch 5, after fit 3 at epoch 0
    (1e150, 1.0, 1e6, 1.0),   # fit 0 diverges first and is the lowest
    (1.0, 1.0, 1e6, 1e6),     # two fits diverge at the same step
])
def test_lowest_index_divergence_is_raised(scales):
    rng = np.random.default_rng(0)
    spec = MLPSpec(input_dim=3, hidden_sizes=(4,), output_kind="softmax", n_outputs=2)
    config = TrainConfig(learning_rate=0.5, batch_size=8, epochs=30, patience=30)
    blocks = [rng.normal(0, 1, (30 + 3 * i, 3)) * scale for i, scale in enumerate(scales)]
    X = np.vstack(blocks)
    Y = _targets(rng, len(X), spec)
    ends = np.cumsum([len(b) for b in blocks])
    fits = [(np.arange(end - len(b), end), 10 + i) for i, (end, b) in enumerate(zip(ends, blocks))]
    expected = None
    for rows, seed in fits:  # a fit-by-fit loop stops at the first error
        try:
            reference_train_mlp(spec, X[rows], Y[rows], replace(config, seed=seed))
        except TrainingDivergedError as e:
            expected = e
            break
    assert expected is not None
    with pytest.raises(TrainingDivergedError) as raised:
        train_mlps(spec, X, Y, fits, config)
    assert (raised.value.epoch, repr(raised.value.loss)) == (expected.epoch, repr(expected.loss))


def test_train_mlps_edge_cases():
    spec = MLPSpec(input_dim=2, hidden_sizes=(3,), output_kind="softmax", n_outputs=2)
    X, Y = np.zeros((4, 2)), np.tile([1.0, 0.0], (4, 1))
    assert train_mlps(spec, X, Y, []) == []
    with pytest.raises(DataError, match="at least one row"):
        train_mlps(spec, X, Y, [(np.arange(4), 0), (np.array([], dtype=int), 1)])


def _held_out_score(model, X, Y):
    """Micro-F1 at 0.5 of a sigmoid model or accuracy of a softmax one, by counting."""
    probs = predict(model, X)
    if model.spec.output_kind == "softmax":
        return float(np.mean(probs.argmax(axis=1) == Y.argmax(axis=1)))
    tp, fp, fn, _ = confusion_tally((Y > 0.5).ravel(), (probs >= 0.5).ravel())
    return 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fits_with_validation_equal_train_mlp_stopped_at_their_best_epoch(data):
    # Each fit holds out a slice of its own rows, trains on the rest, and
    # keeps its best epoch's weights: those of a fit without validation on
    # the rest, with the best epoch as its budget. Row counts differ, so the
    # fits have ragged batches and stop at different epochs.
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    output_kind = draw(st.sampled_from(["softmax", "sigmoid"]))
    spec = MLPSpec(input_dim=draw(st.integers(1, 6)),
                   hidden_sizes=tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=2))),
                   activation=draw(st.sampled_from(["relu", "tanh"])),
                   dropout_rate=draw(st.sampled_from([0.0, 0.0, 0.5])),
                   output_kind=output_kind,
                   n_outputs=draw(st.integers(2 if output_kind == "softmax" else 1, 4)))
    config = TrainConfig(learning_rate=draw(st.sampled_from([0.0, 0.1, 0.5, 2.0])),
                         batch_size=draw(st.integers(1, 12)), epochs=draw(st.integers(1, 25)),
                         weight_decay=draw(st.sampled_from([0.0, 0.01])),
                         patience=draw(st.integers(1, 4)),
                         validation_fraction=draw(st.sampled_from([0.05, 0.2, 0.5])))
    n = draw(st.integers(3, 50))
    X = rng.normal(0, 1, (n, spec.input_dim)).astype(draw(st.sampled_from([np.float32, np.float64])))
    Y = _targets(rng, n, spec)
    fits = [(rng.choice(n, draw(st.integers(3, n)), replace=draw(st.booleans())), seed)
            for seed in draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4))]
    together = train_mlps(spec, X, Y, fits, config)
    for (rows, seed), model in zip(fits, together):
        train_part, held = validation_split(rows, config.validation_fraction, seed)
        assert 1 <= model.best_epoch <= model.epochs_run <= config.epochs
        assert len(model.validation_scores) == model.epochs_run + 1
        assert (model.epochs_run, model.best_epoch) == reference_stopping(
            model.validation_scores, config.patience, config.epochs)
        stopped = train_mlp(spec, X[train_part], Y[train_part],
                            replace(config, seed=seed, epochs=model.best_epoch, validation_fraction=0))
        for x, y in zip(model.weights + model.biases, stopped.weights + stopped.biases):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert model.loss_history[:model.best_epoch] == stopped.loss_history
        assert model.validation_scores[model.best_epoch] == _held_out_score(model, X[held], Y[held])
        alone = train_mlp(spec, X[rows], Y[rows], replace(config, seed=seed))
        _assert_same_model(model, alone)
        assert (model.best_epoch, model.validation_scores) == (alone.best_epoch,
                                                               alone.validation_scores)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), fraction=st.floats(0.0, 0.99, exclude_min=True),
       seed=st.integers(0, 2**31), offset=st.integers(0, 1000))
def test_validation_slice_comes_from_the_fits_own_rows(n, fraction, seed, offset):
    rows = np.arange(offset, offset + n)[::-1]
    n_held = max(1, round(fraction * n))
    if n_held >= n:
        with pytest.raises(DataError, match="keep a row to train on"):
            validation_split(rows, fraction, seed)
        return
    train_part, held = validation_split(rows, fraction, seed)
    assert len(held) == n_held and len(train_part) == n - n_held
    assert sorted(np.concatenate([train_part, held]).tolist()) == sorted(rows.tolist())
    # both parts keep the fit's order, and the draw depends on positions only
    assert np.all(np.diff(train_part) < 0) and np.all(np.diff(held) < 0)
    shifted = validation_split(rows + 7, fraction, seed)
    assert np.array_equal(shifted[0], train_part + 7) and np.array_equal(shifted[1], held + 7)
    # the slice's own stream, apart from the seed + 1 stream that shuffles the rows
    drawn = np.random.default_rng(derive_seed(seed, "validation")).permutation(n)[:n_held]
    assert sorted(held.tolist()) == sorted(rows[drawn].tolist())


def test_fit_with_validation_does_not_depend_on_other_rows_or_fits():
    rng = np.random.default_rng(8)
    spec = MLPSpec(input_dim=4, hidden_sizes=(6,), output_kind="sigmoid", n_outputs=3)
    config = TrainConfig(learning_rate=0.5, batch_size=8, epochs=30, patience=3,
                         validation_fraction=0.2)
    X = rng.normal(0, 1, (40, 4))
    Y = (X[:, :3] > 0).astype(float)
    alone = train_mlp(spec, X, Y, replace(config, seed=5))
    assert alone.epochs_run < config.epochs  # the plateau stops it
    # the same rows, in the same order, at other positions of a larger matrix
    # whose other rows feed two more fits of the stack
    big_X = rng.normal(0, 1, (100, 4))
    big_Y = (rng.random((100, 3)) < 0.5).astype(float)
    rows = np.arange(50, 90)
    big_X[rows], big_Y[rows] = X, Y
    together = train_mlps(spec, big_X, big_Y,
                          [(np.arange(60), 1), (rows, 5), (np.arange(30, 100), 2)], config)
    _assert_same_model(together[1], alone)
    assert together[1].validation_scores == alone.validation_scores


def test_score_that_stays_at_its_initial_value_does_not_stop_a_fit():
    # Every target is 0 and so is the held-out micro-F1, at initialization and
    # after every epoch, while the epoch loss keeps falling. A score that never
    # rises stops nothing, so the fit runs to the cap.
    rng = np.random.default_rng(3)
    spec = MLPSpec(input_dim=3, hidden_sizes=(4,), output_kind="sigmoid", n_outputs=2)
    config = TrainConfig(learning_rate=0.05, batch_size=4, epochs=12, patience=2,
                         validation_fraction=0.25, seed=4)
    model = train_mlp(spec, rng.normal(0, 1, (24, 3)), np.zeros((24, 2)), config)
    assert model.validation_scores == [0.0] * 13
    assert model.epochs_run == model.best_epoch == 12
    assert all(b < a for a, b in zip(model.loss_history, model.loss_history[1:]))


def test_fit_without_validation_runs_every_epoch_and_records_no_scores():
    # At learning rate 0 the epoch loss does not fall (it moves only by
    # rounding); without a held-out slice nothing but the epoch budget stops
    # the fit, whatever its patience.
    rng = np.random.default_rng(1)
    spec = MLPSpec(input_dim=3, hidden_sizes=(4,), output_kind="softmax", n_outputs=2)
    X, Y = rng.normal(0, 1, (20, 3)), np.eye(2)[rng.integers(0, 2, 20)]
    model = train_mlp(spec, X, Y, TrainConfig(learning_rate=0.0, epochs=10, patience=3))
    assert (model.epochs_run, model.best_epoch, model.validation_scores) == (10, 10, [])
    assert np.ptp(model.loss_history) < 1e-12


@pytest.mark.parametrize("fraction", [float("nan"), -0.1, 1.0, 1.5])
def test_train_config_rejects_validation_fraction_outside_unit_interval(fraction):
    with pytest.raises(ConfigError, match="validation_fraction must lie in"):
        TrainConfig(validation_fraction=fraction).validate()


@pytest.mark.parametrize("n_rows, fraction", [(1, 0.1), (2, 0.9), (4, 0.95)])
def test_fit_too_small_to_hold_out_a_slice_is_a_data_error(n_rows, fraction):
    spec = MLPSpec(input_dim=2, hidden_sizes=(3,), output_kind="softmax", n_outputs=2)
    X, Y = np.zeros((8, 2)), np.tile([1.0, 0.0], (8, 1))
    config = TrainConfig(validation_fraction=fraction)
    with pytest.raises(DataError, match="keep a row to train on"):
        train_mlps(spec, X, Y, [(np.arange(8), 0), (np.arange(n_rows), 1)], config)


def test_save_load_keeps_validation_record(tmp_path):
    rng = np.random.default_rng(2)
    spec = MLPSpec(input_dim=3, hidden_sizes=(4,), output_kind="sigmoid", n_outputs=2)
    X = rng.normal(0, 1, (30, 3)).astype(np.float32)
    Y = (X[:, :2] > 0).astype(float)
    model = train_mlp(spec, X, Y, TrainConfig(learning_rate=0.5, batch_size=4, epochs=20,
                                              patience=2, validation_fraction=0.2))
    save_mlp(model, tmp_path / "m.json")
    loaded = load_mlp(tmp_path / "m.json")
    _assert_same_model(loaded, model)
    assert (loaded.best_epoch, loaded.validation_scores) == (model.best_epoch,
                                                             model.validation_scores)
    plain = train_mlp(spec, X, Y, TrainConfig(epochs=3, patience=3))
    save_mlp(plain, tmp_path / "plain.json")
    metadata = json.loads((tmp_path / "plain.json").read_text(encoding="utf-8"))["metadata"]
    assert sorted(metadata) == ["epochs_run", "final_loss", "loss_history", "seed"]
    assert load_mlp(tmp_path / "plain.json").best_epoch == 3


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
