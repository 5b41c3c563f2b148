import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from readmit import domains, neural, pool, syngen, textproc
from readmit.classifiers import f1_score
from readmit.corpus import Corpus
from readmit.domains import (RISK_DOMAINS, Lexicon, aggregate_admission,
                             default_lexicon, scalar_sentiment,
                             summarize_admission, train_sentiment_models,
                             train_topic_model, weak_label)
from readmit.errors import ConfigError, DataError, TrainingDivergedError
from readmit.neural import MLPSpec, TrainConfig

from helpers import lexicon_sentence_fractions, mlp_as_dtype


def test_default_lexicon_shape():
    lex = default_lexicon()
    for domain in RISK_DOMAINS:
        assert len(lex.patterns[domain]) >= 15
        assert any(len(p) > 1 for p in lex.patterns[domain])  # multiword expressions


def test_lexicon_validation():
    with pytest.raises(ConfigError, match="missing"):
        Lexicon({"Mood": [("sad",)]})
    base = {d: [("x%d" % i,)] for i, d in enumerate(RISK_DOMAINS)}
    dup = dict(base)
    dup["Mood"] = [("sad",), ("sad",)]
    with pytest.raises(ConfigError, match="duplicate"):
        Lexicon(dup)


def test_load_lexicon_file(tmp_path):
    raw = {d: ["alpha beta", "gamma"] for d in RISK_DOMAINS}
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    lex = domains.load_lexicon(path)
    assert lex.patterns["Mood"] == (("alpha", "beta"), ("gamma",))


def test_match_shipped_mood_pattern():
    lex = default_lexicon()
    tokens = textproc.tokenize("Patient presents with depressed mood today.")
    assert lex.match(tokens) == {"Mood"}


def test_match_multi_domain():
    lex = default_lexicon()
    tokens = textproc.tokenize("Notes depressed mood and heavy drinking this week.")
    assert lex.match(tokens) == {"Mood", "SubstanceUse"}


def test_match_none():
    lex = default_lexicon()
    assert lex.match(textproc.tokenize("Routine vitals recorded.")) == frozenset()


def test_match_requires_contiguous():
    lex = Lexicon({**{d: [("zz%d" % i,)] for i, d in enumerate(RISK_DOMAINS)},
                   "Mood": [("low", "mood")]})
    assert lex.match(["low", "stable", "mood"]) == frozenset()
    assert lex.match(["very", "low", "mood"]) == {"Mood"}


def test_weak_label_empty_corpus(encoder):
    X, Y = weak_label(Corpus(patients=(), admissions=()), default_lexicon(), encoder)
    assert X.shape == (0, encoder.dim)
    assert Y.shape == (0, 7)


def test_weak_label_counts_and_single_domain(small_gen, encoder):
    _, corpus, truth = small_gen
    X, Y = weak_label(corpus, default_lexicon(), encoder)
    n_sentences = sum(truth.records[a.admission_id].n_sentences for a in corpus.admissions)
    assert X.shape == (n_sentences, encoder.dim)
    # generated sentences carry at most one planted domain, and every
    # domain-bearing sentence yields exactly one hot bit
    assert int(Y.sum(axis=1).max()) <= 1
    n_domain_sentences = sum(
        sum(truth.records[a.admission_id].domain_sentence_counts.values())
        for a in corpus.admissions)
    assert int((Y.sum(axis=1) == 1).sum()) == n_domain_sentences


def test_scalar_sentiment_values():
    assert scalar_sentiment((1.0, 0.0, 0.0)) == 1.0
    assert scalar_sentiment((0.0, 1.0, 0.0)) == 0.0
    assert scalar_sentiment((0.2, 0.3, 0.5)) == pytest.approx(-0.3)


def test_scalar_sentiment_rejects_non_distribution():
    with pytest.raises(DataError):
        scalar_sentiment((0.5, 0.2, 0.1))
    with pytest.raises(DataError):
        scalar_sentiment((1.2, -0.1, -0.1))


@given(st.floats(0, 1), st.floats(0, 1))
def test_scalar_sentiment_antisymmetric(a, b):
    total = a + b
    if total > 1.0:
        a, b = a / total, b / total
    neu = 1.0 - a - b
    assert scalar_sentiment((a, neu, b)) == pytest.approx(-scalar_sentiment((b, neu, a)), abs=1e-12)


def test_aggregate_two_note_mean():
    # one Mood sentence per note with sentiments +0.5 / -0.5 -> score 0
    tagged = np.zeros((4, 7), dtype=bool)
    mood = RISK_DOMAINS.index("Mood")
    tagged[0, mood] = True
    tagged[2, mood] = True
    note_of = np.array([0, 0, 1, 1])
    summary = aggregate_admission(tagged, {"Mood": np.array([0.5, -0.5])}, note_of, 2)
    assert summary.sentiment_score["Mood"] == pytest.approx(0.0)
    assert summary.sentence_fraction["Mood"] == pytest.approx(0.5)


def test_aggregate_absent_domain_zero():
    tagged = np.zeros((3, 7), dtype=bool)
    summary = aggregate_admission(tagged, {}, np.zeros(3, dtype=int), 1)
    assert summary.sentiment_score["Occupation"] == 0.0
    assert summary.sentence_fraction["Occupation"] == 0.0


def test_aggregate_note_stage_weighting():
    # note 0 has two Mood sentences (+1, 0), note 1 has one (-1):
    # note means are +0.5 and -1.0 -> admission score -0.25
    tagged = np.zeros((3, 7), dtype=bool)
    mood = RISK_DOMAINS.index("Mood")
    tagged[:, mood] = True
    note_of = np.array([0, 0, 1])
    summary = aggregate_admission(tagged, {"Mood": np.array([1.0, 0.0, -1.0])}, note_of, 2)
    assert summary.sentiment_score["Mood"] == pytest.approx(-0.25)


@pytest.mark.parametrize("kwargs, key", [
    ({"holdout": 0.0}, "holdout_fraction"), ({"holdout": 1.0}, "holdout_fraction"),
    ({"topic_epochs": 0}, "topic_epochs"), ({"sentiment_epochs": 0}, "sentiment_epochs"),
])
def test_train_nlp_rejects_bad_values(small_gen, kwargs, key):
    _, corpus, _ = small_gen
    with pytest.raises(ConfigError, match=key):
        domains.train_nlp(corpus, [], default_lexicon(), **kwargs)


def test_train_nlp_without_heldout_domain_sentences(small_gen):
    # a holdout this small holds out one seed record, so six domains have none
    config, corpus, _ = small_gen
    nlp = domains.train_nlp(corpus, syngen.make_sentiment_seed(config, 700), default_lexicon(),
                            holdout=1e-6, topic_epochs=1, sentiment_epochs=1)
    accuracy = nlp.metrics["sentiment_accuracy"]
    assert list(accuracy) == list(RISK_DOMAINS)
    assert sum(a is None for a in accuracy.values()) == 6
    assert all(0.0 <= a <= 1.0 for a in accuracy.values() if a is not None)
    assert set(nlp.sentiment) == set(RISK_DOMAINS)


def _topic_split(n):
    """(held-out rows, training rows) of the ``trained_pipeline`` topic model."""
    order = np.random.default_rng(77).permutation(n)
    return order[:n // 5], order[n // 5:]


PIPELINE_SENTIMENT_CONFIG = TrainConfig(learning_rate=0.15, batch_size=32, epochs=120,
                                        patience=120, seed=0)


@pytest.fixture(scope="module")
def trained_pipeline(small_gen, encoder):
    config, corpus, truth = small_gen
    lex = default_lexicon()
    X, Y = weak_label(corpus, lex, encoder)
    test_idx, train_idx = _topic_split(len(X))
    topic = train_topic_model(X[train_idx], Y[train_idx])
    pred = domains.predict_domains(topic, X[test_idx])
    micro_f1 = f1_score((Y[test_idx] > 0.5).ravel(), pred.ravel())
    records = syngen.make_sentiment_seed(config, 700)
    sentiment = train_sentiment_models(records, encoder, PIPELINE_SENTIMENT_CONFIG)
    return topic, sentiment, micro_f1


def test_topic_model_heldout_micro_f1(trained_pipeline):
    _, _, micro_f1 = trained_pipeline
    assert micro_f1 >= 0.80


def test_topic_model_single_domain_data_stays_quiet(small_gen, encoder):
    # trained only on Mood-or-nothing sentences, the model exceeds the
    # threshold for the other six domains on at most 5% of held-out rows
    _, corpus, _ = small_gen
    X, Y = weak_label(corpus, default_lexicon(), encoder)
    mood = RISK_DOMAINS.index("Mood")
    only_mood = np.flatnonzero(Y.sum(axis=1) == Y[:, mood])
    X, Y = X[only_mood], Y[only_mood]
    rng = np.random.default_rng(3)
    order = rng.permutation(len(X))
    n_test = len(X) // 5
    test_idx, train_idx = order[:n_test], order[n_test:]
    model = train_topic_model(X[train_idx], Y[train_idx],
                              TrainConfig(learning_rate=0.3, batch_size=64,
                                          epochs=120, patience=120, seed=0))
    pred = domains.predict_domains(model, X[test_idx])
    others = [j for j in range(len(RISK_DOMAINS)) if j != mood]
    false_rate = float(pred[:, others].any(axis=1).mean())
    assert false_rate <= 0.05


def test_sentiment_models_beat_chance(small_gen, encoder, trained_pipeline):
    config, _, _ = small_gen
    _, sentiment, _ = trained_pipeline
    held_out = syngen.make_sentiment_seed(
        syngen.GenConfig(seed=config.seed + 1, n_patients=config.n_patients), 350)
    for domain in RISK_DOMAINS:
        recs = [r for r in held_out if r.domain == domain]
        X = np.stack([encoder(textproc.tokenize(r.text)) for r in recs])
        pred = neural.predict(sentiment[domain], X).argmax(axis=1)
        truth = np.array([domains.POLARITIES.index(r.label) for r in recs])
        assert float(np.mean(pred == truth)) > 1 / 3


def test_sentiment_training_requires_min_sentences(small_gen, encoder, monkeypatch):
    # every domain is checked before any model trains
    def no_training(*args, **kwargs):
        raise AssertionError("a model trained before every domain was checked")
    monkeypatch.setattr(neural, "train_mlp", no_training)
    # a domain absent from the seed file is reported by name
    records = [domains.SeedRecord("Mood", "Feels sad today.", "negative")] * 60
    with pytest.raises(ConfigError, match="Appearance"):
        train_sentiment_models(records, encoder)
    # a present but undersized domain is reported by name too, even the last one
    config, _, _ = small_gen
    full = syngen.make_sentiment_seed(config, 700)
    thinned = [r for r in full if r.domain != "Mood"] + \
              [r for r in full if r.domain == "Mood"][:10]
    with pytest.raises(ConfigError, match="Mood"):
        train_sentiment_models(thinned, encoder)
    one_sided = [r for r in full if r.domain != "Mood" or r.label != "negative"]
    with pytest.raises(ConfigError, match="Mood is missing"):
        train_sentiment_models(one_sided, encoder)


def test_sentiment_training_deterministic(small_gen, encoder):
    config, _, _ = small_gen
    cfg = TrainConfig(learning_rate=0.15, batch_size=32, epochs=3, patience=3, seed=5)
    seed_records = syngen.make_sentiment_seed(config, 700)
    m1 = train_sentiment_models(seed_records, encoder, cfg)["Mood"]
    m2 = train_sentiment_models(seed_records, encoder, cfg)["Mood"]
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)


SHORT_SENTIMENT_CONFIG = TrainConfig(learning_rate=0.15, batch_size=32, epochs=3, patience=3,
                                     seed=5)


def _model_bytes(models, directory) -> dict[str, bytes]:
    """Each model's saved file, written under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for domain, model in models.items():
        path = directory / f"{domain}.json"
        neural.save_mlp(model, path)
        out[domain] = path.read_bytes()
    return out


def test_pooled_sentiment_models_match_in_process_training(small_gen, encoder, tmp_path):
    # the reference: neural.train_mlp in this process on each domain's rows
    config, _, _ = small_gen
    records = syngen.make_sentiment_seed(config, 700)
    pooled = train_sentiment_models(records, encoder, SHORT_SENTIMENT_CONFIG)
    assert multiprocessing.active_children() == []
    spec = MLPSpec(input_dim=encoder.dim, hidden_sizes=(256, 64), activation="relu",
                   dropout_rate=domains.SENTIMENT_DROPOUT, output_kind="softmax", n_outputs=3)
    reference = {}
    for domain in RISK_DOMAINS:
        recs = [r for r in records if r.domain == domain]
        X = neural.encode_rows(encoder, [textproc.tokenize(r.text) for r in recs])
        Y = np.eye(3)[[domains.POLARITIES.index(r.label) for r in recs]]
        reference[domain] = neural.train_mlp(spec, X, Y, SHORT_SENTIMENT_CONFIG)
    assert list(pooled) == list(RISK_DOMAINS)
    assert _model_bytes(pooled, tmp_path / "pooled") == _model_bytes(reference, tmp_path / "ref")


# Trains in a child interpreter held to one CPU, so the models come from
# one in-process loop, and saves them under argv[2].
_ONE_CPU_SCRIPT = textwrap.dedent("""
    import os, sys
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from readmit import domains, neural, pool
    from readmit.neural import HashingEncoder, TrainConfig
    assert pool.usable_cpus() == 1
    config = TrainConfig(learning_rate=0.15, batch_size=32, epochs=3, patience=3, seed=5)
    models = domains.train_sentiment_models(domains.read_seed_file(sys.argv[1]),
                                            HashingEncoder(), config)
    for domain, model in models.items():
        neural.save_mlp(model, os.path.join(sys.argv[2], domain + ".json"))
""")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_sentiment_models_do_not_depend_on_cpu_count(small_gen, encoder, tmp_path):
    config, _, _ = small_gen
    records = syngen.make_sentiment_seed(config, 700)
    seed_file = tmp_path / "seed.jsonl"
    domains.write_seed_file(records, seed_file)
    (tmp_path / "one_cpu").mkdir()
    pooled = _model_bytes(train_sentiment_models(records, encoder, SHORT_SENTIMENT_CONFIG),
                          tmp_path / "pooled")
    src = str(Path(domains.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _ONE_CPU_SCRIPT, str(seed_file),
                             str(tmp_path / "one_cpu")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    one_cpu = {d: (tmp_path / "one_cpu" / f"{d}.json").read_bytes() for d in RISK_DOMAINS}
    assert one_cpu == pooled


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sentiment_divergence_reaches_caller(small_gen, encoder):
    config, _, _ = small_gen
    records = syngen.make_sentiment_seed(config, 700)
    with pytest.raises(TrainingDivergedError):
        train_sentiment_models(records, encoder, replace(SHORT_SENTIMENT_CONFIG,
                                                         learning_rate=1e3))
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sentiment_transport_leaves_no_files(small_gen, encoder, tmp_path, monkeypatch):
    # the models come back through a temporary directory, removed on success and on failure
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    config, _, _ = small_gen
    records = syngen.make_sentiment_seed(config, 700)
    models = train_sentiment_models(records, encoder, SHORT_SENTIMENT_CONFIG)
    assert list(models) == list(RISK_DOMAINS)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(TrainingDivergedError):
        train_sentiment_models(records, encoder, replace(SHORT_SENTIMENT_CONFIG,
                                                         learning_rate=1e3))
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_sentiment_training_inside_a_pool_worker(small_gen, encoder, tmp_path):
    # a pool worker is daemonic and may not fork; its sentiment models train in-process
    config, _, _ = small_gen
    records = syngen.make_sentiment_seed(config, 700)
    direct = _model_bytes(train_sentiment_models(records, encoder, SHORT_SENTIMENT_CONFIG),
                          tmp_path)
    nested = pool.map_jobs(
        lambda i: _model_bytes(train_sentiment_models(records, encoder, SHORT_SENTIMENT_CONFIG),
                               tmp_path / str(i)),
        2, workers=2)
    assert nested == [direct, direct]
    assert multiprocessing.active_children() == []


def test_summarize_lexicon_mode_matches_truth(small_gen, encoder):
    # The lexicon oracle that criterion 6 uses gives the planted fractions,
    # and so do weak_label's targets for the same admission.
    _, corpus, truth = small_gen
    lex = default_lexicon()
    for admission in corpus.admissions[:8]:
        rec = truth.records[admission.admission_id]
        fractions = lexicon_sentence_fractions(admission, lex)
        _, Y = weak_label(Corpus(patients=(), admissions=(admission,)), lex, encoder)
        for j, domain in enumerate(RISK_DOMAINS):
            expected = rec.domain_sentence_counts[domain] / rec.n_sentences
            assert fractions[domain] == expected
            assert float(Y[:, j].sum()) / len(Y) == expected


def test_summarize_note_order_invariant(small_gen, encoder, trained_pipeline):
    from dataclasses import replace
    _, corpus, _ = small_gen
    topic, sentiment, _ = trained_pipeline
    admission = corpus.admissions[0]
    reversed_adm = replace(admission, notes=tuple(reversed(admission.notes)))
    # A float32 matrix product's row can depend on the row's position in
    # the batch, so reordering notes moves float32 scores by a few eps.
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        topic_d = mlp_as_dtype(topic, dtype)
        sentiment_d = {d: mlp_as_dtype(m, dtype) for d, m in sentiment.items()}
        a = summarize_admission(admission, topic_d, sentiment_d, encoder)
        b = summarize_admission(reversed_adm, topic_d, sentiment_d, encoder)
        for domain in RISK_DOMAINS:
            assert a.sentence_fraction[domain] == b.sentence_fraction[domain]
            assert a.sentiment_score[domain] == pytest.approx(b.sentiment_score[domain],
                                                              abs=tol)


def _fidelity(summaries, truth) -> float:
    """Mean Pearson r of the 14 per-domain summary values against planted
    truth, a constant side counting as 0."""
    recs = [truth.records[aid] for aid in summaries]
    rs = []
    for d in RISK_DOMAINS:
        pairs = (([s.sentence_fraction[d] for s in summaries.values()],
                  [r.domain_sentence_counts[d] / r.n_sentences for r in recs]),
                 ([s.sentiment_score[d] for s in summaries.values()],
                  [r.domain_sentiment[d] for r in recs]))
        for got, planted in pairs:
            if np.ptp(got) == 0 or np.ptp(planted) == 0:
                rs.append(0.0)
            else:
                rs.append(float(np.corrcoef(got, planted)[0, 1]))
    return float(np.mean(rs))


def test_float32_models_agree_with_float64(small_gen, encoder, trained_pipeline):
    """The float32 NLP models against float64 twins trained on the same
    rows, the twins' inputs encoded in float64 without rounding."""
    config, corpus, truth = small_gen
    topic32, sentiment32, _ = trained_pipeline
    token_lists = [s.tokens for a in corpus.admissions for n in a.notes
                   for s in textproc.split_sentences(n.text)]
    X32, Y = weak_label(corpus, default_lexicon(), encoder)
    X64 = np.stack([encoder(t) for t in token_lists])
    test_idx, train_idx = _topic_split(len(X32))
    topic64 = train_topic_model(X64[train_idx], Y[train_idx])
    assert topic32.weights[0].dtype == np.float32 and topic64.weights[0].dtype == np.float64
    tags32 = domains.predict_domains(topic32, X32[test_idx])
    tags64 = domains.predict_domains(topic64, X64[test_idx])
    assert float(np.mean(tags32 == tags64)) >= 0.99

    # train_sentiment_models encodes in float32, so the float64 twins are
    # trained here with the same specs, rows, targets and config.
    records = syngen.make_sentiment_seed(config, 700)
    held_out = syngen.make_sentiment_seed(
        syngen.GenConfig(seed=config.seed + 1, n_patients=config.n_patients), 350)
    sentiment64, agree = {}, []
    for domain in RISK_DOMAINS:
        recs = [r for r in records if r.domain == domain]
        X = np.stack([encoder(textproc.tokenize(r.text)) for r in recs])
        Y = np.eye(3)[[domains.POLARITIES.index(r.label) for r in recs]]
        sentiment64[domain] = neural.train_mlp(sentiment32[domain].spec, X, Y,
                                               PIPELINE_SENTIMENT_CONFIG)
        tokens = [textproc.tokenize(r.text) for r in held_out if r.domain == domain]
        pred32 = neural.predict(sentiment32[domain], neural.encode_rows(encoder, tokens))
        pred64 = neural.predict(sentiment64[domain], np.stack([encoder(t) for t in tokens]))
        agree.extend(pred32.argmax(axis=1) == pred64.argmax(axis=1))
    assert float(np.mean(agree)) >= 0.98

    # summarize_admission encodes in float32; the float64 models read those
    # rows widened back to float64.
    fid32 = _fidelity({a.admission_id: summarize_admission(a, topic32, sentiment32, encoder)
                       for a in corpus.admissions}, truth)
    fid64 = _fidelity({a.admission_id: summarize_admission(a, topic64, sentiment64, encoder)
                       for a in corpus.admissions}, truth)
    assert abs(fid32 - fid64) < 0.01


def test_summarize_ranges(small_gen, encoder, trained_pipeline):
    _, corpus, _ = small_gen
    topic, sentiment, _ = trained_pipeline
    for admission in corpus.admissions[:6]:
        s = summarize_admission(admission, topic, sentiment, encoder)
        for domain in RISK_DOMAINS:
            assert 0.0 <= s.sentence_fraction[domain] <= 1.0
            assert -1.0 <= s.sentiment_score[domain] <= 1.0
