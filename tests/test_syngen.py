import numpy as np
import pytest

from readmit import corpus as corpus_mod
from readmit import domains, evaluate, syngen, textproc
from readmit.errors import ConfigError
from readmit.syngen import (ADVERBIALS, EFFECT_NAMES, FILLER_SENTENCES, GenConfig,
                            _SHAPES, _TemplateFiller, generate,
                            generate_with_truth,
                            make_sentiment_seed, paper_scale_config)

from helpers import brute_force_auc, reference_realize_labels


def test_same_seed_byte_identical(tmp_path):
    config = GenConfig(seed=99, n_patients=6, tokens_per_note=(40, 80))
    a = generate(config)
    b = generate(config)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    corpus_mod.write_corpus(a, pa)
    corpus_mod.write_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seed_differs(tmp_path):
    base = GenConfig(seed=1, n_patients=6, tokens_per_note=(40, 80))
    other = GenConfig(seed=2, n_patients=6, tokens_per_note=(40, 80))
    a, b = generate(base), generate(other)
    assert a != b


@pytest.mark.parametrize("kwargs", [
    {"target_readmission_rate": 0.0},
    {"target_readmission_rate": 1.5},
    {"n_patients": 0},
    {"admissions_per_patient": (5, 2)},
    {"notes_per_admission": (0, 3)},
    {"effect_weights": {"bogus_effect": 1.0}},
    {"noise_sd": -1.0},
    {"missing_field_rate": 1.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        GenConfig(**kwargs).validate()


def test_generated_corpus_validates(small_gen):
    _, corpus, _ = small_gen
    corpus_mod.validate_corpus(corpus)


def test_derive_labels_reproduces_planted(small_gen):
    _, corpus, truth = small_gen
    derived = corpus_mod.derive_labels(corpus)
    for a in derived.admissions:
        assert a.label_readmitted_30d == truth.records[a.admission_id].label


def test_paper_scale_statistics():
    corpus = generate(paper_scale_config(seed=606))
    stats = corpus_mod.corpus_stats(corpus_mod.derive_labels(corpus))
    assert stats.n_patients == 183
    assert abs(stats.n_admissions - 552) <= 60
    assert 0.45 <= stats.readmission_rate <= 0.55
    assert abs(stats.mean_tokens_per_note - 1011) / 1011 <= 0.10
    assert abs(stats.mean_notes_per_admission - 4.25) / 4.25 <= 0.10
    assert abs(stats.mean_tokens_per_admission - 4298) / 4298 <= 0.10


def test_ground_truth_matches_corpus(small_gen):
    config, corpus, truth = small_gen
    again_corpus, again = generate_with_truth(config)
    assert again_corpus == corpus
    assert again.records.keys() == truth.records.keys()
    for aid, rec in truth.records.items():
        assert again.records[aid] == rec


@pytest.mark.parametrize("overrides", [
    {},
    # Mapping order differs from EFFECT_NAMES, so summing in another order shows.
    {"effect_weights": {"negative_mood_sentiment": 1.6, "poor_insight": 0.9,
                        "past_readmission_ratio": 0.6}},
    {"noise_sd": 0.0},
    {"admissions_per_patient": (1, 1)},
    {"admissions_per_patient": (2, 21), "n_patients": 150},
])
def test_realize_labels_matches_reference_loop(overrides):
    config = GenConfig(**{"seed": 41, "n_patients": 40, **overrides})
    patients = [syngen._draw_patient_latent(config, i) for i in range(config.n_patients)]
    inputs = syngen._label_inputs(patients)
    n_adm = [len(p.admissions) for p in patients]
    assert inputs.present.sum(axis=1).tolist() == n_adm
    for intercept in (-15.0, 0.0, 15.0, syngen._calibrate_intercept(config, inputs)):
        labels, props, signals = syngen._realize_labels(config, inputs, intercept)
        ref_labels, ref_props, ref_signals = reference_realize_labels(config, patients, intercept)
        assert not labels[~inputs.present].any()
        for i, n in enumerate(n_adm):
            assert labels[i, :n].tolist() == ref_labels[i]
            assert props[i, :n].tolist() == ref_props[i]
            for j in range(n):
                assert {k: float(signals[k][i, j]) for k in EFFECT_NAMES} == ref_signals[i][j]


def test_planted_poor_insight_signal(small_gen):
    _, _, truth = small_gen
    seen = 0
    for rec in truth.records.values():
        if rec.fields["insight"] == "Poor":
            assert rec.signals["poor_insight"] == 1.0
            seen += 1
    assert seen > 0


def test_propensities_within_logistic_bounds(small_gen):
    _, _, truth = small_gen
    for rec in truth.records.values():
        assert 0.0 < rec.propensity < 1.0


def test_propensity_ranking_equals_bayes_auc(small_gen):
    _, _, truth = small_gen
    labels = np.array([r.label for r in truth.records.values()], dtype=float)
    props = np.array([r.propensity for r in truth.records.values()])
    auc = evaluate.auc_score(labels, props)
    assert auc == pytest.approx(brute_force_auc(labels, props), abs=1e-12)


def test_planted_monotonicity():
    def corr_for(weight):
        weights = dict(syngen.DEFAULT_EFFECT_WEIGHTS)
        weights["poor_insight"] = weight
        config = GenConfig(seed=37, n_patients=170, tokens_per_note=(30, 60),
                           notes_per_admission=(2, 3), effect_weights=weights)
        _, truth = generate_with_truth(config)
        recs = list(truth.records.values())
        assert len(recs) >= 500
        signal = np.array([r.signals["poor_insight"] for r in recs])
        label = np.array([1.0 if r.label else 0.0 for r in recs])
        return float(np.corrcoef(signal, label)[0, 1])

    assert corr_for(2.5) >= corr_for(0.3)


def test_sentence_counts_match_splitter(small_gen):
    _, corpus, truth = small_gen
    for a in corpus.admissions:
        rec = truth.records[a.admission_id]
        for note, expected in zip(a.notes, rec.sentences_per_note):
            assert len(textproc.split_sentences(note.text)) == expected


def test_lexicon_mode_counts_match_truth(small_gen):
    lex = domains.default_lexicon()
    _, corpus, truth = small_gen
    for a in corpus.admissions:
        rec = truth.records[a.admission_id]
        counts = {d: 0 for d in domains.RISK_DOMAINS}
        total = 0
        for note in a.notes:
            for s in textproc.split_sentences(note.text):
                total += 1
                for d in lex.match(s):
                    counts[d] += 1
        assert total == rec.n_sentences
        assert counts == rec.domain_sentence_counts


def test_template_pool_size_and_domain_purity():
    # The pools the generator draws from: a sentence of one domain and
    # polarity is a shape of that polarity filled with one of the domain's
    # keywords; filler sentences name no domain.
    lex = domains.default_lexicon()
    filler = _TemplateFiller(lex)
    for polarity in ("positive", "neutral", "negative"):
        assert len(_SHAPES[polarity]) >= 20
    assert len(FILLER_SENTENCES) >= 20

    rng = np.random.default_rng(0)
    for domain in domains.RISK_DOMAINS:
        assert filler.kw[domain]
        for polarity, shapes in _SHAPES.items():
            for si in range(len(shapes)):
                for ki in range(len(filler.kw[domain])):
                    ai = int(rng.integers(0, len(ADVERBIALS)))
                    text, count = filler.render(domain, polarity, si, ki, ai)
                    tokens = textproc.tokenize(text)
                    assert lex.match(tokens) == {domain}
                    assert count == len(tokens)
    for sentence in FILLER_SENTENCES:
        assert lex.match(textproc.tokenize(sentence)) == frozenset()


def test_extraction_recovers_planted_fields(small_gen):
    _, corpus, truth = small_gen
    for a in corpus.admissions:
        rec = truth.records[a.admission_id]
        sf = textproc.resolve_admission_fields(a.notes)
        assert sf.gaf_admission == rec.fields["gaf_admission"]
        assert sf.gaf_discharge == rec.fields["gaf_discharge"]
        assert sf.insight == rec.fields["insight"]
        assert sf.compliance == rec.fields["compliance"]
        assert sf.estimated_los_days == rec.fields["estimated_los_days"]


def test_sentiment_seed_composition():
    config = GenConfig(seed=5)
    records = make_sentiment_seed(config)
    assert len(records) == 3500
    by_domain = {d: 0 for d in domains.RISK_DOMAINS}
    for r in records:
        by_domain[r.domain] += 1
        assert r.label in ("positive", "neutral", "negative")
    assert all(count >= 50 for count in by_domain.values())
    assert records == make_sentiment_seed(config)


def test_make_seed_validation():
    with pytest.raises(ConfigError):
        make_sentiment_seed(GenConfig(seed=1), 0)
