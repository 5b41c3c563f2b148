"""Risk-factor domain pipeline: weak labeling, topic and sentiment models,
and aggregation of per-sentence outputs to admission-level features.

Sentences are tagged with zero or more of seven risk-factor domains, either
by multiword-expression lexicon matching (weak labels) or by a trained
multi-label topic model. Tagged sentences get a per-domain sentiment
distribution over (positive, neutral, negative), collapsed to a scalar in
[-1, 1] and averaged sentence -> note -> admission.
"""

import json
import os
import tempfile
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping, Optional, Sequence

import numpy as np

from . import neural, pool, textproc
from .errors import ConfigError, DataError, open_text
from .neural import HashingEncoder, MLPModel, MLPSpec, TrainConfig
from .seeding import derive_seed

RISK_DOMAINS = (
    "Appearance",
    "ThoughtProcess",
    "ThoughtContent",
    "Interpersonal",
    "SubstanceUse",
    "Occupation",
    "Mood",
)
DOMAIN_INDEX = {d: i for i, d in enumerate(RISK_DOMAINS)}

_DOMAIN_KEYS = {
    "Appearance": "appearance",
    "ThoughtProcess": "thought_process",
    "ThoughtContent": "thought_content",
    "Interpersonal": "interpersonal",
    "SubstanceUse": "substance_use",
    "Occupation": "occupation",
    "Mood": "mood",
}

POLARITIES = ("positive", "neutral", "negative")


def domain_key(domain: str) -> str:
    """snake_case form used in feature/file names."""
    return _DOMAIN_KEYS[domain]


class Lexicon:
    """Per-domain keyword and multiword-expression patterns.

    A pattern is a tuple of tokens; it matches a sentence iff it occurs as
    a contiguous token subsequence. Sentences are ``textproc.tokenize``
    output, so a pattern that is not the tokenization of its own
    space-joined text (``("Depressed", "mood")``) is a ConfigError.
    """

    def __init__(self, patterns: Mapping[str, Sequence[tuple[str, ...]]]):
        missing = [d for d in RISK_DOMAINS if d not in patterns]
        if missing:
            raise ConfigError(f"lexicon missing domains: {missing}")
        unknown = [d for d in patterns if d not in RISK_DOMAINS]
        if unknown:
            raise ConfigError(f"lexicon has unknown domains: {unknown}")
        self.patterns: dict[str, tuple[tuple[str, ...], ...]] = {}
        for domain in RISK_DOMAINS:
            pats = [tuple(p) for p in patterns[domain]]
            if not pats:
                raise ConfigError(f"lexicon domain {domain} has no patterns")
            if len(set(pats)) != len(pats):
                raise ConfigError(f"lexicon domain {domain} has duplicate patterns")
            if any(len(p) == 0 for p in pats):
                raise ConfigError(f"lexicon domain {domain} has an empty pattern")
            for p in pats:
                if tuple(textproc.tokenize(" ".join(p))) != p:
                    raise ConfigError(f"lexicon domain {domain}: pattern {p!r} is not the "
                                      "tokenization of its own text, so it cannot match")
            self.patterns[domain] = tuple(pats)
        # index patterns by first token for fast matching
        self._by_first: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for domain, pats in self.patterns.items():
            for p in pats:
                self._by_first.setdefault(p[0], []).append((domain, p))

    def match(self, tokens: Sequence[str]) -> frozenset[str]:
        found: set[str] = set()
        n = len(tokens)
        for i, tok in enumerate(tokens):
            for domain, pat in self._by_first.get(tok, ()):
                if domain in found:
                    continue
                k = len(pat)
                if i + k <= n and tuple(tokens[i:i + k]) == pat:
                    found.add(domain)
        return frozenset(found)


def _parse_lexicon(text: str, source) -> Lexicon:
    """The Lexicon in a lexicon file's text: a JSON map domain -> array of
    patterns, each tokenized like note text. Errors name ``source``."""
    try:
        raw = json.loads(text)
    except ValueError as e:
        raise ConfigError(f"{source}: lexicon file is not JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: lexicon file must be a JSON object")
    for domain, pats in raw.items():
        if not isinstance(pats, list) or not all(isinstance(p, str) for p in pats):
            raise ConfigError(f"{source}: lexicon domain {domain!r} must be an array of strings")
    try:
        return Lexicon({d: [tuple(textproc.tokenize(p)) for p in pats] for d, pats in raw.items()})
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from None


def load_lexicon(path) -> Lexicon:
    """Lexicon file: JSON map domain -> array of patterns, tokenized like note text."""
    with open_text(path, ConfigError) as fh:
        return _parse_lexicon(fh.read(), path)


_DEFAULT_LEXICON: Optional[Lexicon] = None


def default_lexicon() -> Lexicon:
    global _DEFAULT_LEXICON
    if _DEFAULT_LEXICON is None:
        resource = resources.files("readmit.resources").joinpath("lexicon.json")
        _DEFAULT_LEXICON = _parse_lexicon(resource.read_text("utf-8"), resource)
    return _DEFAULT_LEXICON


def _corpus_sentences(corpus) -> list[list[str]]:
    """Every sentence of the corpus as a token list, note by note in corpus order."""
    return [tokens for admission in corpus.admissions for note in admission.notes
            for tokens in textproc.split_sentences(note.text)]


def weak_label(corpus, lexicon: Lexicon, encoder: HashingEncoder):
    """(vectors, multi-hot domain targets) for every sentence in the corpus.

    Sentences matching no pattern are kept as all-zero targets. Both arrays
    are float32, so the topic model trains in single precision.
    """
    return _weak_label_sentences(_corpus_sentences(corpus), lexicon, encoder)


def _weak_label_sentences(token_lists, lexicon: Lexicon, encoder: HashingEncoder):
    Y = np.zeros((len(token_lists), len(RISK_DOMAINS)), dtype=np.float32)
    for i, tokens in enumerate(token_lists):
        for d in lexicon.match(tokens):
            Y[i, DOMAIN_INDEX[d]] = 1.0
    return neural.encode_rows(encoder, token_lists), Y


# The topic model holds out a random 10% of its training sentences and stops
# 5 epochs after its held-out micro-F1 last gained, or at the 40-epoch cap.
DEFAULT_TOPIC_CONFIG = TrainConfig(learning_rate=0.3, batch_size=128, epochs=40, patience=5,
                                   validation_fraction=0.1)
# Roughly how many parameter updates the default topic cap allows on a
# corpus-sized dataset; small datasets get their epoch cap scaled up to
# match it (40 epochs over ~10k sentences).
_TOPIC_TARGET_UPDATES = 3200
# Sentiment models train on little data; two hidden layers with heavy
# dropout keep them from memorizing it. They hold out no validation slice
# (10% of a domain's records can be as few as 8), so they run all 200 epochs.
SENTIMENT_DROPOUT = 0.75
DEFAULT_SENTIMENT_CONFIG = TrainConfig(learning_rate=0.15, batch_size=32, epochs=200)
MIN_SENTENCES_PER_DOMAIN = 50


def topic_config(n_rows: int, seed: int = 0) -> TrainConfig:
    """The default topic config for a training set of ``n_rows`` sentences.

    The epoch cap scales up on small datasets so the update count it allows
    stays near the corpus-scale default; patience and the validation slice
    stay the default's, so training still stops at a validation plateau.
    """
    base = DEFAULT_TOPIC_CONFIG
    batch_size = base.batch_size if n_rows >= 4000 else 32
    batches = max(1, -(-n_rows // batch_size))
    epochs = int(np.clip(-(-_TOPIC_TARGET_UPDATES // batches), base.epochs, 400))
    return replace(base, batch_size=batch_size, epochs=epochs, seed=seed)


def train_topic_model(X: np.ndarray, Y: np.ndarray, config: Optional[TrainConfig] = None,
                      rows=None) -> MLPModel:
    """Multi-label topic MLP (sigmoid over the seven domains), trained on
    ``rows`` of (X, Y), read in place; on every row by default.

    Without an explicit config it trains with ``topic_config`` of the row
    count. A DataError names the topic model and the row count, such as when
    too few rows are left to train on after the validation slice.
    """
    n = len(X) if rows is None else len(rows)
    try:
        return neural.train_mlp(_topic_spec(X.shape[1]), X, Y, config or topic_config(n), rows)
    except DataError as e:
        raise DataError(f"cannot train the topic model on {n} training sentences: {e}") from None


def _topic_spec(input_dim: int) -> MLPSpec:
    return MLPSpec(input_dim=input_dim, hidden_sizes=(256, 64), activation="relu",
                   dropout_rate=0.0, output_kind="sigmoid", n_outputs=len(RISK_DOMAINS))


def predict_domains(model: MLPModel, X: np.ndarray) -> np.ndarray:
    """Boolean (n, 7) matrix of per-domain decisions at threshold 0.5."""
    return neural.predict(model, X) >= 0.5


@dataclass(frozen=True)
class SeedRecord:
    domain: str
    text: str
    label: str  # positive | neutral | negative


def read_seed_file(path) -> list[SeedRecord]:
    records = []
    with open_text(path, DataError) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rec = SeedRecord(domain=obj["domain"], text=obj["text"], label=obj["label"])
            except json.JSONDecodeError as e:
                raise DataError(f"{path} line {lineno}: not JSON ({e})") from None
            except (KeyError, TypeError) as e:  # not an object, or a key missing
                raise DataError(f"{path} line {lineno}: not a seed record ({e!r})") from None
            if not isinstance(rec.text, str):
                raise DataError(f"{path} line {lineno}: text {rec.text!r} is not a string")
            if rec.domain not in RISK_DOMAINS:
                raise DataError(f"{path} line {lineno}: unknown domain {rec.domain!r}")
            if rec.label not in POLARITIES:
                raise DataError(f"{path} line {lineno}: unknown label {rec.label!r}")
            records.append(rec)
    return records


def write_seed_file(records: Sequence[SeedRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(json.dumps({"domain": r.domain, "text": r.text, "label": r.label},
                                ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def train_sentiment_models(records: Sequence[SeedRecord], encoder: HashingEncoder,
                           config: Optional[TrainConfig] = None) -> dict[str, MLPModel]:
    """One 3-class sentiment MLP per domain, trained only on its sentences.

    Every domain is checked before any model trains. The models train on a
    process pool, one job per domain, on every CPU this process may use;
    each is the model ``neural.train_mlp`` makes in-process from its rows,
    whatever the number of workers.
    """
    config = config or DEFAULT_SENTIMENT_CONFIG
    by_domain: dict[str, list[SeedRecord]] = {d: [] for d in RISK_DOMAINS}
    for r in records:
        by_domain[r.domain].append(r)
    for domain, recs in by_domain.items():
        if len(recs) < MIN_SENTENCES_PER_DOMAIN:
            raise ConfigError(
                f"domain {domain} has {len(recs)} labeled sentences; "
                f"need at least {MIN_SENTENCES_PER_DOMAIN}"
            )
        if {r.label for r in recs} != set(POLARITIES):
            raise ConfigError(f"domain {domain} is missing at least one polarity")
    data = []
    for recs in by_domain.values():
        X = neural.encode_rows(encoder, [textproc.tokenize(r.text) for r in recs])
        Y = np.zeros((len(recs), 3))
        for i, r in enumerate(recs):
            Y[i, POLARITIES.index(r.label)] = 1.0
        data.append((X, Y))
    spec = MLPSpec(
        input_dim=encoder.dim, hidden_sizes=(256, 64), activation="relu",
        dropout_rate=SENTIMENT_DROPOUT, output_kind="softmax", n_outputs=3,
    )

    # Each job saves its model to a file and returns nothing; the parent loads
    # the files. Models do not come back pickled: arrays unpickled on the pool's
    # result thread stay in that thread's heap arena after the pool closes, so
    # memory grows pass after pass.
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{domain}.json") for domain in RISK_DOMAINS]
        pool.map_jobs(lambda i: neural.save_mlp(neural.train_mlp(spec, *data[i], config), paths[i]),
                      len(RISK_DOMAINS), pool.usable_cpus())
        return {domain: neural.load_mlp(path) for domain, path in zip(RISK_DOMAINS, paths)}


@dataclass(frozen=True)
class NlpModels:
    """Trained NLP models. ``metrics`` is JSON-ready: ``topic_micro_f1`` on the
    held-out sentences, ``topic_micro_f1_unseen`` on those of them that do not
    occur verbatim among the topic training sentences (None when there are
    none), ``topic_training`` (epochs run, best epoch, epoch cap and best
    validation micro-F1, None without a validation slice) and, per domain,
    ``sentiment_accuracy``, None when none of its seed records was held out,
    and ``sentiment_training``: training rows, epochs run, final loss and
    ``first_layer``, how ``neural.train_mlps`` trained that layer."""

    topic: MLPModel
    sentiment: dict[str, MLPModel]
    metrics: dict


def _holdout(n: int, fraction: float, seed: int, label: str):
    """(held-out, training) indices: the first round(fraction * n), at least
    one, of a permutation seeded by ``seed`` and ``label``."""
    order = np.random.default_rng(derive_seed(seed, label)).permutation(n)
    n_test = max(1, int(round(fraction * n)))
    return order[:n_test], order[n_test:]


def train_nlp(corpus, records: Sequence[SeedRecord], lexicon: Lexicon, seed: int = 0,
              holdout: float = 0.2, topic_epochs: Optional[int] = None,
              sentiment_epochs: Optional[int] = None) -> NlpModels:
    """The topic model trained on the corpus's weak labels and the sentiment models
    on the seed records, each scored on a seeded held-out fraction. The configs are
    the defaults with ``seed``: the topic model's ``topic_config``, whose epoch count
    is a cap, since it stops at a validation plateau. ``topic_epochs`` sets only
    that cap; ``sentiment_epochs`` sets only the sentiment models' epochs."""
    if not 0.0 < holdout < 1.0:
        raise ConfigError(f"config key 'holdout_fraction' must lie in (0, 1), got {holdout}")
    for key, epochs in (("topic_epochs", topic_epochs), ("sentiment_epochs", sentiment_epochs)):
        if epochs is not None and epochs < 1:
            raise ConfigError(f"config key {key!r} must be positive, got {epochs}")
    encoder = HashingEncoder()

    sentences = _corpus_sentences(corpus)
    X, Y = _weak_label_sentences(sentences, lexicon, encoder)
    test_idx, train_idx = _holdout(len(X), holdout, seed, "topic-holdout")
    topic_cfg = topic_config(len(train_idx), seed=seed)
    if topic_epochs is not None:
        topic_cfg = replace(topic_cfg, epochs=topic_epochs)
    topic = train_topic_model(X, Y, topic_cfg, train_idx)
    pred = predict_domains(topic, X[test_idx])
    truth = Y[test_idx] > 0.5
    micro_f1 = neural.f1_score(truth.ravel(), pred.ravel())
    seen = {tuple(sentences[i]) for i in train_idx}
    unseen = np.array([tuple(sentences[i]) not in seen for i in test_idx], dtype=bool)
    micro_f1_unseen = (neural.f1_score(truth[unseen].ravel(), pred[unseen].ravel())
                       if unseen.any() else None)
    topic_training = {"epochs_run": topic.epochs_run, "best_epoch": topic.best_epoch,
                      "epoch_cap": topic_cfg.epochs,
                      "best_validation_micro_f1": (topic.validation_scores[topic.best_epoch]
                                                   if topic.validation_scores else None)}

    sent_cfg = replace(DEFAULT_SENTIMENT_CONFIG, seed=seed)
    if sentiment_epochs is not None:
        sent_cfg = replace(sent_cfg, epochs=sentiment_epochs)
    test_idx, train_idx = _holdout(len(records), holdout, seed, "sent-holdout")
    sentiment = train_sentiment_models([records[i] for i in train_idx], encoder, sent_cfg)
    accuracy: dict[str, Optional[float]] = {}
    training: dict[str, dict] = {}
    for domain in RISK_DOMAINS:
        model = sentiment[domain]
        n_train = sum(records[i].domain == domain for i in train_idx)
        training[domain] = {"training_rows": n_train, "epochs_run": model.epochs_run,
                            "final_loss": model.final_loss,
                            "first_layer": neural.first_layer(model.spec, sent_cfg, n_train)}
        recs = [records[i] for i in test_idx if records[i].domain == domain]
        if not recs:
            accuracy[domain] = None
            continue
        X_d = neural.encode_rows(encoder, [textproc.tokenize(r.text) for r in recs])
        pred_pol = np.argmax(neural.predict(sentiment[domain], X_d), axis=1)
        true_pol = np.array([POLARITIES.index(r.label) for r in recs])
        accuracy[domain] = float(np.mean(pred_pol == true_pol))
    return NlpModels(topic, sentiment,
                     {"topic_micro_f1": micro_f1, "topic_micro_f1_unseen": micro_f1_unseen,
                      "topic_training": topic_training, "sentiment_accuracy": accuracy,
                      "sentiment_training": training})


def scalar_sentiment(dist):
    """Collapse (p_pos, p_neutral, p_neg) to p_pos - p_neg in [-1, 1].

    One distribution gives a float; an (n, 3) block gives an array of n.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim not in (1, 2) or dist.shape[-1] != 3:
        raise DataError(f"sentiment distribution must have 3 entries, got shape {dist.shape}")
    bad = np.any(dist < -1e-9, axis=-1) | (np.abs(dist.sum(axis=-1) - 1.0) > 1e-6)
    if np.any(bad):
        first = dist if dist.ndim == 1 else dist[np.argmax(bad)]
        raise DataError(f"not a probability distribution: {first.tolist()}")
    scores = dist[..., 0] - dist[..., 2]
    return float(scores) if dist.ndim == 1 else scores


@dataclass(frozen=True)
class AdmissionDomainSummary:
    """Per-domain sentence fraction in [0, 1] and sentiment score in [-1, 1].

    Domains with no tagged sentence in the admission get (0.0, 0.0).
    """

    sentence_fraction: dict[str, float]
    sentiment_score: dict[str, float]


def summarize_admission(admission, topic_model: MLPModel,
                        sentiment_models: Mapping[str, MLPModel],
                        encoder: HashingEncoder) -> AdmissionDomainSummary:
    """Tag every sentence and aggregate per-domain signals.

    Sentences are tagged by the topic model at threshold 0.5. Per note, a
    domain's score is the mean scalar sentiment over that note's sentences
    tagged with the domain; the admission score is the mean of per-note
    scores over notes with at least one such sentence.
    """
    sents_per_note = [textproc.split_sentences(n.text) for n in admission.notes]
    all_sents = [s for sents in sents_per_note for s in sents]
    if not all_sents:
        zeros = {d: 0.0 for d in RISK_DOMAINS}
        return AdmissionDomainSummary(dict(zeros), dict(zeros))

    note_of = np.repeat(np.arange(len(sents_per_note)), [len(s) for s in sents_per_note])
    vectors = neural.encode_rows(encoder, all_sents)
    tagged = predict_domains(topic_model, vectors)
    sentiments = {}
    for j, domain in enumerate(RISK_DOMAINS):
        rows = np.flatnonzero(tagged[:, j])
        if len(rows):
            sentiments[domain] = scalar_sentiment(
                neural.predict(sentiment_models[domain], vectors[rows]))
    return aggregate_admission(tagged, sentiments, note_of, len(sents_per_note))


def aggregate_admission(tagged: np.ndarray, sentiments: Mapping[str, np.ndarray],
                        note_of: np.ndarray, n_notes: int) -> AdmissionDomainSummary:
    """Two-stage aggregation: sentence -> note mean -> admission mean.

    ``tagged`` is a boolean (n_sentences, 7) matrix; ``sentiments[domain]``
    holds scalar sentiments for the rows tagged with that domain, in row
    order; ``note_of`` maps sentence index to note index.
    """
    total = tagged.shape[0]
    fractions: dict[str, float] = {}
    scores: dict[str, float] = {}
    for j, domain in enumerate(RISK_DOMAINS):
        rows = np.flatnonzero(tagged[:, j])
        fractions[domain] = len(rows) / total
        if len(rows) == 0:
            scores[domain] = 0.0
            continue
        per_sentence = np.asarray(sentiments[domain], dtype=float)
        note_means = []
        for note_idx in range(n_notes):
            in_note = per_sentence[note_of[rows] == note_idx]
            if len(in_note):
                note_means.append(float(in_note.mean()))
        scores[domain] = float(np.mean(note_means))
    return AdmissionDomainSummary(fractions, scores)
