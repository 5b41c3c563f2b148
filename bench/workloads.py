"""The three benchmark workloads, driven through readmit's public API.

Each workload has a ``setup`` that makes its inputs from the workload seed
and writes them where the matching ``readmit`` command would read them, and
a ``run_pass`` that replays the call sequence of ``readmit train-nlp``,
``extract`` or ``eval`` on those inputs. Passes are deterministic: every
pass over the same inputs yields the same ``digest``.

Layer boundaries the benchmark itself calls are marked with ``span``; the
calls one layer makes into another are wrapped from outside by
``tracing.py`` in traced runs only. Untraced runs use ``no_span``.
"""

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from readmit import classifiers, corpus as corpus_mod, domains, evaluate, features, neural, syngen, textproc
from readmit.classifiers import ModelSpec
from readmit.corpus import Corpus
from readmit.domains import RISK_DOMAINS, AdmissionDomainSummary, domain_key
from readmit.evaluate import ABLATION_CONFIGS, SplitConfig
from readmit.neural import HashingEncoder
from readmit.seeding import derive_seed

# The cohort is cut to a fixed amount of text (or a fixed number of
# admissions) so that the work per pass does not drift with the seed: at a
# fixed patient count the sentence total varies by about 12% across seeds.
# prep_cohort keeps >= 12,800 sentences so the 80% topic training split
# holds >= 10,240 sentences and the topic budget stays at 40 epochs. Its
# 700-record sentiment seed (100 per domain, so the 80% training split keeps
# every domain above the 50 records training needs) keeps MLP training the
# bulk of the pass while two passes fit in one run. ``setups`` is how many times
# a run of each workload sets up; extract_long_notes trains NLP models in
# each set-up, so it sets up fewer times.
SIZES = {
    "full": {
        "setups": {"prep_cohort": 7, "extract_long_notes": 2, "eval_protocol": 7},
        "prep_patients": 110, "prep_sentences": 13_000, "prep_seed_records": 700,
        "extract_patients": 80, "extract_sentences": 16_000,
        "nlp_patients": 30, "nlp_seed_records": 420,
        "eval_patients": 110, "eval_admissions": 200,
        "eval_runs": 4, "eval_trees": 20, "rfe_trees": 1, "invariance_columns": 30,
    },
    "mini": {
        "setups": {"prep_cohort": 2, "extract_long_notes": 2, "eval_protocol": 2},
        "prep_patients": 30, "prep_sentences": 1_200, "prep_seed_records": 560,
        "extract_patients": 30, "extract_sentences": 1_500,
        "nlp_patients": 30, "nlp_seed_records": 420,
        "eval_patients": 30, "eval_admissions": 60,
        "eval_runs": 2, "eval_trees": 2, "rfe_trees": 1, "invariance_columns": 10,
    },
}
# Generating fewer than about 30 patients can fail to calibrate the
# readmission rate on some seeds, so every corpus starts from 30 or more.

HOLDOUT = 0.2          # train-nlp's default holdout_fraction
TRAIN_NLP_SEED = 0     # train-nlp's default seed
N_COLUMNS = 109        # width of the one-hot encoded feature schema


def no_span(name, **attrs):
    return nullcontext({})


@dataclass
class Ctx:
    """What a pass needs besides its inputs: where files go, and hooks."""

    workdir: Path
    sizes: dict
    workers: int
    span: object = no_span
    make_encoder: object = HashingEncoder
    inputs: dict = None


@dataclass
class PassResult:
    digest: str
    quality: float
    named: dict                      # quality figures by name, for the results file
    checks: list = field(default_factory=list)  # (name, ok)


# ------------------------------------------------------------------ helpers

def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def _leading(corpus: Corpus, keep) -> Corpus:
    """The corpus cut after its first admissions (patient by patient, each
    patient's in date order) while ``keep(n_kept, admission)`` holds."""
    kept = []
    for a in corpus.admissions:
        if not keep(len(kept), a):
            break
        kept.append(a)
    pids = {a.patient_id for a in kept}
    return Corpus(patients=tuple(p for p in corpus.patients if p.patient_id in pids),
                  admissions=tuple(kept))


def _generate(ctx: Ctx, config, make_keep):
    """Generate and cut with ``make_keep(truth)``, doubling the patient
    count until the cut falls inside the generated corpus."""
    while True:
        with ctx.span("syngen.generate"):
            corpus, truth = syngen.generate_with_truth(config)
        cut = _leading(corpus, make_keep(truth))
        if len(cut.admissions) < len(corpus.admissions):
            return cut, truth
        config = replace(config, n_patients=2 * config.n_patients)


def _until_sentences(truth, target):
    total = 0

    def keep(n_kept, admission):
        nonlocal total
        if total >= target:
            return False
        total += truth.records[admission.admission_id].n_sentences
        return True
    return keep


def _write_corpus(ctx: Ctx, corpus, path):
    with ctx.span("corpus.write"):
        corpus_mod.write_corpus(corpus, path)


def _load_corpus(ctx: Ctx, path):
    with ctx.span("corpus.load") as attrs:
        corpus = corpus_mod.derive_labels(corpus_mod.load_corpus(path))
    notes = [n for a in corpus.admissions for n in a.notes]
    attrs.update(notes=len(notes), chars=sum(len(n.text) for n in notes))
    return corpus


def _model_paths(models_dir: Path):
    return ([models_dir / "topic_model.json"]
            + [models_dir / f"sentiment_{domain_key(d)}.json" for d in RISK_DOMAINS])


def _summarize_and_build(ctx: Ctx, corpus, topic, sentiment):
    """``readmit extract`` from loaded models to the encoded feature matrix."""
    encoder = ctx.make_encoder(topic.spec.input_dim)
    with ctx.span("domains.summarize"):
        summaries = {a.admission_id: domains.summarize_admission(a, topic, sentiment, encoder)
                     for a in corpus.admissions}
    with ctx.span("features.build"):
        rows = features.build_features(corpus, summaries)
    with ctx.span("features.encode"):
        matrix = features.encode_features(rows)
    return summaries, matrix


def _pearson(x, y) -> float:
    """Pearson r, taken as 0 when a side is constant (it tells nothing)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def feature_fidelity(matrix, truth) -> float:
    """Mean Pearson r of the 14 NLP feature columns against planted truth."""
    recs = [truth.records[aid] for aid in matrix.admission_ids]
    index = {n: j for j, n in enumerate(matrix.names)}
    rs = []
    for d in RISK_DOMAINS:
        key = domain_key(d)
        planted_frac = [r.domain_sentence_counts[d] / r.n_sentences for r in recs]
        planted_sent = [r.domain_sentiment[d] for r in recs]
        for name, planted in ((f"sentence_fraction_{key}", planted_frac),
                              (f"clinical_sentiment_{key}", planted_sent)):
            rs.append(_pearson(matrix.X[:, index[name]], planted))
    return float(np.mean(rs))


def _matrix_checks(matrix, corpus, summaries):
    imputed = features.Imputer.fit(matrix.X).transform(matrix.X)
    ids = {a.admission_id for a in corpus.admissions}
    return [
        ("matrix_shape", matrix.X.shape == (len(corpus.admissions), N_COLUMNS)),
        ("matrix_finite_after_imputation", bool(np.all(np.isfinite(imputed)))),
        ("every_admission_summarized", set(summaries) == ids),
    ]


def _quality_checks(named: dict):
    return [(f"{k}_finite", bool(np.isfinite(v))) for k, v in sorted(named.items())]


def _matrix_digest(matrix):
    return _digest(np.ascontiguousarray(matrix.X).tobytes(), matrix.y.tobytes(),
                   list(matrix.names), list(matrix.admission_ids))


# -------------------------------------------------------------- prep_cohort

def setup_prep(seed: int, ctx: Ctx) -> dict:
    """``readmit gen`` at GenConfig() with the workload seed, cut to size."""
    s = ctx.sizes
    config = syngen.GenConfig(seed=seed, n_patients=s["prep_patients"])
    corpus, truth = _generate(ctx, config, lambda t: _until_sentences(t, s["prep_sentences"]))
    with ctx.span("syngen.sentiment_seed"):
        records = syngen.make_sentiment_seed(config, s["prep_seed_records"])
    paths = {"corpus": ctx.workdir / "corpus.jsonl", "seed": ctx.workdir / "sentiment_seed.jsonl",
             "models": ctx.workdir / "models"}
    _write_corpus(ctx, corpus, paths["corpus"])
    domains.write_seed_file(records, paths["seed"])
    paths["models"].mkdir(exist_ok=True)
    return {"paths": paths, "truth": truth}


def _topic_micro_f1(topic, X, Y) -> float:
    pred = domains.predict_domains(topic, X)
    truth = Y > 0.5
    tp = float(np.sum(pred & truth))
    fp = float(np.sum(pred & ~truth))
    fn = float(np.sum(~pred & truth))
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def _sentiment_accuracy(models, records, encoder) -> float:
    accs = []
    for d in RISK_DOMAINS:
        recs = [r for r in records if r.domain == d]
        X = np.stack([encoder(textproc.tokenize(r.text)) for r in recs])
        pred = np.argmax(neural.predict(models[d], X), axis=1)
        true = np.array([domains.POLARITIES.index(r.label) for r in recs])
        accs.append(float(np.mean(pred == true)))
    return float(np.mean(accs))


def run_prep(inputs: dict, ctx: Ctx) -> PassResult:
    """``readmit train-nlp`` then ``readmit extract``, models round-tripped."""
    paths = inputs["paths"]
    corpus = _load_corpus(ctx, paths["corpus"])
    records = domains.read_seed_file(paths["seed"])
    encoder = ctx.make_encoder(512)
    with ctx.span("domains.weak_label"):
        X, Y = domains.weak_label(corpus, domains.default_lexicon(), encoder)

    order = np.random.default_rng(derive_seed(TRAIN_NLP_SEED, "topic-holdout")).permutation(len(X))
    n_test = max(1, int(round(HOLDOUT * len(X))))
    test_idx, train_idx = order[:n_test], order[n_test:]
    with ctx.span("domains.train_topic_model"):
        topic = domains.train_topic_model(X[train_idx], Y[train_idx], domains.DEFAULT_TOPIC_CONFIG)
    with ctx.span("bench.topic_holdout"):
        topic_f1 = _topic_micro_f1(topic, X[test_idx], Y[test_idx])

    order = np.random.default_rng(derive_seed(TRAIN_NLP_SEED, "sent-holdout")).permutation(len(records))
    n_test = max(1, int(round(HOLDOUT * len(records))))
    test_recs = [records[i] for i in order[:n_test]]
    train_recs = [records[i] for i in order[n_test:]]
    with ctx.span("domains.train_sentiment_models"):
        sentiment = domains.train_sentiment_models(train_recs, encoder,
                                                   domains.DEFAULT_SENTIMENT_CONFIG)
    with ctx.span("bench.sentiment_holdout"):
        sent_acc = _sentiment_accuracy(sentiment, test_recs, encoder)

    with ctx.span("neural.save_load"):
        _save_models(paths["models"], topic, sentiment)
        topic, sentiment = _load_models(paths["models"])
    summaries, matrix = _summarize_and_build(ctx, corpus, topic, sentiment)

    named = {"topic_micro_f1": topic_f1, "sentiment_accuracy": sent_acc,
             "feature_fidelity": feature_fidelity(matrix, inputs["truth"])}
    return PassResult(
        digest=_digest(_matrix_digest(matrix), named),
        quality=named["feature_fidelity"], named=named,
        checks=_matrix_checks(matrix, corpus, summaries) + _quality_checks(named))


def _save_models(models_dir: Path, topic, sentiment) -> None:
    for model, path in zip([topic] + [sentiment[d] for d in RISK_DOMAINS],
                           _model_paths(models_dir)):
        neural.save_mlp(model, path)


def _load_models(models_dir: Path):
    loaded = [neural.load_mlp(p) for p in _model_paths(models_dir)]
    return loaded[0], dict(zip(RISK_DOMAINS, loaded[1:]))


# ------------------------------------------------------- extract_long_notes

def _train_extract_models(seed: int, ctx: Ctx) -> Path:
    """Train the NLP models on a small short-note corpus at library
    defaults, and save them where ``readmit extract`` reads them."""
    s = ctx.sizes
    small_cfg = syngen.GenConfig(seed=seed, n_patients=s["nlp_patients"],
                                 tokens_per_note=(60, 120), notes_per_admission=(2, 4))
    with ctx.span("syngen.generate"):
        small = syngen.generate(small_cfg)
    with ctx.span("syngen.sentiment_seed"):
        records = syngen.make_sentiment_seed(small_cfg, s["nlp_seed_records"])
    encoder = ctx.make_encoder(512)
    with ctx.span("domains.weak_label"):
        X, Y = domains.weak_label(small, domains.default_lexicon(), encoder)
    with ctx.span("domains.train_topic_model"):
        topic = domains.train_topic_model(X, Y)
    with ctx.span("domains.train_sentiment_models"):
        sentiment = domains.train_sentiment_models(records, encoder)
    models_dir = ctx.workdir / "models"
    models_dir.mkdir(exist_ok=True)
    _save_models(models_dir, topic, sentiment)
    return models_dir


def setup_extract(seed: int, ctx: Ctx) -> dict:
    """Saved NLP models, and a long-note corpus with paper-scale note
    lengths, cut to size."""
    models_dir = _train_extract_models(seed, ctx)
    s = ctx.sizes
    # One to three notes per admission (paper scale: two to seven) keeps
    # enough admissions in the cut for a steady fidelity figure.
    config = syngen.paper_scale_config(seed=seed, n_patients=s["extract_patients"],
                                       notes_per_admission=(1, 3))
    corpus, truth = _generate(ctx, config,
                              lambda t: _until_sentences(t, s["extract_sentences"]))
    paths = {"corpus": ctx.workdir / "long_corpus.jsonl", "models": models_dir,
             "csv": ctx.workdir / "features.csv"}
    _write_corpus(ctx, corpus, paths["corpus"])
    return {"paths": paths, "truth": truth}


def run_extract(inputs: dict, ctx: Ctx) -> PassResult:
    """``readmit extract``: corpus and models from disk to the feature CSV."""
    paths = inputs["paths"]
    corpus = _load_corpus(ctx, paths["corpus"])
    with ctx.span("neural.save_load"):
        topic, sentiment = _load_models(paths["models"])
    summaries, matrix = _summarize_and_build(ctx, corpus, topic, sentiment)
    with ctx.span("features.csv"):
        features.write_csv(matrix, paths["csv"])
    csv_bytes = paths["csv"].read_bytes()

    named = {"feature_fidelity": feature_fidelity(matrix, inputs["truth"])}
    checks = _matrix_checks(matrix, corpus, summaries) + _quality_checks(named)
    checks.append(("csv_rows", csv_bytes.count(b"\n") == len(corpus.admissions) + 1))
    return PassResult(digest=_digest(csv_bytes, _matrix_digest(matrix), named),
                      quality=named["feature_fidelity"], named=named, checks=checks)


# ------------------------------------------------------------ eval_protocol

def setup_eval(seed: int, ctx: Ctx) -> dict:
    """The cohort feature matrix with its 14 domain columns taken from the
    generator's planted truth, so no NLP model is trained."""
    s = ctx.sizes
    config = syngen.GenConfig(seed=seed, n_patients=s["eval_patients"])
    target = s["eval_admissions"]
    corpus, truth = _generate(ctx, config, lambda t: lambda n, a: n < target)
    corpus = corpus_mod.derive_labels(corpus)
    summaries = {}
    for a in corpus.admissions:
        rec = truth.records[a.admission_id]
        summaries[a.admission_id] = AdmissionDomainSummary(
            {d: rec.domain_sentence_counts[d] / rec.n_sentences for d in RISK_DOMAINS},
            dict(rec.domain_sentiment))
    with ctx.span("features.build"):
        rows = features.build_features(corpus, summaries)
    with ctx.span("features.encode"):
        matrix = features.encode_features(rows)
    return {"matrix": matrix}


def _model_spec(kind: str, sizes: dict, trees_key: str = "eval_trees") -> ModelSpec:
    hyper = {"n_trees": sizes[trees_key]} if kind == "random_forest" else {}
    return ModelSpec(kind=kind, hyper=hyper)


def run_eval(inputs: dict, ctx: Ctx) -> PassResult:
    """``readmit eval ablation`` for all six kinds at one worker, then
    ``readmit eval rfe`` with a forest, one repeat per worker."""
    matrix, s = inputs["matrix"], ctx.sizes
    reports = {}
    for kind in classifiers.KINDS:
        with ctx.span("evaluate.ablation", kind=kind):
            reports[kind] = evaluate.ablation(matrix, _model_spec(kind, s), SplitConfig(),
                                              n_runs=s["eval_runs"], master_seed=0, workers=1)
    with ctx.span("evaluate.rfe", workers=ctx.workers):
        outcome = evaluate.rfe(matrix, _model_spec("random_forest", s, "rfe_trees"), folds=3,
                               repeats=ctx.workers, master_seed=0, workers=ctx.workers)

    named = {
        "ablation_auc": float(np.mean([r.table["baseline_clinical_sentiment"]["auc"]
                                       for r in reports.values()])),
        "rfe_best_f1": outcome.best_score,
    }
    widths = list(range(matrix.X.shape[1], 0, -1))
    checks = [
        ("ablation_three_configs_per_kind",
         all(tuple(r.table) == ABLATION_CONFIGS for r in reports.values())),
        ("rfe_widths_109_to_1",
         matrix.X.shape[1] == N_COLUMNS and all(d.widths == widths for d in outcome.repeats_detail)),
    ] + _quality_checks(named)
    digest = _digest({k: evaluate.ablation_report_obj(r) for k, r in reports.items()},
                     evaluate.rfe_outcome_obj(outcome))
    return PassResult(digest=digest, quality=named["rfe_best_f1"], named=named, checks=checks)


def workers_invariance(inputs: dict, ctx: Ctx) -> bool:
    """A two-repeat decision-tree RFE on the leading columns gives the same
    report at one and at two workers."""
    matrix, width = inputs["matrix"], ctx.sizes["invariance_columns"]
    narrow = features.FeatureMatrix(
        schema=features.FeatureSchema(matrix.schema.columns[:width]),
        X=matrix.X[:, :width], y=matrix.y)
    digests = {
        _digest(evaluate.rfe_outcome_obj(evaluate.rfe(
            narrow, ModelSpec(kind="decision_tree"), folds=3, repeats=2, master_seed=1,
            workers=w)))
        for w in (1, 2)
    }
    return len(digests) == 1


@dataclass(frozen=True)
class Workload:
    """A run calls ``setup`` several times (its median is ``setup_s``) and
    ``run_pass`` at least twice; ``extra_checks`` run once, at the end."""

    setup: object
    run_pass: object
    extra_checks: tuple = ()


WORKLOADS = {
    "prep_cohort": Workload(setup_prep, run_prep),
    "extract_long_notes": Workload(setup_extract, run_extract),
    "eval_protocol": Workload(setup_eval, run_eval,
                              extra_checks=(("workers_invariance", workers_invariance),)),
}
