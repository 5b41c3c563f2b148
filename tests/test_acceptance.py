"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight
fixtures (planted and null corpora with trained NLP models) are shared
across criteria; their preparation time is charged to the criteria that
use them where a runtime budget applies.
"""

import time

import numpy as np
import pytest

from readmit import domains, evaluate, features, neural, syngen
from readmit.classifiers import ModelSpec, f1_score, train
from readmit.cli import main as cli_main
from readmit.evaluate import auc_score, consensus_elimination, metrics, rfe
from readmit.features import FeatureMatrix, FeatureSchema
from readmit.neural import HashingEncoder, MLPSpec, TrainConfig

from helpers import brute_force_auc, confusion_tally, gradient_check, lexicon_sentence_fractions

PLANTED_SEED = 20260808
NULL_SEED = 20260806


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[criterion {num}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="session")
def planted_pipeline():
    """Paper-sized planted corpus with trained NLP models and features."""
    t0 = time.time()
    config = syngen.GenConfig(seed=PLANTED_SEED)
    corpus, truth = syngen.generate_with_truth(config)
    encoder = HashingEncoder()
    lexicon = domains.default_lexicon()

    X, Y = domains.weak_label(corpus, lexicon, encoder)
    rng = np.random.default_rng(1)
    order = rng.permutation(len(X))
    n_test = len(X) // 5
    test_idx, train_idx = order[:n_test], order[n_test:]
    topic = domains.train_topic_model(X[train_idx], Y[train_idx])
    pred = domains.predict_domains(topic, X[test_idx])
    topic_micro_f1 = f1_score((Y[test_idx] > 0.5).ravel(), pred.ravel())

    sentiment = domains.train_sentiment_models(
        syngen.make_sentiment_seed(config, 3500), encoder)
    matrix = features.extract(corpus, topic, sentiment)
    prep_seconds = time.time() - t0
    return {
        "config": config, "corpus": corpus, "truth": truth, "encoder": encoder,
        "lexicon": lexicon, "topic": topic, "sentiment": sentiment,
        "topic_micro_f1": topic_micro_f1, "matrix": matrix,
        "prep_seconds": prep_seconds,
    }


@pytest.fixture(scope="session")
def null_matrix():
    """Feature matrix from a corpus generated with all effect weights zero."""
    config = syngen.GenConfig(
        seed=NULL_SEED, n_patients=140, tokens_per_note=(80, 140),
        notes_per_admission=(2, 4),
        effect_weights={name: 0.0 for name in syngen.EFFECT_NAMES})
    corpus, _ = syngen.generate_with_truth(config)
    encoder = HashingEncoder()
    X, Y = domains.weak_label(corpus, domains.default_lexicon(), encoder)
    topic = domains.train_topic_model(X, Y)
    sentiment = domains.train_sentiment_models(
        syngen.make_sentiment_seed(config, 1400), encoder,
        TrainConfig(learning_rate=0.15, batch_size=32, epochs=60, patience=60))
    return features.extract(corpus, topic, sentiment)


def test_criterion_1_metric_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst_auc_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        worst_auc_gap = max(worst_auc_gap,
                            abs(auc_score(y, scores) - brute_force_auc(y, scores)))
        m = metrics(y, scores)
        pred = (scores >= 0.5).astype(float)
        tp, fp, fn, tn = confusion_tally(y, pred)
        assert m.accuracy == (tp + tn) / n
        expected_f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert m.f1 == expected_f1
    elapsed = time.time() - t0
    report(1, "rank-statistic AUC matches brute force within 1e-12; "
              "accuracy/F1 match confusion tallies exactly",
           worst_auc_gap <= 1e-12 and elapsed < 5.0,
           f"worst AUC gap {worst_auc_gap:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    for k in range(24):
        output_kind = ("softmax", "sigmoid")[k % 2]
        activation = ("tanh", "relu")[(k // 2) % 2]
        spec = MLPSpec(
            input_dim=int(rng.integers(3, 9)),
            hidden_sizes=tuple(int(rng.integers(3, 8))
                               for _ in range(int(rng.integers(1, 3)))),
            activation=activation,
            output_kind=output_kind,
            n_outputs=int(rng.integers(2, 5)),
        )
        worst = max(worst, gradient_check(spec, seed=100 + k))
        checked += 1
    elapsed = time.time() - t0
    report(2, "analytic MLP gradients match central finite differences "
              "(step 1e-4) within relative error 1e-4 on 24 random specs",
           worst < 1e-4 and checked >= 20 and elapsed < 30.0,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_ablation_ordering(planted_pipeline):
    matrix = planted_pipeline["matrix"]
    corpus = planted_pipeline["corpus"]
    n_adm = len(corpus.admissions)
    rate = float(matrix.y.mean())
    t0 = time.time()
    rep = evaluate.ablation(matrix, ModelSpec("logistic_regression", seed=0),
                            n_runs=100, master_seed=42)
    elapsed = planted_pipeline["prep_seconds"] + (time.time() - t0)
    f1_base = rep.table["baseline"]["f1"]
    f1_frac = rep.table["baseline_domain_sentences"]["f1"]
    f1_sent = rep.table["baseline_clinical_sentiment"]["f1"]
    ok = (abs(n_adm - 552) <= 60 and 0.45 <= rate <= 0.55
          and f1_base < f1_frac < f1_sent
          and (f1_sent - f1_base) >= 0.03
          and elapsed < 600.0)
    report(3, "ablation over 100 runs orders mean F1 as baseline < "
              "+domain sentences < +clinical sentiment with gap >= 0.03",
           ok,
           f"{n_adm} admissions, rate {rate:.2f}, F1 {f1_base:.3f} < "
           f"{f1_frac:.3f} < {f1_sent:.3f}, gap {f1_sent - f1_base:.3f}, "
           f"{elapsed:.0f}s incl. pipeline prep")


def test_criterion_4_null_model(null_matrix):
    kind_hyper = {
        "sgd_linear": {},
        "logistic_regression": {},
        "linear_svc": {},
        "decision_tree": {"max_depth": 6},
        "random_forest": {"n_trees": 25, "max_depth": 8},
        "mlp": {"epochs": 40},
    }
    deviations = {}
    for kind, hyper in kind_hyper.items():
        rep = evaluate.repeated_eval(null_matrix, ModelSpec(kind, hyper, seed=0),
                                     n_runs=100, master_seed=5)
        deviations[kind] = abs(rep.mean["auc"] - 0.5)
    worst_kind = max(deviations, key=deviations.get)
    report(4, "all effect weights zero: mean AUC over 100 runs within "
              "0.5 +/- 0.05 for every classifier kind",
           all(d <= 0.05 for d in deviations.values()),
           f"worst {worst_kind} deviation {deviations[worst_kind]:.3f}")


def _planted_noise_matrix(seed, n=350):
    rng = np.random.default_rng(seed)
    signal = rng.normal(0, 1, (n, 5))
    weights = np.array([2.5, 2.2, 2.0, 1.8, 1.6])
    p = 1 / (1 + np.exp(-(signal @ weights)))
    y = (rng.random(n) < p).astype(float)
    noise = rng.normal(0, 1, (n, 20))
    names = [f"signal_{i}" for i in range(5)] + [f"noise_{i}" for i in range(20)]
    schema = FeatureSchema(names)
    return FeatureMatrix(schema=schema, X=np.concatenate([signal, noise], axis=1), y=y)


def test_criterion_5_rfe_planted_noise():
    spec = ModelSpec("decision_tree", {"max_depth": 10, "min_samples_leaf": 2}, seed=0)
    outcomes = []
    clean_counts = []
    for k in range(3):
        matrix = _planted_noise_matrix(50 + k)
        outcome = rfe(matrix, spec, folds=3, repeats=30, master_seed=200 + k)
        outcomes.append(outcome)
        clean_counts.append(sum(
            1 for d in outcome.repeats_detail
            if all(name.startswith("noise") for name in d.elimination_order[:20])
        ))
    consensus = consensus_elimination(outcomes)
    noise_names = {f"noise_{i}" for i in range(20)}
    ordering_ok = clean_counts[0] >= 24  # >= 80% of 30 repeats
    consensus_ok = noise_names <= set(consensus)
    report(5, "RFE drops all 20 noise columns before any signal column in "
              ">= 80% of 30 repeats; consensus over three configurations "
              "covers the noise set",
           ordering_ok and consensus_ok,
           f"clean repeats {clean_counts}, consensus size {len(consensus)}")


def test_criterion_6_topic_pipeline(planted_pipeline):
    micro_f1 = planted_pipeline["topic_micro_f1"]
    corpus = planted_pipeline["corpus"]
    truth = planted_pipeline["truth"]
    exact = True
    for admission in corpus.admissions:
        rec = truth.records[admission.admission_id]
        fractions = lexicon_sentence_fractions(admission, planted_pipeline["lexicon"])
        for domain in domains.RISK_DOMAINS:
            expected = rec.domain_sentence_counts[domain] / rec.n_sentences
            if fractions[domain] != expected:
                exact = False
    report(6, "topic MLP held-out micro-F1 >= 0.80 and lexicon-mode "
              "sentence fractions equal planted frequencies exactly",
           micro_f1 >= 0.80 and exact,
           f"micro-F1 {micro_f1:.3f}, fractions exact: {exact}")


def _run_cli(argv):
    return cli_main([str(a) for a in argv])


def test_criterion_7_ranges_and_determinism(planted_pipeline, tmp_path_factory):
    matrix = planted_pipeline["matrix"]
    names = matrix.names
    frac_cols = [j for j, n in enumerate(names) if n.startswith("sentence_fraction_")
                 and not n.endswith("__missing")]
    sent_cols = [j for j, n in enumerate(names) if n.startswith("clinical_sentiment_")
                 and not n.endswith("__missing")]
    ranges_ok = (np.all((matrix.X[:, frac_cols] >= 0) & (matrix.X[:, frac_cols] <= 1))
                 and np.all((matrix.X[:, sent_cols] >= -1) & (matrix.X[:, sent_cols] <= 1)))

    rng = np.random.default_rng(0)
    draws = neural.dropout_mask((10_000,), 0.75, rng)
    retention = float(np.mean(draws > 0))
    dropout_ok = abs(retention - 0.25) <= 0.02

    root = tmp_path_factory.mktemp("accept_cli")
    gen_args = ["--set", "n_patients=6", "--set", "tokens_per_note=40:80",
                "--set", "notes_per_admission=2:3", "--set", "seed=5",
                "--set", "seed_sentences=700"]
    dirs = [root / "a", root / "b"]
    for d in dirs:
        assert _run_cli(["gen", "--out", d] + gen_args) == 0
        assert _run_cli(["train-nlp", "--corpus", d / "corpus.jsonl",
                         "--seed-file", d / "sentiment_seed.jsonl",
                         "--out", d / "models", "--set", "sentiment_epochs=30"]) == 0
        assert _run_cli(["extract", "--corpus", d / "corpus.jsonl",
                         "--models", d / "models", "--out", d / "features.csv"]) == 0
        assert _run_cli(["eval", "single", "--features", d / "features.csv",
                         "--set", "n_runs=5", "--set", "model.kind=logistic_regression",
                         "--out", d / "eval"]) == 0
    same_bytes = all(
        (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
        for rel in ("corpus.jsonl", "sentiment_seed.jsonl", "ground_truth.jsonl",
                    "models/topic_model.json", "features.csv", "eval/eval_single.json")
    )
    workers_dir = root / "w"
    assert _run_cli(["eval", "single", "--features", dirs[0] / "features.csv",
                     "--set", "n_runs=5", "--set", "model.kind=logistic_regression",
                     "--workers", "3", "--out", workers_dir]) == 0
    workers_same = ((workers_dir / "eval_single.json").read_bytes()
                    == (dirs[0] / "eval" / "eval_single.json").read_bytes())
    # The compared features must hold topic signal: a topic model that tags
    # no sentence writes all-zero sentence fractions. The CSV has the planted
    # matrix's schema, so frac_cols index it too.
    written = features.read_csv(dirs[0] / "features.csv")
    tagged = bool(np.any(written.X[:, frac_cols] != 0))

    report(7, "feature ranges hold; dropout retention at rate 0.75 measures "
              "0.25 +/- 0.02 over 10,000 draws; commands are byte-deterministic "
              "and invariant to --workers; the CLI's topic model tags sentences",
           bool(ranges_ok and dropout_ok and same_bytes and workers_same and tagged),
           f"retention {retention:.3f}, bytes equal: {same_bytes}, "
           f"workers invariant: {workers_same}, sentence fractions nonzero: {tagged}")


def test_criterion_8_forest_tree_equivalence():
    rng = np.random.default_rng(17)
    all_equal = True
    for k in range(50):
        n = int(rng.integers(40, 80))
        d = int(rng.integers(3, 8))
        X = rng.normal(0, 1, (n, d))
        w = rng.normal(0, 1.5, d)
        p = 1 / (1 + np.exp(-(X @ w)))
        y = (rng.random(n) < p).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        depth = int(rng.integers(2, 7))
        dt = train(ModelSpec("decision_tree",
                             {"max_depth": depth, "min_samples_leaf": 2}, seed=k), X, y)
        rf = train(ModelSpec("random_forest",
                             {"n_trees": 1, "bootstrap": False, "max_features": None,
                              "max_depth": depth, "min_samples_leaf": 2}, seed=k + 999), X, y)
        Xte = rng.normal(0, 1, (30, d))
        if not np.array_equal(dt.predict_proba(Xte), rf.predict_proba(Xte)):
            all_equal = False
    report(8, "RandomForest(1 tree, no bootstrap, all features) predicts "
              "identically to DecisionTree under matched limits on 50 random datasets",
           all_equal)
