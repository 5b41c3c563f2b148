import json
import os
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from readmit import cli, domains, features, neural
from readmit.classifiers import DEFAULT_HYPERPARAMETERS, ModelSpec
from readmit.cli import main
from readmit.corpus import derive_labels, load_corpus
from readmit.domains import RISK_DOMAINS, domain_key
from readmit.features import read_csv, write_csv
from readmit.neural import HashingEncoder, TrainConfig
from readmit.seeding import derive_seed


def run(argv):
    return main([str(a) for a in argv])


GEN_ARGS = ["--set", "n_patients=6", "--set", "tokens_per_note=40:80",
            "--set", "notes_per_admission=2:3", "--set", "seed=77",
            "--set", "seed_sentences=700"]
NLP_ARGS = ["--set", "sentiment_epochs=40"]


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    gen_dir = root / "gen"
    models_dir = root / "models"
    features_csv = root / "features" / "features.csv"
    assert run(["gen", "--out", gen_dir] + GEN_ARGS) == 0
    assert run(["train-nlp", "--corpus", gen_dir / "corpus.jsonl",
                "--seed-file", gen_dir / "sentiment_seed.jsonl",
                "--out", models_dir] + NLP_ARGS) == 0
    assert run(["extract", "--corpus", gen_dir / "corpus.jsonl",
                "--models", models_dir, "--out", features_csv]) == 0
    return root, gen_dir, models_dir, features_csv


def test_gen_outputs_and_manifest(pipeline_dirs):
    _, gen_dir, _, _ = pipeline_dirs
    corpus = load_corpus(gen_dir / "corpus.jsonl")
    assert len(corpus.patients) == 6
    assert (gen_dir / "sentiment_seed.jsonl").exists()
    assert (gen_dir / "ground_truth.jsonl").exists()
    manifest = json.loads((gen_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert str(gen_dir / "corpus.jsonl") in manifest["outputs"]
    assert manifest["config"]["seed"] == 77


def test_gen_same_seed_identical_digests(tmp_path, pipeline_dirs):
    _, gen_dir, _, _ = pipeline_dirs
    out2 = tmp_path / "gen2"
    assert run(["gen", "--out", out2] + GEN_ARGS) == 0
    m1 = json.loads((gen_dir / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    d1 = {Path(k).name: v for k, v in m1["outputs"].items()}
    d2 = {Path(k).name: v for k, v in m2["outputs"].items()}
    assert d1 == d2
    assert (gen_dir / "corpus.jsonl").read_bytes() == (out2 / "corpus.jsonl").read_bytes()


def test_gen_bad_rate_exits_2(tmp_path, capsys):
    code = run(["gen", "--out", tmp_path / "x", "--set", "target_readmission_rate=1.5"])
    assert code == 2
    assert "target_readmission_rate" in capsys.readouterr().err


def test_gen_unknown_key_exits_2(tmp_path, capsys):
    code = run(["gen", "--out", tmp_path / "x", "--set", "patients=6"])
    assert code == 2
    assert "patients" in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    (["n_patients=0"], "n_patients must be positive, got 0"),
    (["n_patients=6", "seed_sentences=0"], "config key 'seed_sentences' must be positive, got 0"),
    (["n_patients=6", "noise_sd=0", "effect_weights.poor_insight=50",
      "target_readmission_rate=0.02"], "cannot calibrate readmission rate 0.02"),
])
def test_gen_rejected_config_leaves_no_out_directory(tmp_path, capsys, settings, message):
    code = run(["gen", "--out", tmp_path / "x" / "out",
                *[a for setting in settings for a in ("--set", setting)]])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_nlp_missing_lexicon_exits_1(pipeline_dirs, tmp_path):
    _, gen_dir, _, _ = pipeline_dirs
    code = run(["train-nlp", "--corpus", gen_dir / "corpus.jsonl",
                "--seed-file", gen_dir / "sentiment_seed.jsonl",
                "--lexicon", tmp_path / "missing.json", "--out", tmp_path / "m"])
    assert code == 1


def _defaults_sections(capsys) -> dict[str, list[tuple[str, str]]]:
    """``readmit defaults`` output as {section title: [(key, value text)]}."""
    assert run(["defaults"]) == 0
    sections: dict = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("# "):
            title = line[2:]
            sections[title] = []
        else:
            key, _, value = line.partition(" = ")
            sections[title].append((key, value))
    return sections


def test_train_nlp_prints_heldout_metrics(pipeline_dirs, tmp_path, capsys):
    # metrics were printed during the fixture run; re-run into a fresh dir, with
    # the train-nlp defaults as ``readmit defaults`` prints them for a config file
    root, gen_dir, models_dir, _ = pipeline_dirs
    cfg = tmp_path / "train_nlp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _defaults_sections(capsys)[
        "train-nlp defaults"]), encoding="utf-8")
    out = root / "models2"
    assert run(["train-nlp", "--corpus", gen_dir / "corpus.jsonl",
                "--seed-file", gen_dir / "sentiment_seed.jsonl", "--config", cfg,
                "--out", out, "--set", "topic_epochs=None"] + NLP_ARGS) == 0
    stdout = capsys.readouterr().out
    assert "topic micro-F1" in stdout
    assert "sentiment accuracy (Mood)" in stdout
    assert (out / "topic_model.json").exists()
    for name in ("appearance", "mood", "substance_use"):
        assert (out / f"sentiment_{name}.json").exists()
    manifest = (out / "manifest.json").read_text()
    assert '"topic_epochs": null' in manifest
    for name in ("topic_model.json", "sentiment_mood.json"):
        assert (out / name).read_bytes() == (models_dir / name).read_bytes()


def test_train_nlp_manifest_records_budget_and_metrics(pipeline_dirs):
    _, _, models_dir, _ = pipeline_dirs
    manifest = json.loads((models_dir / "manifest.json").read_text())
    assert manifest["config"] == {"seed": 0, "holdout_fraction": 0.2,
                                  "topic_epochs": None, "sentiment_epochs": 40}
    metrics = manifest["metrics"]
    assert 0.0 <= metrics["topic_micro_f1"] <= 1.0
    assert set(metrics["sentiment_accuracy"]) == set(RISK_DOMAINS)


def test_train_nlp_heldout_label_rounds(pipeline_dirs, tmp_path, capsys):
    # int(100 * 0.29) is 28; the label rounds instead
    _, gen_dir, _, _ = pipeline_dirs
    out = tmp_path / "m"
    assert run(["train-nlp", "--corpus", gen_dir / "corpus.jsonl",
                "--seed-file", gen_dir / "sentiment_seed.jsonl", "--out", out,
                "--set", "holdout_fraction=0.29", "--set", "topic_epochs=1",
                "--set", "sentiment_epochs=1"]) == 0
    assert "topic micro-F1 (held-out 29%): " in capsys.readouterr().out
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["topic_epochs"], config["sentiment_epochs"]) == (1, 1)


@pytest.mark.parametrize("setting", [
    "seed=abc", "holdout_fraction=x", "holdout_fraction=1.5", "holdout_fraction=0",
    "topic_epochs=0", "topic_epochs=1.5", "sentiment_epochs=-3",
])
def test_train_nlp_bad_value_exits_2(pipeline_dirs, tmp_path, capsys, setting):
    _, gen_dir, _, _ = pipeline_dirs
    code = run(["train-nlp", "--corpus", gen_dir / "corpus.jsonl",
                "--seed-file", gen_dir / "sentiment_seed.jsonl",
                "--out", tmp_path / "m", "--set", setting])
    assert code == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def _library_train_nlp(gen_dir, seed, topic_config, sentiment_config, holdout=0.2):
    """train-nlp's steps through the library, with the same holdout draws.

    ``topic_config`` maps the number of topic training rows to a config.
    """
    corpus = derive_labels(load_corpus(gen_dir / "corpus.jsonl"))
    encoder = HashingEncoder()
    X, Y = domains.weak_label(corpus, domains.default_lexicon(), encoder)
    order = np.random.default_rng(derive_seed(seed, "topic-holdout")).permutation(len(X))
    train_idx = order[max(1, int(round(holdout * len(X)))):]
    topic = domains.train_topic_model(X[train_idx], Y[train_idx], topic_config(len(train_idx)))
    records = domains.read_seed_file(gen_dir / "sentiment_seed.jsonl")
    order = np.random.default_rng(derive_seed(seed, "sent-holdout")).permutation(len(records))
    train_recs = [records[i] for i in order[max(1, int(round(holdout * len(records)))):]]
    return topic, domains.train_sentiment_models(train_recs, encoder, sentiment_config)


@pytest.mark.parametrize("settings, seed, topic_config, sentiment_config", [
    # no override: the library defaults, small-corpus epoch scaling included
    ([], 0, lambda n: None, None),
    # an epoch override changes only epochs and patience; the seed reaches both
    (["topic_epochs=7", "sentiment_epochs=5"], 9,
     lambda n: TrainConfig(learning_rate=0.3, batch_size=128, epochs=7, patience=7, seed=9),
     TrainConfig(learning_rate=0.15, batch_size=32, epochs=5, patience=5, seed=9)),
    (["sentiment_epochs=5"], 9, lambda n: domains.topic_config(n, seed=9),
     TrainConfig(learning_rate=0.15, batch_size=32, epochs=5, patience=5, seed=9)),
])
def test_train_nlp_models_match_library(pipeline_dirs, tmp_path, capsys,
                                        settings, seed, topic_config, sentiment_config):
    _, gen_dir, _, _ = pipeline_dirs
    cli_dir = tmp_path / "cli"
    argv = ["train-nlp", "--corpus", gen_dir / "corpus.jsonl",
            "--seed-file", gen_dir / "sentiment_seed.jsonl", "--out", cli_dir,
            "--set", f"seed={seed}"]
    for setting in settings:
        argv += ["--set", setting]
    assert run(argv) == 0
    captured = capsys.readouterr()
    micro_f1 = float(re.search(r"topic micro-F1 \(held-out 20%\): ([0-9.]+)", captured.out).group(1))
    assert ("warning: held-out topic micro-F1" in captured.err) == (micro_f1 < 0.5)

    topic, sentiment = _library_train_nlp(gen_dir, seed, topic_config, sentiment_config)
    lib_dir = tmp_path / "lib"
    lib_dir.mkdir()
    neural.save_mlp(topic, lib_dir / "topic_model.json")
    names = ["topic_model.json"]
    for domain in RISK_DOMAINS:
        names.append(f"sentiment_{domain_key(domain)}.json")
        neural.save_mlp(sentiment[domain], lib_dir / names[-1])
    for name in names:
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name


def test_topic_config_scales_small_corpora():
    assert domains.topic_config(20_000) == domains.DEFAULT_TOPIC_CONFIG
    small = domains.topic_config(300, seed=4)
    assert (small.batch_size, small.epochs, small.patience, small.seed) == (32, 320, 320, 4)
    assert small.learning_rate == domains.DEFAULT_TOPIC_CONFIG.learning_rate


def test_extract_row_count_and_header(pipeline_dirs):
    _, gen_dir, _, features_csv = pipeline_dirs
    corpus = load_corpus(gen_dir / "corpus.jsonl")
    lines = features_csv.read_text().splitlines()
    assert len(lines) == 1 + len(corpus.admissions)
    from readmit.features import FeatureSchema
    assert len(lines[0].split(",")) == len(FeatureSchema.build()) + 1


def test_extract_features_carry_topic_signal(pipeline_dirs):
    *_, features_csv = pipeline_dirs
    matrix = read_csv(features_csv)
    cols = [j for j, n in enumerate(matrix.names)
            if n.startswith("sentence_fraction_") and not n.endswith("__missing")]
    assert len(cols) == len(RISK_DOMAINS)
    assert np.any(matrix.X[:, cols] != 0)


def test_extract_matches_library(pipeline_dirs, tmp_path):
    _, gen_dir, models_dir, features_csv = pipeline_dirs
    corpus = derive_labels(load_corpus(gen_dir / "corpus.jsonl"))
    topic = neural.load_mlp(models_dir / "topic_model.json")
    sentiment = {d: neural.load_mlp(models_dir / f"sentiment_{domain_key(d)}.json")
                 for d in RISK_DOMAINS}
    write_csv(features.extract(corpus, topic, sentiment), tmp_path / "lib.csv")
    assert features_csv.read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_extract_deterministic(pipeline_dirs, tmp_path):
    _, gen_dir, models_dir, features_csv = pipeline_dirs
    out2 = tmp_path / "f2.csv"
    assert run(["extract", "--corpus", gen_dir / "corpus.jsonl",
                "--models", models_dir, "--out", out2]) == 0
    assert features_csv.read_bytes() == out2.read_bytes()


def test_eval_single_deterministic_and_worker_invariant(pipeline_dirs, tmp_path):
    *_, features_csv = pipeline_dirs
    common = ["eval", "single", "--features", features_csv,
              "--set", "n_runs=4", "--set", "model.kind=logistic_regression",
              "--set", "master_seed=3"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(common + ["--out", a]) == 0
    assert run(common + ["--out", b]) == 0
    assert run(common + ["--out", c, "--workers", "3"]) == 0
    ra = (a / "eval_single.json").read_bytes()
    assert ra == (b / "eval_single.json").read_bytes()
    assert ra == (c / "eval_single.json").read_bytes()


def test_eval_ablation_table(pipeline_dirs, tmp_path, capsys):
    *_, features_csv = pipeline_dirs
    out = tmp_path / "ab"
    assert run(["eval", "ablation", "--features", features_csv,
                "--set", "n_runs=2", "--set", "model.kind=logistic_regression",
                "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "Baseline+Clinical Sentiment" in stdout
    obj = json.loads((out / "eval_ablation.json").read_text())
    assert set(obj["table"].keys()) == {"baseline", "baseline_domain_sentences",
                                        "baseline_clinical_sentiment"}


def test_eval_rfe_and_consensus(pipeline_dirs, tmp_path):
    *_, features_csv = pipeline_dirs
    outs = []
    for k in range(3):
        out = tmp_path / f"rfe{k}"
        # tiny matrix subset via config: full matrix works but is slow; use 1 repeat
        assert run(["eval", "rfe", "--features", features_csv,
                    "--set", "rfe_repeats=1", "--set", "model.kind=logistic_regression",
                    "--set", f"master_seed={k}", "--out", out]) == 0
        outs.append(out / "eval_rfe.json")
    obj = json.loads(outs[0].read_text())
    width = len(obj["schema_names"])
    assert len(obj["repeats_detail"][0]["elimination_order"]) == width - 1
    cons_out = tmp_path / "cons"
    assert run(["eval", "consensus", "--rfe", *outs, "--out", cons_out]) == 0
    cons = json.loads((cons_out / "consensus.json").read_text())
    assert "consensus_eliminated" in cons


def test_eval_rfe_elimination_length_five_columns(tmp_path):
    # 5-column matrix with one repeat: elimination order has exactly 4 steps
    import numpy as np
    from readmit.features import FeatureMatrix, FeatureSchema, write_csv
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (40, 5))
    y = (X[:, 0] > 0).astype(float)
    schema = FeatureSchema([f"c{i}" for i in range(5)])
    csv_path = tmp_path / "five.csv"
    write_csv(FeatureMatrix(schema=schema, X=X, y=y), csv_path)
    out = tmp_path / "rfe"
    assert run(["eval", "rfe", "--features", csv_path, "--set", "rfe_repeats=1",
                "--set", "model.kind=logistic_regression", "--out", out]) == 0
    obj = json.loads((out / "eval_rfe.json").read_text())
    assert len(obj["repeats_detail"][0]["elimination_order"]) == 4


@pytest.mark.parametrize("setting, message", [
    ("rfe_folds=0", "config key 'rfe_folds' must be at least 2, got 0"),
    ("rfe_repeats=0", "config key 'rfe_repeats' must be at least 1, got 0"),
    ("rfe_folds=100", "the smaller class has 5 rows, fewer than the 100 folds"),
    ("model.max_features=2", "RFE fits down to 1 column, so an integer max_features must be 1"),
])
def test_eval_rfe_rejected_count_leaves_no_out_directory(tmp_path, capsys, setting, message):
    import numpy as np
    from readmit.features import FeatureMatrix, FeatureSchema, write_csv
    X = np.random.default_rng(0).normal(0, 1, (12, 3))
    csv_path = tmp_path / "three.csv"
    write_csv(FeatureMatrix(schema=FeatureSchema(["a", "b", "c"]), X=X,
                            y=(X[:, 0] > 0).astype(float)), csv_path)
    assert run(["eval", "rfe", "--features", csv_path, "--set", setting,
                "--out", tmp_path / "x" / "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_eval_patient_grouped_rejected(pipeline_dirs, tmp_path, capsys):
    *_, features_csv = pipeline_dirs
    code = run(["eval", "single", "--features", features_csv,
                "--set", "grouping=patient_grouped", "--out", tmp_path / "x"])
    assert code == 2


def test_eval_workers_is_not_a_config_key(pipeline_dirs, tmp_path, capsys):
    *_, features_csv = pipeline_dirs
    code = run(["eval", "single", "--features", features_csv,
                "--set", "workers=2", "--out", tmp_path / "x"])
    assert code == 2
    assert "workers" in capsys.readouterr().err


def test_eval_empty_features_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    code = run(["eval", "single", "--features", empty, "--out", tmp_path / "x"])
    assert code == 2
    assert "empty feature CSV" in capsys.readouterr().err


@pytest.mark.parametrize("rows, line, column", [
    ("1.5,0.2,1\n2.5,abc,0\n", 3, "b"),
    ("1.5,0.2,1\n2.5,0.3,yes\n", 3, "label"),
    ("1.5,,0\n", 2, "b"),
], ids=["feature_cell", "label", "empty_cell"])
def test_eval_malformed_features_exits_2(tmp_path, capsys, rows, line, column):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n" + rows, encoding="utf-8")
    code = run(["eval", "single", "--features", bad, "--out", tmp_path / "x"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}: line {line}: column {column!r}" in err


def test_eval_missing_features_exits_1(tmp_path):
    code = run(["eval", "single", "--features", tmp_path / "nope.csv",
                "--out", tmp_path / "x"])
    assert code == 1


def test_report_rendering(pipeline_dirs, tmp_path, capsys):
    """``report X.json`` prints exactly the X.txt that ``eval`` wrote, for every layout."""
    *_, features_csv = pipeline_dirs
    reports = []
    # A depth-2 tree leaves most importances at 0, so the top ten hold ties.
    for mode, model in (("single", ["--set", "model.kind=decision_tree",
                                    "--set", "model.max_depth=2"]),
                        ("ablation", ["--set", "model.kind=logistic_regression"])):
        out = tmp_path / mode
        assert run(["eval", mode, "--features", features_csv, "--set", "n_runs=2",
                    *model, "--out", out]) == 0
        reports.append(out / f"eval_{mode}.json")

    import numpy as np
    from readmit.features import FeatureMatrix, FeatureSchema, write_csv
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (60, 6))
    y = (X[:, 0] + 0.3 * rng.normal(0, 1, 60) > 0).astype(float)
    schema = FeatureSchema([f"c{i}" for i in range(6)])
    csv_path = tmp_path / "six.csv"
    write_csv(FeatureMatrix(schema=schema, X=X, y=y), csv_path)
    rfes = []
    for k in range(3):
        out = tmp_path / f"rfe{k}"
        assert run(["eval", "rfe", "--features", csv_path, "--set", "rfe_repeats=1",
                    "--set", "model.kind=logistic_regression", "--set", f"master_seed={k}",
                    "--out", out]) == 0
        rfes.append(out / "eval_rfe.json")
    assert run(["eval", "consensus", "--rfe", *rfes, "--out", tmp_path / "cons"]) == 0
    reports += [rfes[0], tmp_path / "cons" / "consensus.json"]

    capsys.readouterr()
    for path in reports:
        assert run(["report", "--report", path]) == 0
        assert capsys.readouterr().out == path.with_suffix(".txt").read_text(encoding="utf-8")


def test_defaults_lists_keys(capsys):
    assert run(["defaults"]) == 0
    stdout = capsys.readouterr().out
    assert "target_readmission_rate = 0.5" in stdout
    assert "effect_weights.poor_insight" in stdout
    assert "holdout_fraction = 0.2" in stdout
    assert "model.kind = random_forest" in stdout


_TABLES = {"gen defaults": ("gen", cli.GEN_DEFAULTS),
           "train-nlp defaults": ("train-nlp", cli.TRAIN_NLP_DEFAULTS),
           "eval defaults": ("eval", cli.EVAL_DEFAULTS)}


def test_defaults_lines_parse_back(capsys):
    sections = _defaults_sections(capsys)
    assert list(sections)[:3] == list(_TABLES)
    for title, (command, table) in _TABLES.items():
        assert [key for key, _ in sections[title]] == list(table)
        for key, value in sections[title]:
            parsed = cli._settings(command, table, Namespace(config=None, set=[f"{key}={value}"]))
            assert parsed[key] == table[key] and type(parsed[key]) is type(table[key]), key


def test_defaults_hyperparameter_sections_parse_back(capsys, tmp_path):
    sections = _defaults_sections(capsys)
    kinds = [t.rpartition(" ")[2] for t in sections if t.startswith("eval hyperparameters of ")]
    assert kinds == list(DEFAULT_HYPERPARAMETERS)
    for kind in kinds:
        lines = sections[f"eval hyperparameters of {kind}"]
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines), encoding="utf-8")
        settings = cli._settings("eval", cli.EVAL_DEFAULTS, Namespace(config=cfg, set=None))
        assert settings["model.kind"] == kind
        resolved = ModelSpec(kind, settings["model.hyper"]).resolved()
        assert resolved == DEFAULT_HYPERPARAMETERS[kind]
        assert {k: type(v) for k, v in resolved.items()} == {
            k: type(v) for k, v in DEFAULT_HYPERPARAMETERS[kind].items()}


@pytest.mark.parametrize("setting", ["n_trees=abc", "max_depth=2.5", "max_features=half",
                                     "bootstrap=maybe"])
def test_eval_bad_hyperparameter_exits_2(pipeline_dirs, tmp_path, setting):
    *_, features_csv = pipeline_dirs
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "readmit.cli", "eval", "single",
                             "--features", str(features_csv), "--set", f"model.{setting}",
                             "--out", str(tmp_path / "x")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"random_forest: hyperparameter {setting.split('=')[0]!r}" in result.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("settings, message", [
    (["model.kind=mlp", "model.epochs=0"], "mlp: batch_size, epochs and patience must be positive"),
    (["model.kind=mlp", "model.batch_size=0"],
     "mlp: batch_size, epochs and patience must be positive"),
    (["model.kind=mlp", "model.dropout_rate=1.5"], "mlp: dropout_rate must lie in [0, 1), got 1.5"),
    (["model.kind=logistic_regression", "model.learning_rate=nan"],
     "logistic_regression: hyperparameter 'learning_rate' must be finite, got nan"),
    (["model.kind=linear_svc", "model.c=nan"], "linear_svc: hyperparameter 'c' must be finite, got nan"),
])
def test_eval_rejected_hyperparameter_leaves_no_out_directory(pipeline_dirs, tmp_path, capsys,
                                                              settings, message):
    *_, features_csv = pipeline_dirs
    code = run(["eval", "single", "--features", features_csv,
                *[a for setting in settings for a in ("--set", setting)],
                "--out", tmp_path / "x" / "out"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("case", ["report_not_json", "report_incomplete", "consensus_not_rfe",
                                  "rfe_no_rows", "ablation_no_rows", "single_label_two",
                                  "single_inf_cell", "single_repeated_name"])
def test_bad_input_file_exits_2_naming_it(pipeline_dirs, tmp_path, case):
    *_, features_csv = pipeline_dirs
    header, first, *rest = features_csv.read_text(encoding="utf-8").splitlines()
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(header + "\n", encoding="utf-8")
    names = header.split(",")
    edited = {"single_label_two": [header, first[:first.rindex(",")] + ",2"],
              "single_inf_cell": [header, "inf" + first[first.index(","):]],
              "single_repeated_name": [",".join([names[0], names[0], *names[2:]]), first]}
    bad_csv = tmp_path / "bad.csv"
    if case in edited:
        bad_csv.write_text("\n".join(edited[case] + rest) + "\n", encoding="utf-8")
    not_json = tmp_path / "report.txt"
    not_json.write_text("Model: mlp\n", encoding="utf-8")
    not_rfe = tmp_path / "ablation.json"
    not_rfe.write_text('{"table": {}}\n', encoding="utf-8")
    bad, args = {
        "report_not_json": (not_json, ["report", "--report", not_json]),
        "report_incomplete": (not_rfe, ["report", "--report", not_rfe]),
        "consensus_not_rfe": (not_rfe, ["eval", "consensus", "--rfe", not_rfe, not_rfe, not_rfe]),
        "rfe_no_rows": (header_only, ["eval", "rfe", "--features", header_only]),
        "ablation_no_rows": (header_only, ["eval", "ablation", "--features", header_only]),
    }.get(case, (bad_csv, ["eval", "single", "--features", bad_csv]))
    if args[0] == "eval":
        args += ["--out", tmp_path / "out"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "readmit.cli", *map(str, args)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}: ")
    assert not (tmp_path / "out").exists()


def test_eval_missing_features_leaves_no_out_directory(tmp_path):
    assert run(["eval", "single", "--features", tmp_path / "missing.csv",
                "--out", tmp_path / "out"]) == cli.EXIT_IO
    assert not (tmp_path / "out").exists()


def test_eval_single_int_hidden_sizes_trains(pipeline_dirs, tmp_path):
    *_, features_csv = pipeline_dirs
    assert run(["eval", "single", "--features", features_csv, "--set", "n_runs=1",
                "--set", "model.kind=mlp", "--set", "model.hidden_sizes=8",
                "--set", "model.epochs=2", "--out", tmp_path / "m"]) == 0
    config = json.loads((tmp_path / "m" / "manifest.json").read_text())["config"]
    assert config["model.hyper"] == {"hidden_sizes": 8, "epochs": 2}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# generator config\nn_patients = 5\nseed = 1\n"
                   "tokens_per_note = 40:80\n", encoding="utf-8")
    out = tmp_path / "g"
    assert run(["gen", "--config", cfg, "--out", out, "--set", "n_patients=4"]) == 0
    corpus = load_corpus(out / "corpus.jsonl")
    assert len(corpus.patients) == 4  # flag wins over file


def _malformed_input(case, gen_dir, models_dir, features_csv, tmp_path):
    """(the bad file, the line it names or None, the command that reads it)."""
    models = tmp_path / "models"
    shutil.copytree(models_dir, models)
    bad = {"model": models / "topic_model.json", "seed": tmp_path / "seed.jsonl",
           "lexicon": tmp_path / "lexicon.json", "corpus": tmp_path / "corpus.jsonl",
           "config": tmp_path / "gen.cfg", "features": tmp_path / "features.csv"}
    train_nlp = ["train-nlp", "--corpus", gen_dir / "corpus.jsonl",
                 "--seed-file", gen_dir / "sentiment_seed.jsonl", "--out", tmp_path / "out"]
    commands = {
        "model": ["extract", "--corpus", gen_dir / "corpus.jsonl", "--models", models,
                  "--out", tmp_path / "out" / "features.csv"],
        "seed": train_nlp[:3] + ["--seed-file", bad["seed"]] + train_nlp[5:],
        "lexicon": train_nlp + ["--lexicon", bad["lexicon"]],
        "corpus": train_nlp[:1] + ["--corpus", bad["corpus"]] + train_nlp[3:],
        "config": ["gen", "--config", bad["config"], "--out", tmp_path / "out"],
        "features": ["eval", "single", "--features", bad["features"], "--out", tmp_path / "out"],
    }
    kind = case.split("_")[0]
    line = None
    if case.endswith("_not_utf8"):
        valid = {"seed": (gen_dir / "sentiment_seed.jsonl").read_bytes(),
                 "corpus": (gen_dir / "corpus.jsonl").read_bytes(),
                 "features": features_csv.read_bytes(),
                 "lexicon": json.dumps({d: ["zz"] for d in RISK_DOMAINS}).encode("utf-8"),
                 "config": b"# generator config\nseed = 1\n"}[kind]
        half = len(valid) // 2
        bad[kind].write_bytes(valid[:half] + b"\xe9" + valid[half:])
    elif case == "model_input_dim_differs":
        bad["model"] = models / "sentiment_mood.json"
        spec = neural.MLPSpec(input_dim=8, hidden_sizes=(4,), output_kind="softmax", n_outputs=3)
        neural.save_mlp(neural.init_mlp(spec), bad["model"])
    elif kind == "model":
        payload = json.loads(bad["model"].read_text(encoding="utf-8"))
        spec = payload.pop("spec")
        text = {
            "model_not_json": "not a model\n",
            "model_no_spec": json.dumps(payload),
            "model_arrays_do_not_fit_spec":
                json.dumps({**payload, "spec": {**spec, "hidden_sizes": [512, 5]}}),
            "model_sentiment_as_topic":
                (models / "sentiment_mood.json").read_text(encoding="utf-8"),
        }[case]
        bad["model"].write_text(text, encoding="utf-8")
    elif case == "seed_not_json":
        record = {"domain": "Mood", "text": "Mood is low.", "label": "negative"}
        bad["seed"].write_text(json.dumps(record) + "\n{not json\n", encoding="utf-8")
        line = 2
    elif case == "seed_no_label":
        bad["seed"].write_text('{"domain": "Mood", "text": "Mood is low."}\n', encoding="utf-8")
        line = 1
    elif case == "lexicon_not_json":
        bad["lexicon"].write_text("{not json", encoding="utf-8")
    elif case == "lexicon_domain_is_a_string":
        raw = {**{d: ["zz"] for d in RISK_DOMAINS}, "Mood": "sad"}
        bad["lexicon"].write_text(json.dumps(raw), encoding="utf-8")
    else:
        lines = (gen_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        if case == "corpus_array_line":
            lines[2] = "[1, 2]"
        else:  # corpus_text_null
            obj = json.loads(lines[2])
            obj["admissions"][0]["notes"][0]["text"] = None
            lines[2] = json.dumps(obj)
        bad["corpus"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        line = 3
    return bad[kind], line, commands[kind]


@pytest.mark.parametrize("case", [
    "model_not_json", "model_no_spec", "model_arrays_do_not_fit_spec", "model_sentiment_as_topic",
    "model_input_dim_differs", "seed_not_json", "seed_no_label", "lexicon_not_json",
    "lexicon_domain_is_a_string", "corpus_array_line", "corpus_text_null", "corpus_not_utf8",
    "seed_not_utf8", "lexicon_not_utf8", "config_not_utf8", "features_not_utf8"])
def test_malformed_input_exits_2_naming_file(pipeline_dirs, tmp_path, case):
    _, gen_dir, models_dir, features_csv = pipeline_dirs
    bad, line, args = _malformed_input(case, gen_dir, models_dir, features_csv, tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "readmit.cli", *map(str, args)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}" + (f" line {line}: " if line else ": "))
    assert not (tmp_path / "out").exists()
