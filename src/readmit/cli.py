"""Command-line entry point wiring the modules into reproducible runs.

Commands compose through files only: gen -> train-nlp -> extract -> eval.
Every command writes a run manifest recording the config, input digests
and output digests; exit codes are 0 (success), 1 (I/O), 2 (configuration
or validation).
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import __version__, classifiers, domains, evaluate, features, neural, syngen
from . import corpus as corpus_mod
from .classifiers import ModelSpec
from .domains import POLARITIES, RISK_DOMAINS, domain_key
from .errors import ConfigError, DataError, ReadmitError, open_text
from .evaluate import SplitConfig
from .syngen import GenConfig

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2

EVAL_DEFAULTS = {
    "master_seed": 0,
    "n_runs": 100,
    "test_fraction": 0.2,
    "stratified": True,
    "grouping": "admission_level",
    "rfe_folds": 3,
    "rfe_repeats": 30,
    "model.kind": "random_forest",
    "model.seed": 0,
}

# An unset epoch budget (None) leaves the count to the training protocol.
TRAIN_NLP_DEFAULTS = {
    "seed": 0,
    "holdout_fraction": 0.2,
    "topic_epochs": None,
    "sentiment_epochs": None,
}


def _gen_defaults() -> dict:
    """GenConfig's fields in order, ``effect_weights`` as one key per effect."""
    table = {}
    for key, value in asdict(GenConfig()).items():
        if key == "effect_weights":
            table.update({f"{key}.{name}": w for name, w in value.items()})
        else:
            table[key] = value
    return {**table, "seed_sentences": 3500}


GEN_DEFAULTS = _gen_defaults()


def _coerce(key: str, raw: str, default):
    """Parses ``raw`` as the type of the key's default (None parses as None or int)."""
    if default is None and raw.strip().lower() == "none":
        return None
    kind = int if default is None else type(default)
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind is tuple:
            lo, _, hi = raw.partition(":")
            return (int(lo), int(hi))
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from None


def _format(value, sep: str) -> str:
    """The inverse of ``_coerce`` (and, with ``sep=","``, of ``_parse_literal``)."""
    if isinstance(value, tuple):
        return sep.join(str(v) for v in value)
    return str(value)


def _read_flat_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open_text(path, ConfigError) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, eq, value = stripped.partition("=")
            if not eq:
                raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
            out[key.strip()] = value.strip()
    return out


def _settings(command: str, defaults: dict, args) -> dict:
    """``defaults`` with ``--config``, then each ``--set``, applied on top.

    For eval, any ``model.<name>`` key outside the table is a classifier
    hyperparameter and goes to ``model.hyper``.
    """
    raw = _read_flat_config(args.config) if args.config else {}
    for item in args.set or ():
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--set {item!r}: expected key=value")
        raw[key.strip()] = value.strip()
    settings = dict(defaults)
    if command == "eval":
        settings["model.hyper"] = {}
    for key, value in raw.items():
        if key in defaults:
            settings[key] = _coerce(key, value, defaults[key])
        elif command == "eval" and key.startswith("model."):
            settings["model.hyper"][key.split(".", 1)[1]] = _parse_literal(value)
        else:
            raise ConfigError(f"unknown {command} config key {key!r}")
    return settings


def _parse_literal(raw: str):
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "," in raw:
        return tuple(_parse_literal(p) for p in raw.split(","))
    return raw


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config_echo: dict, inputs, outputs,
                    master_seed, started: float, metrics: Optional[dict] = None) -> None:
    manifest = {
        "tool_version": __version__,
        "command": command,
        "config": config_echo,
        "master_seed": master_seed,
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "timings_sec": {"wall": time.time() - started},
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    _dump_json(manifest, out_dir / "manifest.json")


def cmd_gen(args) -> int:
    settings = _settings("gen", GEN_DEFAULTS, args)
    seed_sentences = settings.pop("seed_sentences")
    if seed_sentences < 1:
        raise ConfigError(f"config key 'seed_sentences' must be positive, got {seed_sentences}")
    weights = {name: settings.pop(f"effect_weights.{name}") for name in syngen.EFFECT_NAMES}
    config = GenConfig(effect_weights=weights, **settings)
    started = time.time()
    corpus, truth = syngen.generate_with_truth(config)
    seed_records = syngen.make_sentiment_seed(config, seed_sentences)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.jsonl"
    seed_path = out / "sentiment_seed.jsonl"
    truth_path = out / "ground_truth.jsonl"
    corpus_mod.write_corpus(corpus, corpus_path)
    domains.write_seed_file(seed_records, seed_path)
    syngen.write_ground_truth(truth, truth_path)
    _write_manifest(out, "gen", {**asdict(config), "seed_sentences": seed_sentences}, [],
                    [corpus_path, seed_path, truth_path], config.seed, started)
    print(f"wrote {corpus_path} ({len(corpus.admissions)} admissions, "
          f"{len(corpus.patients)} patients)")
    return EXIT_OK


def cmd_train_nlp(args) -> int:
    started = time.time()
    config = _settings("train-nlp", TRAIN_NLP_DEFAULTS, args)

    corpus = corpus_mod.derive_labels(corpus_mod.load_corpus(args.corpus))
    lexicon = domains.load_lexicon(args.lexicon) if args.lexicon else domains.default_lexicon()
    records = domains.read_seed_file(args.seed_file)
    nlp = domains.train_nlp(corpus, records, lexicon, seed=config["seed"],
                            holdout=config["holdout_fraction"],
                            topic_epochs=config["topic_epochs"],
                            sentiment_epochs=config["sentiment_epochs"])
    micro_f1 = nlp.metrics["topic_micro_f1"]
    print(f"topic micro-F1 (held-out {config['holdout_fraction']:.0%}): {micro_f1:.3f}")
    if micro_f1 < 0.5:
        print(f"warning: held-out topic micro-F1 {micro_f1:.3f} is below 0.5; "
              "the topic model tags sentences poorly", file=sys.stderr)
    unseen_f1 = nlp.metrics["topic_micro_f1_unseen"]
    print("topic micro-F1 (held-out sentences not among the training sentences): "
          + ("no such held-out sentences" if unseen_f1 is None else f"{unseen_f1:.3f}"))
    for domain, accuracy in nlp.metrics["sentiment_accuracy"].items():
        print(f"sentiment accuracy ({domain}): "
              + ("no held-out sentences" if accuracy is None else f"{accuracy:.3f}"))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _model_paths(out)
    for model, path in zip([nlp.topic] + [nlp.sentiment[d] for d in RISK_DOMAINS], outputs):
        neural.save_mlp(model, path)
    inputs = [args.corpus, args.seed_file] + ([args.lexicon] if args.lexicon else [])
    _write_manifest(out, "train-nlp", config, inputs, outputs, config["seed"], started,
                    metrics=nlp.metrics)
    return EXIT_OK


def _model_paths(models_dir: Path) -> list[Path]:
    """train-nlp's model files: the topic model, then one sentiment model per domain."""
    return [models_dir / "topic_model.json"] + [
        models_dir / f"sentiment_{domain_key(d)}.json" for d in RISK_DOMAINS]


def _load_models(model_paths: list[Path]) -> list[neural.MLPModel]:
    """train-nlp's models, each checked against its role: the topic model is
    sigmoid over the domains, each sentiment model softmax over the
    polarities, and all read rows of the topic model's input width."""
    models = [neural.load_mlp(p) for p in model_paths]
    width = models[0].spec.input_dim
    for i, (path, spec) in enumerate(zip(model_paths, (m.spec for m in models))):
        kind, n_outputs = ("sigmoid", len(RISK_DOMAINS)) if i == 0 else ("softmax", len(POLARITIES))
        if (spec.output_kind, spec.n_outputs, spec.input_dim) != (kind, n_outputs, width):
            raise DataError(f"{path}: a {spec.output_kind} model with {spec.n_outputs} outputs "
                            f"and input_dim {spec.input_dim}; this file must hold a {kind} "
                            f"model with {n_outputs} outputs and input_dim {width}")
    return models


def cmd_extract(args) -> int:
    started = time.time()
    corpus = corpus_mod.derive_labels(corpus_mod.load_corpus(args.corpus))
    model_paths = _model_paths(Path(args.models))
    topic, *sentiment = _load_models(model_paths)
    matrix = features.extract(corpus, topic, dict(zip(RISK_DOMAINS, sentiment)))
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    features.write_csv(matrix, out_path)
    _write_manifest(out_path.parent, "extract", {"corpus": str(args.corpus)},
                    [args.corpus] + model_paths, [out_path], 0, started)
    print(f"wrote {out_path} ({matrix.X.shape[0]} rows x {matrix.X.shape[1]} feature columns)")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.time()
    settings = _settings("eval", EVAL_DEFAULTS, args)
    if settings["grouping"] == "patient_grouped":
        raise ConfigError(
            "patient_grouped evaluation needs patient ids, which feature CSVs do not "
            "carry; use the library API on a corpus-derived matrix instead")
    spec = ModelSpec(kind=settings["model.kind"], hyper=settings["model.hyper"],
                     seed=settings["model.seed"])
    max_features = spec.resolved().get("max_features")  # a bad kind or hyperparameter exits here
    split_cfg = SplitConfig(test_fraction=settings["test_fraction"],
                            stratified=settings["stratified"], grouping=settings["grouping"])
    if args.mode == "consensus":
        outcomes = [_read_json(path, evaluate.rfe_outcome_from_obj) for path in args.rfe]
    else:
        matrix = features.read_csv(args.features)
    if args.mode in ("single", "ablation") and type(max_features) is int:
        width = (len(evaluate.ablation_column_sets(matrix.names)["baseline"])
                 if args.mode == "ablation" else matrix.X.shape[1])
        if max_features > width:
            raise ConfigError(f"{spec.kind}: hyperparameter 'max_features' must be <= {width}, "
                              f"the width of the narrowest column set eval {args.mode} fits, "
                              f"got {max_features}")
    least_counts = {"rfe": (("rfe_folds", 2), ("rfe_repeats", 1)),
                    "single": (("n_runs", 1),), "ablation": (("n_runs", 1),)}
    for key, least in least_counts.get(args.mode, ()):
        if settings[key] < least:
            raise ConfigError(f"config key {key!r} must be at least {least}, got {settings[key]}")
    if args.mode == "rfe":
        evaluate.check_rfe(matrix, spec, settings["rfe_folds"], settings["rfe_repeats"])
    elif args.mode in ("single", "ablation"):
        split_cfg.validate()
    # Only once the inputs have loaded and been checked, so a rejected input leaves no directory.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = [args.features]

    if args.mode == "consensus":
        obj = {"consensus_eliminated": evaluate.consensus_elimination(outcomes),
               "sources": [str(p) for p in args.rfe]}
        text = evaluate.render_consensus_text(obj)
        stem, inputs = "consensus", list(args.rfe)
    elif args.mode == "single":
        report = evaluate.repeated_eval(matrix, spec, split_cfg, n_runs=settings["n_runs"],
                                        master_seed=settings["master_seed"], workers=args.workers)
        obj = evaluate.runs_report_obj(report)
        text = evaluate.render_runs_text(obj)
        stem = "eval_single"
    elif args.mode == "ablation":
        report = evaluate.ablation(matrix, spec, split_cfg, n_runs=settings["n_runs"],
                                   master_seed=settings["master_seed"], workers=args.workers)
        obj = evaluate.ablation_report_obj(report)
        text = evaluate.render_ablation_text(obj)
        stem = "eval_ablation"
    else:  # rfe
        outcome = evaluate.rfe(matrix, spec, folds=settings["rfe_folds"],
                               repeats=settings["rfe_repeats"],
                               master_seed=settings["master_seed"], workers=args.workers)
        obj = evaluate.rfe_outcome_obj(outcome)
        text = evaluate.render_rfe_text(obj)
        stem = "eval_rfe"

    report_path = out / f"{stem}.json"
    _dump_json(obj, report_path)
    (out / f"{stem}.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    _write_manifest(out, f"eval {args.mode}", settings, inputs,
                    [report_path, out / f"{stem}.txt"], settings["master_seed"], started)
    return EXIT_OK


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, parse=lambda obj: obj):
    """``parse`` of the JSON in ``path``; a DataError naming the file if that fails."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as e:  # not JSON, or not UTF-8
            raise DataError(f"{path}: not JSON ({e})") from None
        except DataError as e:
            raise DataError(f"{path}: {e}") from None


def cmd_report(args) -> int:
    """Prints a JSON report as text, exactly as ``eval`` wrote it next to the JSON."""
    obj = _read_json(args.report)
    layouts = {"table": evaluate.render_ablation_text, "mean": evaluate.render_runs_text,
               "best_set": evaluate.render_rfe_text,
               "consensus_eliminated": evaluate.render_consensus_text}
    render = next((layouts[k] for k in layouts if isinstance(obj, dict) and k in obj), None)
    if render is None:
        raise ConfigError(f"{args.report}: unrecognized report layout")
    try:
        text = render(obj)
    except (KeyError, TypeError, ValueError, AttributeError) as e:  # a field missing or mistyped
        raise DataError(f"{args.report}: incomplete report ({e!r})") from None
    print(text, end="")
    return EXIT_OK


def cmd_defaults(args) -> int:
    """Prints every default as a line that config files and ``--set`` read back."""
    sections = [(f"{command} defaults", table, ":") for command, table in (
        ("gen", GEN_DEFAULTS), ("train-nlp", TRAIN_NLP_DEFAULTS), ("eval", EVAL_DEFAULTS))]
    sections += [(f"eval hyperparameters of {kind}",
                  {"model.kind": kind, **{f"model.{k}": v for k, v in hyper.items()}}, ",")
                 for kind, hyper in classifiers.DEFAULT_HYPERPARAMETERS.items()]
    for title, table, sep in sections:
        print(f"# {title}")
        for key, value in table.items():
            print(f"{key} = {_format(value, sep)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readmit",
        description="Synthetic EHR generation, NLP feature extraction, and "
                    "readmission-risk evaluation experiments.")
    parser.add_argument("--version", action="version", version=f"readmit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus, sentiment seed, and ground truth")
    p.add_argument("--config", help="flat key=value generator config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable; wins over the file)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-nlp", help="train the topic model and seven sentiment models")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed-file", required=True, help="sentiment seed JSONL")
    p.add_argument("--lexicon", help="lexicon JSON (defaults to the shipped one)")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_nlp)

    p = sub.add_parser("extract", help="extract the per-admission feature matrix CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", required=True, help="directory from train-nlp")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eval", help="evaluation protocols over a feature CSV")
    p.add_argument("mode", choices=("single", "ablation", "rfe", "consensus"))
    p.add_argument("--features", help="feature CSV from extract")
    p.add_argument("--rfe", nargs=3, metavar="RFE_JSON",
                   help="three RFE reports (consensus mode)")
    p.add_argument("--config", help="flat key=value eval config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--workers", type=int, default=1,
                   help="forked worker processes, one BLAS thread each (never changes outputs; "
                        "about 30 ms to start, pays only with 2 or more usable CPUs)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render a JSON report as text")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("defaults", help="print all config defaults")
    p.set_defaults(func=cmd_defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        if args.mode == "consensus" and not args.rfe:
            parser.error("eval consensus requires --rfe with three report paths")
        if args.mode != "consensus" and not args.features:
            parser.error(f"eval {args.mode} requires --features")
        if args.workers < 1:
            parser.error("--workers must be >= 1")
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ReadmitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
