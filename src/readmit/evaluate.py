"""Evaluation protocol: metrics, repeated splits, ablations, and RFE.

Every run, fold and repeat draws its seed from the master seed via
``derive_seed``, so reports are pure functions of (data, master seed,
config) and identical whether work runs sequentially or in parallel.
"""

from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import classifiers, pool
from .classifiers import ModelSpec
from .errors import ConfigError, DataError, MetricUndefinedError
from .features import FeatureMatrix, Imputer
from .seeding import derive_seed

ABLATION_CONFIGS = ("baseline", "baseline_domain_sentences", "baseline_clinical_sentiment")
ABLATION_TITLES = {
    "baseline": "Baseline",
    "baseline_domain_sentences": "Baseline+Domain Sentences",
    "baseline_clinical_sentiment": "Baseline+Clinical Sentiment",
}
_SENTENCE_PREFIX = "sentence_fraction_"
_SENTIMENT_PREFIX = "clinical_sentiment_"


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = 0.2
    stratified: bool = True
    grouping: str = "admission_level"  # or "patient_grouped"
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.grouping not in ("admission_level", "patient_grouped"):
            raise ConfigError(f"unknown grouping {self.grouping!r}")


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    auc: float
    f1: float


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; a group of tied scores shares the mean of its ranks."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True,
                                   equal_nan=False)
    end = np.cumsum(counts)  # the highest rank in each group
    return (end - (counts - 1) / 2.0)[inverse]


def auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Rank-statistic AUC; tied pairs count one half."""
    y_true = np.asarray(y_true, dtype=float)
    y_score = np.asarray(y_score, dtype=float)
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC undefined: y_true contains a single class")
    ranks = _average_ranks(y_score)
    rank_sum = float(ranks[y_true == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def metrics(y_true, y_score) -> MetricSet:
    """Accuracy and F1 at threshold 0.5 plus rank-statistic AUC.

    Positive class is the readmitted one; F1 is 0 when precision+recall
    is 0. Predictions are positive when score >= 0.5.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_score = np.asarray(y_score, dtype=float)
    if y_true.shape != y_score.shape:
        raise DataError("y_true and y_score lengths differ")
    # NaN fails both comparisons, so it is rejected with the out-of-range scores
    if not np.all((y_score >= 0) & (y_score <= 1)):
        raise DataError("y_score entries must be finite and lie in [0, 1]")
    y_pred = (y_score >= 0.5).astype(float)
    accuracy = float(np.sum(y_pred == y_true)) / len(y_true)
    return MetricSet(accuracy=accuracy, auc=auc_score(y_true, y_score),
                     f1=classifiers.f1_score(y_true, y_pred))


def split(matrix: FeatureMatrix, config: SplitConfig):
    """(train_idx, test_idx); stratified within class, deterministic per seed.

    patient_grouped mode keeps all of a patient's rows on one side; it
    needs a matrix that carries patient ids. A split that leaves either
    side with a single class raises DataError, since no metric is defined
    on it.
    """
    config.validate()
    y = matrix.y
    rng = np.random.default_rng(config.seed)

    if config.grouping == "patient_grouped":
        if not matrix.patient_ids:
            raise ConfigError("patient_grouped split requires patient ids")
        train, test = _grouped_split(y, np.asarray(matrix.patient_ids), config, rng)
    else:
        groups = ([np.flatnonzero(y == cls) for cls in (0.0, 1.0)] if config.stratified
                  else [np.arange(len(y))])
        test_parts = []
        for cls, idx in enumerate(groups):
            if config.stratified and len(idx) < 2:
                raise DataError(f"class {cls} has fewer than 2 rows; cannot stratify")
            n_test = int(np.clip(round(config.test_fraction * len(idx)), 1, len(idx) - 1))
            test_parts.append(idx[rng.permutation(len(idx))][:n_test])
        test = np.sort(np.concatenate(test_parts))
        train = np.setdiff1d(np.arange(len(y)), test)
    # A stratified split always passes: each class has a row on each side.
    for side, name in ((train, "train"), (test, "test")):
        if len(side) == 0 or y[side].min() == y[side].max():
            hint = ("" if config.grouping == "patient_grouped"
                    else "; set stratified = true to keep both classes on each side")
            raise DataError(f"{config.grouping} split (seed {config.seed}) left the {name} "
                            f"side with a single class{hint}")
    return train, test


def _grouped_split(y, patient_ids, config: SplitConfig, rng):
    unique = list(dict.fromkeys(patient_ids))
    order = rng.permutation(len(unique))
    target = round(config.test_fraction * len(y))
    test_rows: list[int] = []
    for k in order:
        if len(test_rows) >= target:
            break
        test_rows.extend(np.flatnonzero(patient_ids == unique[k]).tolist())
    test = np.sort(np.array(test_rows, dtype=int))
    return np.setdiff1d(np.arange(len(y)), test), test


@dataclass
class RunRecord:
    seed: int
    metrics: MetricSet
    top_features: list[str]


@dataclass
class RunsReport:
    model_kind: str
    n_runs: int
    master_seed: int
    runs: list[RunRecord]
    mean: dict[str, float]
    std: dict[str, float]
    mean_importance: dict[str, float]


def _fit_and_score(spec: ModelSpec, X: np.ndarray, y: np.ndarray, train_idx: np.ndarray,
                   test_idx: np.ndarray, fit_seed: int, imp_seed: int):
    """(MetricSet on the test rows, importances on the training rows).

    The imputer is fit on the training rows of X only, so callers pass X
    already cut to the columns the model sees.
    """
    X_train = X[train_idx]
    imputer = Imputer.fit(X_train)
    X_train = imputer.transform(X_train)
    X_test = imputer.transform(X[test_idx])
    clf = classifiers.train(replace(spec, seed=fit_seed), X_train, y[train_idx])
    mset = metrics(y[test_idx], clf.predict_proba(X_test))
    imp = classifiers.importances(clf, X_train, y[train_idx], seed=imp_seed)
    return mset, imp


def _one_run(matrix: FeatureMatrix, spec: ModelSpec, split_config: SplitConfig,
             master_seed: int, r: int):
    run_seed = derive_seed(master_seed, "run", r)
    cfg = replace(split_config, seed=derive_seed(run_seed, "split"))
    train_idx, test_idx = split(matrix, cfg)
    mset, imp = _fit_and_score(spec, matrix.X, matrix.y, train_idx, test_idx,
                               derive_seed(run_seed, "fit"), derive_seed(run_seed, "importance"))
    top = [matrix.names[j] for j in np.argsort(-imp, kind="stable")[:10]]
    return RunRecord(seed=run_seed, metrics=mset, top_features=top), imp


def repeated_eval(matrix: FeatureMatrix, spec: ModelSpec,
                  split_config: Optional[SplitConfig] = None,
                  n_runs: int = 100, master_seed: int = 0, workers: int = 1) -> RunsReport:
    """Split/fit/score ``n_runs`` times; aggregate means, stds, importances.

    Each run records its ten most important columns.
    """
    split_config = split_config or SplitConfig()
    if n_runs < 1:
        raise ConfigError(f"n_runs must be positive, got {n_runs}")

    results = pool.map_jobs(lambda r: _one_run(matrix, spec, split_config, master_seed, r),
                   n_runs, workers)

    runs = [r for r, _ in results]
    imp_sum = np.sum([imp for _, imp in results], axis=0)
    imp_mean = imp_sum / n_runs
    per_metric = {
        name: np.array([getattr(r.metrics, name) for r in runs])
        for name in ("accuracy", "auc", "f1")
    }
    return RunsReport(
        model_kind=spec.kind, n_runs=n_runs, master_seed=master_seed, runs=runs,
        mean={k: float(v.mean()) for k, v in per_metric.items()},
        std={k: float(v.std()) for k, v in per_metric.items()},
        mean_importance={matrix.names[j]: float(imp_mean[j]) for j in range(len(imp_mean))},
    )


def ablation_column_sets(names: Sequence[str]) -> dict[str, list[int]]:
    """Column indices for the three feature-set configurations."""
    baseline = [j for j, n in enumerate(names)
                if not n.startswith(_SENTENCE_PREFIX) and not n.startswith(_SENTIMENT_PREFIX)]
    sentences = [j for j, n in enumerate(names) if n.startswith(_SENTENCE_PREFIX)]
    sentiments = [j for j, n in enumerate(names) if n.startswith(_SENTIMENT_PREFIX)]
    return {
        "baseline": baseline,
        "baseline_domain_sentences": baseline + sentences,
        "baseline_clinical_sentiment": baseline + sentiments,
    }


def _subset_matrix(matrix: FeatureMatrix, cols: Sequence[int]) -> FeatureMatrix:
    from .features import FeatureSchema
    schema = FeatureSchema([matrix.schema.columns[j] for j in cols])
    return FeatureMatrix(schema=schema, X=matrix.X[:, cols], y=matrix.y,
                         admission_ids=matrix.admission_ids, patient_ids=matrix.patient_ids)


@dataclass
class AblationReport:
    model_kind: str
    n_runs: int
    master_seed: int
    table: dict[str, dict[str, float]]  # config -> metric means/stds
    relative_f1_improvement: float
    reports: dict[str, RunsReport]


def ablation(matrix: FeatureMatrix, spec: ModelSpec,
             split_config: Optional[SplitConfig] = None,
             n_runs: int = 100, master_seed: int = 0, workers: int = 1) -> AblationReport:
    """repeated_eval for each feature-set configuration over identical seeds."""
    sets = ablation_column_sets(matrix.names)
    reports: dict[str, RunsReport] = {}
    for name in ABLATION_CONFIGS:
        sub = _subset_matrix(matrix, sets[name])
        reports[name] = repeated_eval(sub, spec, split_config, n_runs=n_runs,
                                      master_seed=master_seed, workers=workers)
    table = {
        name: {
            "accuracy": reports[name].mean["accuracy"],
            "auc": reports[name].mean["auc"],
            "f1": reports[name].mean["f1"],
            "accuracy_std": reports[name].std["accuracy"],
            "auc_std": reports[name].std["auc"],
            "f1_std": reports[name].std["f1"],
        }
        for name in ABLATION_CONFIGS
    }
    base_f1 = table["baseline"]["f1"]
    best_f1 = max(t["f1"] for t in table.values())
    improvement = (best_f1 - base_f1) / base_f1 if base_f1 > 0 else 0.0
    return AblationReport(model_kind=spec.kind, n_runs=n_runs, master_seed=master_seed,
                          table=table, relative_f1_improvement=improvement, reports=reports)


def _stratified_folds(y: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    assignment = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        assignment[idx[rng.permutation(len(idx))]] = np.arange(len(idx)) % folds
    return assignment


@dataclass
class RfeRepeat:
    elimination_order: list[str]  # dropped first -> last
    cv_scores: list[float]        # mean CV F1 at each width, widest first
    widths: list[int]
    best_width: int
    best_set: list[str]
    best_score: float


@dataclass
class RfeOutcome:
    model_kind: str
    folds: int
    repeats: int
    master_seed: int
    schema_names: list[str]
    repeats_detail: list[RfeRepeat]
    best_repeat: int
    best_set: list[str]
    best_score: float


def rfe(matrix: FeatureMatrix, spec: ModelSpec, folds: int = 3, repeats: int = 30,
        master_seed: int = 0, workers: int = 1) -> RfeOutcome:
    """Cross-validated recursive feature elimination, one column per step.

    Per repeat: stratified k-fold CV; at each width the mean CV F1 is
    recorded and the column with the lowest fold-averaged importance is
    dropped. The best set per repeat is the width maximizing mean CV F1
    (ties favor the smaller set); the overall best is the repeat with the
    highest best score.
    """
    if matrix.X.shape[1] < 2:
        raise DataError("RFE needs a matrix with at least 2 columns")
    names = list(matrix.names)

    def one_repeat(rep: int) -> RfeRepeat:
        rep_seed = derive_seed(master_seed, "rfe", rep)
        rng = np.random.default_rng(rep_seed)
        fold_of = _stratified_folds(matrix.y, folds, rng)
        fold_idx = [(np.flatnonzero(fold_of != k), np.flatnonzero(fold_of == k))
                    for k in range(folds)]
        active = list(range(len(names)))
        order: list[str] = []
        widths: list[int] = []
        scores: list[float] = []
        sets: list[list[int]] = []
        while active:
            X = matrix.X[:, active]
            f1s = []
            imp_sum = np.zeros(len(active))
            for k, (tr, te) in enumerate(fold_idx):
                mset, imp = _fit_and_score(spec, X, matrix.y, tr, te,
                                           derive_seed(rep_seed, "fold", k, len(active)),
                                           derive_seed(rep_seed, "imp", k, len(active)))
                f1s.append(mset.f1)
                imp_sum += imp
            widths.append(len(active))
            scores.append(float(np.mean(f1s)))
            sets.append(list(active))
            if len(active) == 1:
                break
            drop_pos = int(np.argmin(imp_sum / folds))
            order.append(names[active[drop_pos]])
            active.pop(drop_pos)
        # ties favor the smaller set, i.e. the latest width achieving the max
        best_pos = len(scores) - 1 - int(np.argmax(scores[::-1]))
        return RfeRepeat(
            elimination_order=order, cv_scores=scores, widths=widths,
            best_width=widths[best_pos],
            best_set=[names[j] for j in sets[best_pos]],
            best_score=scores[best_pos],
        )

    details = pool.map_jobs(one_repeat, repeats, workers)
    best_repeat = int(np.argmax([d.best_score for d in details]))
    return RfeOutcome(
        model_kind=spec.kind, folds=folds, repeats=repeats, master_seed=master_seed,
        schema_names=names, repeats_detail=details, best_repeat=best_repeat,
        best_set=details[best_repeat].best_set,
        best_score=details[best_repeat].best_score,
    )


def consensus_elimination(outcomes: Sequence[RfeOutcome]) -> list[str]:
    """Feature values safely eliminated in at least two of three outcomes.

    A column counts as safely eliminated in an outcome when it was part of
    that outcome's schema but absent from its best set: the best CV score
    was achieved without it, so its removal never reduced the best score.
    """
    if len(outcomes) != 3:
        raise ConfigError(f"consensus requires exactly 3 outcomes, got {len(outcomes)}")
    counts: dict[str, int] = {}
    for o in outcomes:
        schema = set(o.schema_names)
        best = set(o.best_set)
        if not best <= schema:
            raise DataError("RFE outcome best set contains columns missing from its schema")
        for name in schema - best:
            counts[name] = counts.get(name, 0) + 1
    return sorted(name for name, c in counts.items() if c >= 2)


# ------------------------------------------------------------- rendering

def runs_report_obj(report: RunsReport) -> dict:
    return {
        "model_kind": report.model_kind,
        "n_runs": report.n_runs,
        "master_seed": report.master_seed,
        "mean": report.mean,
        "std": report.std,
        "per_run": [
            {"seed": r.seed, **asdict(r.metrics), "top_features": r.top_features}
            for r in report.runs
        ],
        "mean_importance": report.mean_importance,
    }


def ablation_report_obj(report: AblationReport) -> dict:
    return {
        "model_kind": report.model_kind,
        "n_runs": report.n_runs,
        "master_seed": report.master_seed,
        "table": report.table,
        "relative_f1_improvement": report.relative_f1_improvement,
        "configurations": {k: runs_report_obj(v) for k, v in report.reports.items()},
    }


def rfe_outcome_obj(outcome: RfeOutcome) -> dict:
    return asdict(outcome)


def rfe_outcome_from_obj(obj: dict) -> RfeOutcome:
    """The outcome ``rfe_outcome_obj`` wrote; a DataError on a missing or unknown key."""
    try:
        return RfeOutcome(**{**obj, "repeats_detail": [RfeRepeat(**d) for d in obj["repeats_detail"]]})
    except (KeyError, TypeError) as e:
        raise DataError(f"not an RFE report: {e!r}") from None


def render_ablation_text(obj: dict) -> str:
    """Plain-text results table of an ablation_report_obj, rows in ascending F1 order."""
    table = obj["table"]
    rows = sorted(ABLATION_CONFIGS, key=lambda name: table[name]["f1"])
    lines = [
        f"Model: {obj['model_kind']} ({obj['n_runs']} runs per configuration, "
        f"seed {obj['master_seed']})",
        f"{'Configuration':<30}{'Acc':>8}{'AUC':>8}{'F1':>8}",
    ]
    for name in rows:
        t = table[name]
        lines.append(f"{ABLATION_TITLES[name]:<30}{t['accuracy']:>8.2f}{t['auc']:>8.2f}{t['f1']:>8.2f}")
    lines.append(f"Best-vs-baseline F1 improvement: {100 * obj['relative_f1_improvement']:.1f}%")
    return "\n".join(lines) + "\n"


def render_runs_text(obj: dict) -> str:
    """Metric means and stds of a runs_report_obj, then the ten most important columns.

    Equal importances rank by column name, so the text does not depend on
    the key order of ``mean_importance`` (JSON reports store keys sorted).
    """
    m, s = obj["mean"], obj["std"]
    lines = [
        f"Model: {obj['model_kind']} ({obj['n_runs']} runs, seed {obj['master_seed']})",
        f"{'Metric':<10}{'Mean':>8}{'Std':>8}",
        f"{'Acc':<10}{m['accuracy']:>8.3f}{s['accuracy']:>8.3f}",
        f"{'AUC':<10}{m['auc']:>8.3f}{s['auc']:>8.3f}",
        f"{'F1':<10}{m['f1']:>8.3f}{s['f1']:>8.3f}",
    ]
    top = sorted(obj["mean_importance"].items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    lines.append("Top features by mean importance:")
    for name, value in top:
        lines.append(f"  {name:<40}{value:.4f}")
    return "\n".join(lines) + "\n"


def render_rfe_text(obj: dict) -> str:
    """Best column set of an rfe_outcome_obj, one name per line."""
    return (f"RFE best set ({len(obj['best_set'])} columns, CV F1 {obj['best_score']:.3f}):\n"
            + "".join(f"  {n}\n" for n in obj["best_set"]))


def render_consensus_text(obj: dict) -> str:
    """The consensus-eliminated columns of an ``eval consensus`` report."""
    return ("Consensus-eliminated feature values:\n"
            + "".join(f"  {n}\n" for n in obj["consensus_eliminated"]))
