"""Evaluation protocol: metrics, repeated splits, ablations, and RFE.

Every run, fold and repeat draws its seed from the master seed via
``derive_seed``, so reports are pure functions of (data, master seed,
config) and identical whether work runs sequentially or in parallel.
Repeated evaluation and RFE share one impute-fit-score step: ``_fold_data``
imputes each split on its own training rows, then ``_fit_and_score`` fits,
scores and explains every split.
"""

from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import classifiers, pool
from .classifiers import ModelSpec
from .errors import ConfigError, DataError, MetricUndefinedError
from .features import FeatureMatrix, FeatureSchema, Imputer
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


def _fold_data(spec: ModelSpec, matrix: FeatureMatrix, splits):
    """Each (train, test) split of ``matrix`` imputed with its training rows'
    column means: the ``classifiers.fit_data`` of the training parts stacked,
    each split's rows in it, and each split's (imputed test rows, labels)."""
    parts = []
    for train, test in splits:
        imputer = Imputer.fit(matrix.X[train])
        parts.append((imputer.transform(matrix.X[train]), imputer.transform(matrix.X[test])))
    data = classifiers.fit_data(spec, np.vstack([X for X, _ in parts]),
                                np.concatenate([matrix.y[train] for train, _ in splits]))
    bounds = np.cumsum([len(train) for train, _ in splits])
    return (data, np.split(np.arange(bounds[-1]), bounds[:-1]),
            [(X_test, matrix.y[test]) for (_, X_test), (_, test) in zip(parts, splits)])


def _fit_and_score(spec: ModelSpec, data: classifiers.FitData, rows, tests, seeds) -> list:
    """Per split i, (MetricSet on ``tests[i]`` = (X, y), importances on its
    training rows), fit on ``data`` at ``rows[i]`` with ``seeds[i]`` = (fit
    seed, importance seed); all fits run in one ``classifiers.train_fits`` call."""
    clfs = classifiers.train_fits(spec, data, zip(rows, [fit for fit, _ in seeds]))
    return [(metrics(y_test, clf.predict_proba(X_test)),
             classifiers.importances(clf, data.X[r], data.y[r], seed=imp_seed))
            for clf, r, (X_test, y_test), (_, imp_seed) in zip(clfs, rows, tests, seeds)]


# Runs per block of repeated_eval. A block holds its runs' imputed and
# standardized matrices and their stacked training rows at once, about 1.7 MB
# a run at CLI defaults (567 rows, 109 columns; 2.5 MB with a tree kind's rank
# tables), for one train_fits call. Per MLP fit, a training step on a 2-CPU
# Xeon cost 100 us alone, 57 in a stack of 3, 51 of 4, 43 of 8; more gained little.
_BLOCK_RUNS = 8


def _blocks(n_runs: int, workers: int) -> list[range]:
    """Contiguous blocks of run indices, at least one per worker, at most
    ``_BLOCK_RUNS`` runs each, as even as can be."""
    count = max(min(workers, n_runs), -(-n_runs // _BLOCK_RUNS))
    bounds = [n_runs * b // count for b in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _run_block(matrix: FeatureMatrix, spec: ModelSpec, split_config: SplitConfig,
               master_seed: int, block: range) -> list:
    """(RunRecord, importances) of each run of ``block``, from one impute-fit-score step.

    When a run fails, the block is redone one run at a time, so the error
    raised is that of its lowest failing run, as in a run-by-run loop.
    """
    try:
        run_seeds = [derive_seed(master_seed, "run", r) for r in block]
        splits = [split(matrix, replace(split_config, seed=derive_seed(s, "split")))
                  for s in run_seeds]
        scored = _fit_and_score(spec, *_fold_data(spec, matrix, splits),
                                [(derive_seed(s, "fit"), derive_seed(s, "importance"))
                                 for s in run_seeds])
        return [(RunRecord(seed=s, metrics=mset, top_features=[
                     matrix.names[j] for j in np.argsort(-imp, kind="stable")[:10]]), imp)
                for s, (mset, imp) in zip(run_seeds, scored)]
    except Exception:
        if len(block) == 1:
            raise
        return [result for r in block
                for result in _run_block(matrix, spec, split_config, master_seed, range(r, r + 1))]


def repeated_eval(matrix: FeatureMatrix, spec: ModelSpec,
                  split_config: Optional[SplitConfig] = None,
                  n_runs: int = 100, master_seed: int = 0, workers: int = 1) -> RunsReport:
    """Split/fit/score ``n_runs`` times; aggregate means, stds, importances.

    Each run records its ten most important columns. Runs go to the
    workers in contiguous blocks (``_blocks``), and each block is one
    impute-fit-score step (``_fold_data``, then ``_fit_and_score``) over its
    runs' splits; a run's result does not depend on its block.
    """
    split_config = split_config or SplitConfig()
    if n_runs < 1:
        raise ConfigError(f"n_runs must be positive, got {n_runs}")

    blocks = _blocks(n_runs, workers)
    results = [result for block in pool.map_jobs(
        lambda b: _run_block(matrix, spec, split_config, master_seed, blocks[b]),
        len(blocks), workers) for result in block]

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
    return FeatureMatrix(schema=FeatureSchema([matrix.names[j] for j in cols]),
                         X=matrix.X[:, cols], y=matrix.y, admission_ids=matrix.admission_ids,
                         patient_ids=matrix.patient_ids)


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


def check_rfe(matrix: FeatureMatrix, spec: ModelSpec, folds: int, repeats: int) -> None:
    """Raises what ``rfe`` would meet on these arguments, before any fit."""
    if folds < 2:
        raise ConfigError(f"RFE needs at least 2 folds, got {folds}")
    if repeats < 1:
        raise ConfigError(f"RFE needs at least 1 repeat, got {repeats}")
    if matrix.X.shape[1] < 2:
        raise DataError("RFE needs a matrix with at least 2 columns")
    smaller = min(int(np.sum(matrix.y == c)) for c in (0.0, 1.0))
    if smaller < folds:
        raise DataError(f"the smaller class has {smaller} rows, fewer than the {folds} folds; "
                        "every fold needs rows of both classes")
    max_features = spec.resolved().get("max_features")
    if type(max_features) is int and max_features != 1:
        raise ConfigError(f"RFE fits down to 1 column, so an integer max_features must be 1, "
                          f"got {max_features}")


def rfe(matrix: FeatureMatrix, spec: ModelSpec, folds: int = 3, repeats: int = 30,
        master_seed: int = 0, workers: int = 1) -> RfeOutcome:
    """Cross-validated recursive feature elimination, one column per step.

    Per repeat: stratified k-fold CV; at each width the mean CV F1 is
    recorded and the column with the lowest fold-averaged importance is
    dropped. The best set per repeat is the width maximizing mean CV F1
    (ties favor the smaller set); the overall best is the repeat with the
    highest best score.

    A repeat runs ``_fold_data`` once over its folds, and each width runs
    ``_fit_and_score`` on the columns still standing, cut from it. Each fit
    equals ``classifiers.train`` on its fold imputed alone.
    """
    check_rfe(matrix, spec, folds, repeats)
    names = list(matrix.names)
    widths = range(len(names), 0, -1)

    def one_repeat(rep: int) -> RfeRepeat:
        rep_seed = derive_seed(master_seed, "rfe", rep)
        fold_of = _stratified_folds(matrix.y, folds, np.random.default_rng(rep_seed))
        data, fold_rows, tests = _fold_data(spec, matrix, [
            (np.flatnonzero(fold_of != k), np.flatnonzero(fold_of == k)) for k in range(folds)])
        active = list(range(len(names)))
        order: list[str] = []
        scores: list[float] = []
        for width in widths:
            # Fortran-ordered cuts: C-ordered ones move linear fits' last bits.
            scored = _fit_and_score(spec, data.columns(active), fold_rows,
                                    [(X[:, active], y) for X, y in tests],
                                    [(derive_seed(rep_seed, "fold", k, width),
                                      derive_seed(rep_seed, "imp", k, width)) for k in range(folds)])
            scores.append(float(np.mean([mset.f1 for mset, _ in scored])))
            if width > 1:
                imp_sum = sum(imp for _, imp in scored)
                order.append(names[active.pop(int(np.argmin(imp_sum / folds)))])
        # ties favor the smaller set, i.e. the latest width achieving the max
        best_pos = len(scores) - 1 - int(np.argmax(scores[::-1]))
        dropped = set(order[:best_pos])
        return RfeRepeat(
            elimination_order=order, cv_scores=scores, widths=list(widths),
            best_width=len(names) - best_pos,
            best_set=[name for name in names if name not in dropped],
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
