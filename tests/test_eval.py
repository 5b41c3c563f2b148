import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from readmit import classifiers, evaluate, pool
from readmit.classifiers import ModelSpec
from readmit.errors import ConfigError, DataError, MetricUndefinedError
from readmit.evaluate import (SplitConfig, ablation, ablation_column_sets,
                              auc_score, consensus_elimination, metrics,
                              repeated_eval, rfe, split, RfeOutcome, RfeRepeat)
from readmit.features import FeatureMatrix, FeatureSchema, Imputer
from readmit.seeding import derive_seed

from helpers import (brute_force_auc, confusion_tally, reference_grouped_test_rows,
                     reference_rfe, reference_stratified_folds)


def _matrix(seed=0, n=60, d=6, names=None, signal=1.8):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    p = 1 / (1 + np.exp(-signal * X[:, 0]))
    y = (rng.random(n) < p).astype(float)
    names = names or [f"c{i}" for i in range(d)]
    schema = FeatureSchema(names)
    return FeatureMatrix(schema=schema, X=X, y=y,
                         admission_ids=tuple(f"a{i}" for i in range(n)),
                         patient_ids=tuple(f"p{i // 3}" for i in range(n)))


def _labels_matrix(y):
    """A one-column matrix carrying the labels ``y``."""
    y = np.array(y, dtype=float)
    return FeatureMatrix(schema=FeatureSchema(["c0"]),
                         X=np.zeros((len(y), 1)), y=y)


def test_split_stratified_exact_counts():
    y = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=float)
    train, test = split(_labels_matrix(y), SplitConfig(test_fraction=0.2, seed=1))
    assert len(test) == 2
    assert y[test].sum() == 1.0
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))


def test_split_deterministic():
    m = _labels_matrix([0, 1] * 20)
    a = split(m, SplitConfig(seed=5))
    b = split(m, SplitConfig(seed=5))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = split(m, SplitConfig(seed=6))
    assert not np.array_equal(a[1], c[1])


def test_split_infeasible():
    with pytest.raises(DataError):
        split(_labels_matrix([1, 0, 0, 0, 0]), SplitConfig(test_fraction=0.2, seed=0))


def test_unstratified_split_rejects_a_single_class_side():
    m = _labels_matrix([1, 1] + [0] * 8)
    raised = 0
    for seed in range(20):
        train, test = split(m, SplitConfig(test_fraction=0.2, seed=seed))
        assert set(m.y[train]) == set(m.y[test]) == {0.0, 1.0}
        try:
            train, test = split(m, SplitConfig(test_fraction=0.2, stratified=False, seed=seed))
        except DataError as exc:
            raised += 1
            assert re.fullmatch(rf"admission_level split \(seed {seed}\) left the (train|test) "
                                r"side with a single class; set stratified = true to keep both "
                                r"classes on each side", str(exc))
        else:
            assert set(m.y[train]) == set(m.y[test]) == {0.0, 1.0}
    assert 0 < raised < 20
    # a patient per class: each grouped split puts one class on each side
    grouped = FeatureMatrix(schema=m.schema, X=m.X, y=m.y,
                            patient_ids=tuple("p1" if v else "p0" for v in m.y))
    with pytest.raises(DataError, match=r"^patient_grouped split \(seed 4\) left the train side "
                                        r"with a single class$"):
        split(grouped, SplitConfig(test_fraction=0.2, grouping="patient_grouped", seed=4))


def test_split_patient_grouped_never_straddles():
    m = _matrix(n=60)
    cfg = SplitConfig(test_fraction=0.3, grouping="patient_grouped", seed=3)
    train, test = split(m, cfg)
    train_p = {m.patient_ids[i] for i in train}
    test_p = {m.patient_ids[i] for i in test}
    assert not (train_p & test_p)


def test_folds_and_grouped_split_match_reference_loops():
    rng = np.random.default_rng(66)
    for s in range(20):
        n = int(rng.integers(40, 200))
        y = (rng.random(n) < 0.4).astype(float)
        folds = int(rng.integers(2, 6))
        assert np.array_equal(evaluate._stratified_folds(y, folds, np.random.default_rng(s)),
                              reference_stratified_folds(y, folds, np.random.default_rng(s)))
        pids = rng.integers(0, n // 3, n)
        if s % 2:
            pids = np.array([f"p{v}" for v in pids])
        cfg = SplitConfig(test_fraction=0.3, grouping="patient_grouped")
        train, test = evaluate._grouped_split(y, pids, cfg, np.random.default_rng(s))
        assert test.tolist() == reference_grouped_test_rows(pids.tolist(), 0.3,
                                                            np.random.default_rng(s))
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))


def test_split_validation():
    with pytest.raises(ConfigError):
        SplitConfig(test_fraction=0.0).validate()
    with pytest.raises(ConfigError):
        SplitConfig(grouping="hospital_level").validate()


def test_metrics_perfect():
    m = metrics([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
    assert (m.accuracy, m.auc, m.f1) == (1.0, 1.0, 1.0)


def test_metrics_worked_example():
    # brute force over the 4 (pos, neg) pairs gives 3/4
    y = [1, 0, 1, 0]
    s = [0.9, 0.8, 0.4, 0.1]
    assert brute_force_auc(y, s) == 0.75
    assert metrics(y, s).auc == pytest.approx(0.75, abs=1e-15)


def test_metrics_all_negative_predictions():
    y = [1, 1, 0, 0]
    s = [0.2, 0.3, 0.1, 0.0]
    m = metrics(y, s)
    assert m.accuracy == 0.5
    assert m.f1 == 0.0


def test_metrics_single_class_error():
    with pytest.raises(MetricUndefinedError):
        metrics([1, 1, 1], [0.5, 0.6, 0.7])


def test_metrics_score_range_checked():
    with pytest.raises(DataError):
        metrics([1, 0], [1.5, 0.2])


def test_metrics_non_finite_score_rejected():
    # NaN compares false with both ends of [0, 1]; it used to pass as AUC 0.75
    with pytest.raises(DataError, match="finite"):
        metrics([0, 1, 0, 1], [np.nan, 0.7, 0.2, np.nan])
    with pytest.raises(DataError, match="finite"):
        metrics([0, 1], [0.2, np.inf])


def test_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        assert abs(auc_score(y, scores) - brute_force_auc(y, scores)) <= 1e-12
        for scores in (np.full(n, 0.3), rng.choice([0.2, 0.9], n)):  # all tied; two values
            assert abs(auc_score(y, scores) - brute_force_auc(y, scores)) <= 1e-12


def test_auc_invariant_to_monotone_score_transform():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, 40).astype(float)
    y[0], y[1] = 0, 1
    s = rng.random(40)
    a = auc_score(y, s)
    assert auc_score(y, np.exp(2 * s) / np.exp(2)) == pytest.approx(a, abs=1e-12)


def test_f1_accuracy_match_confusion_tally():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        y = rng.integers(0, 2, n).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.random(n)
        m = metrics(y, s)
        pred = (s >= 0.5).astype(float)
        tp, fp, fn, tn = confusion_tally(y, pred)
        assert m.accuracy == (tp + tn) / n
        expected_f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert m.f1 == expected_f1


@pytest.mark.parametrize("block_runs", [1, 8])
@pytest.mark.parametrize("kind", classifiers.KINDS)
def test_repeated_eval_matches_run_by_run_oracle(monkeypatch, kind, block_runs):
    # Each run imputes, fits, scores and explains its own split alone. The
    # MLP's fit and its permutation importances both depend on their seeds.
    matrix = _matrix(n=80)
    matrix.X[::7, 2] = np.nan
    matrix.X[3::5, 4] = np.nan
    spec = SMALL_SPECS[kind]
    monkeypatch.setattr(evaluate, "_BLOCK_RUNS", block_runs)
    report = repeated_eval(matrix, spec, SplitConfig(), n_runs=3, master_seed=11)

    runs, imps = [], []
    for r in range(3):
        run_seed = derive_seed(11, "run", r)
        train_idx, test_idx = split(matrix, replace(SplitConfig(),
                                                    seed=derive_seed(run_seed, "split")))
        imputer = Imputer.fit(matrix.X[train_idx])
        X_train = imputer.transform(matrix.X[train_idx])
        clf = classifiers.train(replace(spec, seed=derive_seed(run_seed, "fit")),
                                X_train, matrix.y[train_idx])
        m = metrics(matrix.y[test_idx], clf.predict_proba(imputer.transform(matrix.X[test_idx])))
        imp = classifiers.importances(clf, X_train, matrix.y[train_idx],
                                      seed=derive_seed(run_seed, "importance"))
        top = [matrix.names[j] for j in np.argsort(-imp, kind="stable")[:10]]
        runs.append(evaluate.RunRecord(seed=run_seed, metrics=m, top_features=top))
        imps.append(imp)
    per_metric = {name: [getattr(r.metrics, name) for r in runs]
                  for name in ("accuracy", "auc", "f1")}
    expected = evaluate.RunsReport(
        model_kind=kind, n_runs=3, master_seed=11, runs=runs,
        mean={k: float(np.mean(v)) for k, v in per_metric.items()},
        std={k: float(np.std(v)) for k, v in per_metric.items()},
        mean_importance={n: float(v) for n, v in zip(matrix.names, sum(imps) / 3)})
    assert _dump(evaluate.runs_report_obj(report)) == _dump(evaluate.runs_report_obj(expected))


def test_run_block_fits_see_each_run_imputed_on_its_own(monkeypatch):
    # A block stacks its runs' training rows for one train_fits call, so each
    # fit must see the bytes of its run imputed alone, not of the stack.
    matrix = _nan_signal_matrix()
    calls, seen = [], {}
    train_fits = classifiers.train_fits

    def recording(spec, data, fits):
        fits = list(fits)
        calls.append(len(fits))
        for rows, seed in fits:
            seen[seed] = data.X[rows].tobytes()
        return train_fits(spec, data, fits)
    monkeypatch.setattr(classifiers, "train_fits", recording)
    repeated_eval(matrix, ModelSpec("logistic_regression"), n_runs=3, master_seed=9)
    assert calls == [3]
    for r in range(3):
        run_seed = derive_seed(9, "run", r)
        train_idx, _ = split(matrix, replace(SplitConfig(), seed=derive_seed(run_seed, "split")))
        X_train = matrix.X[train_idx]
        expected = Imputer.fit(X_train).transform(X_train)
        assert seen.pop(derive_seed(run_seed, "fit")) == expected.tobytes()
    assert not seen


def test_repeated_eval_varies_and_aggregates():
    matrix = _matrix(n=80)
    report = repeated_eval(matrix, ModelSpec("logistic_regression"), n_runs=8, master_seed=3)
    assert report.n_runs == 8
    assert report.std["f1"] > 0.0
    f1s = [r.metrics.f1 for r in report.runs]
    assert report.mean["f1"] == pytest.approx(float(np.mean(f1s)))
    assert len(report.mean_importance) == 6


def test_repeated_eval_deterministic_and_worker_invariant():
    matrix = _matrix(n=70)
    spec = ModelSpec("decision_tree", {"max_depth": 4})
    a = repeated_eval(matrix, spec, n_runs=6, master_seed=2, workers=1)
    b = repeated_eval(matrix, spec, n_runs=6, master_seed=2, workers=3)
    assert [r.metrics for r in a.runs] == [r.metrics for r in b.runs]
    assert a.mean_importance == b.mean_importance


SMALL_SPECS = {
    "sgd_linear": ModelSpec("sgd_linear"),
    "logistic_regression": ModelSpec("logistic_regression"),
    "linear_svc": ModelSpec("linear_svc"),
    "decision_tree": ModelSpec("decision_tree", {"max_depth": 4}),
    "random_forest": ModelSpec("random_forest", {"n_trees": 5, "max_depth": 4}),
    "mlp": ModelSpec("mlp", {"hidden_sizes": (8,), "epochs": 15}),
}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("kind", classifiers.KINDS)
def test_repeated_eval_more_workers_than_runs(kind):
    matrix = _matrix(n=60)
    a = repeated_eval(matrix, SMALL_SPECS[kind], n_runs=2, master_seed=5, workers=1)
    b = repeated_eval(matrix, SMALL_SPECS[kind], n_runs=2, master_seed=5, workers=3)
    assert _dump(evaluate.runs_report_obj(a)) == _dump(evaluate.runs_report_obj(b))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", classifiers.KINDS)
def test_repeated_eval_is_block_and_worker_invariant(monkeypatch, kind):
    # Five runs: blocks of 3 and 2 at two workers and 2, 2 and 1 at three;
    # a block cap of 2 cuts one worker's runs into 2, 2 and 1; a cap of 1
    # fits run by run.
    matrix = _matrix(n=70, d=5)
    matrix.X[::6, 1] = np.nan
    spec = SMALL_SPECS[kind]
    monkeypatch.setattr(evaluate, "_BLOCK_RUNS", 1)
    expected = _dump(evaluate.runs_report_obj(repeated_eval(matrix, spec, n_runs=5, master_seed=4)))
    for cap, workers in ((1, 2), (2, 1), (2, 3), (8, 1), (8, 2), (8, 3)):
        monkeypatch.setattr(evaluate, "_BLOCK_RUNS", cap)
        report = repeated_eval(matrix, spec, n_runs=5, master_seed=4, workers=workers)
        assert _dump(evaluate.runs_report_obj(report)) == expected, (cap, workers)
    assert [list(b) for b in evaluate._blocks(5, 3)] == [[0], [1, 2], [3, 4]]
    blocks = evaluate._blocks(100, 1)
    assert [r for b in blocks for r in b] == list(range(100))
    assert len(blocks) == 13 and {len(b) for b in blocks} == {7, 8}
    assert multiprocessing.active_children() == []


def test_block_raises_the_error_of_its_lowest_failing_run(monkeypatch):
    # Run 3 fails at its split and run 1 at its importances, after its fit:
    # a run-by-run loop meets run 1's error first, and so must a block.
    matrix = _matrix(n=60, d=4)
    spec = ModelSpec("mlp", {"hidden_sizes": (4,), "epochs": 3})
    split_seed = derive_seed(derive_seed(2, "run", 3), "split")
    importance_seed = derive_seed(derive_seed(2, "run", 1), "importance")

    def failing_split(m, cfg):
        if cfg.seed == split_seed:
            raise DataError("run 3 split")
        return split(m, cfg)

    def failing_importances(clf, X, y, seed=0, importances=classifiers.importances):
        if seed == importance_seed:
            raise DataError("run 1 importances")
        return importances(clf, X, y, seed=seed)

    monkeypatch.setattr(evaluate, "split", failing_split)
    monkeypatch.setattr(classifiers, "importances", failing_importances)
    with pytest.raises(DataError, match="run 1 importances"):
        repeated_eval(matrix, spec, n_runs=5, master_seed=2)


@pytest.mark.parametrize("kind", ["random_forest", "mlp"])
def test_rfe_worker_invariant(kind):
    matrix = _matrix(n=60, d=5)
    a = rfe(matrix, SMALL_SPECS[kind], folds=3, repeats=2, master_seed=3, workers=1)
    b = rfe(matrix, SMALL_SPECS[kind], folds=3, repeats=2, master_seed=3, workers=2)
    assert _dump(evaluate.rfe_outcome_obj(a)) == _dump(evaluate.rfe_outcome_obj(b))
    assert multiprocessing.active_children() == []


def test_map_holds_blas_at_one_thread_and_restores_it():
    blas = pool.openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS with thread-count functions is loaded")
    get, set_threads = blas
    before = get()
    set_threads(2)
    try:
        threads = get()
        assert pool.map_jobs(lambda i: get(), 3, workers=2) == [1, 1, 1]
        assert get() == threads
    finally:
        set_threads(before)


def _fail_from_index_1(i: int) -> int:
    if i == 1:
        time.sleep(0.5)  # job 2 fails first
    if i >= 1:
        raise ValueError(f"job {i}")
    return i


@pytest.mark.parametrize("workers", [1, 2])
def test_map_jobs_raises_the_lowest_failing_index(workers):
    with pytest.raises(ValueError, match="job 1"):
        pool.map_jobs(_fail_from_index_1, 3, workers)
    assert multiprocessing.active_children() == []


# Runs in a child interpreter, so a pool that hangs fails the test on its
# timeout. An unstratified split with 3 positives in 30 rows and 3 test rows
# leaves the test side of every run with one class. The pool reports the
# failure of the lowest run whatever the worker count, so both name one seed.
_WORKER_ERROR_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import numpy as np
    from readmit.classifiers import ModelSpec
    from readmit.evaluate import SplitConfig, repeated_eval
    from readmit.features import FeatureMatrix, FeatureSchema

    X = np.random.default_rng(0).normal(0, 1, (30, 2))
    y = np.zeros(30)
    y[[0, 10, 20]] = 1.0
    schema = FeatureSchema(("a", "b"))
    matrix = FeatureMatrix(schema=schema, X=X, y=y)
    spec = ModelSpec("logistic_regression")
    repeated_eval(matrix, spec, n_runs=4, master_seed=1, workers=2)
    print("after success", multiprocessing.active_children())
    bad = SplitConfig(test_fraction=0.1, stratified=False)
    for workers in (1, 2):
        try:
            repeated_eval(matrix, spec, bad, n_runs=4, master_seed=1, workers=workers)
        except Exception as exc:
            print(workers, type(exc).__module__, type(exc).__name__, exc)
    print("after failure", multiprocessing.active_children())
""")


def test_worker_error_reaches_caller_and_no_child_survives():
    src = str(Path(evaluate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _WORKER_ERROR_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    error = ("readmit.errors DataError admission_level split (seed N) left the test side with "
             "a single class; set stratified = true to keep both classes on each side")
    seeds = {re.search(r"\(seed (\d+)\)", line)[1] for line in result.stdout.splitlines()[1:3]}
    assert len(seeds) == 1
    lines = [re.sub(r"\(seed \d+\)", "(seed N)", line) for line in result.stdout.splitlines()]
    assert lines == ["after success []", f"1 {error}", f"2 {error}", "after failure []"]


# Runs in a child interpreter, so a hang fails the test on its timeout. Job 1
# fails at once while the others compute and send back 100 kB each: a pool
# that kills its workers after a failure can stop one in the middle of a send,
# leave the result queue locked, and then wait on that lock forever.
_REPEATED_FAILURE_SCRIPT = textwrap.dedent("""
    import multiprocessing
    from readmit import pool

    def job(i):
        if i == 1:
            raise ValueError("job 1")
        sum(range(100_000))
        return bytes(100_000)

    for _ in range(300):
        try:
            pool.map_jobs(job, 7, workers=2)
        except ValueError as exc:
            assert str(exc) == "job 1", exc
        else:
            raise AssertionError("job 1 did not fail")
    print(multiprocessing.active_children())
""")


def test_repeated_failing_maps_finish_and_leave_no_child():
    src = str(Path(pool.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _REPEATED_FAILURE_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_ablation_column_sets_by_prefix():
    names = ["age", "sentence_fraction_mood", "clinical_sentiment_mood",
             "sentence_fraction_mood__missing", "gaf_admission"]
    sets = ablation_column_sets(names)
    assert sets["baseline"] == [0, 4]
    assert sets["baseline_domain_sentences"] == [0, 4, 1, 3]
    assert sets["baseline_clinical_sentiment"] == [0, 4, 2]


def test_ablation_improvement_formula():
    # the reported relative improvement is (best - baseline) / baseline
    assert (0.72 - 0.63) / 0.63 == pytest.approx(0.143, abs=5e-4)
    names = (["age", "gaf_admission"]
             + [f"sentence_fraction_{i}" for i in range(2)]
             + [f"clinical_sentiment_{i}" for i in range(2)])
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (90, 6))
    p = 1 / (1 + np.exp(-(1.5 * X[:, 0] + 2.5 * X[:, 4])))
    y = (rng.random(90) < p).astype(float)
    schema = FeatureSchema(names)
    matrix = FeatureMatrix(schema=schema, X=X, y=y)
    report = ablation(matrix, ModelSpec("logistic_regression"), n_runs=10, master_seed=7)
    base = report.table["baseline"]["f1"]
    best = max(report.table[c]["f1"] for c in evaluate.ABLATION_CONFIGS)
    assert report.relative_f1_improvement == pytest.approx((best - base) / base)
    assert report.table["baseline_clinical_sentiment"]["f1"] > base


def test_rfe_two_column_matrix():
    matrix = _matrix(n=50, d=2, names=["signal", "noise"])
    outcome = rfe(matrix, ModelSpec("logistic_regression"), folds=3, repeats=2, master_seed=1)
    for d in outcome.repeats_detail:
        assert len(d.elimination_order) == 1
        assert d.widths == [2, 1]
    again = rfe(matrix, ModelSpec("logistic_regression"), folds=3, repeats=2, master_seed=1)
    assert outcome.best_set == again.best_set
    assert [d.cv_scores for d in outcome.repeats_detail] == \
           [d.cv_scores for d in again.repeats_detail]


def test_rfe_first_width_matches_manual():
    matrix = _matrix(n=60, d=5)
    matrix.X[::5, 3] = np.nan
    spec = ModelSpec("mlp", {"hidden_sizes": (8,), "epochs": 15}, seed=0)
    outcome = rfe(matrix, spec, folds=3, repeats=2, master_seed=4)

    rep_seed = derive_seed(4, "rfe", 1)
    fold_of = evaluate._stratified_folds(matrix.y, 3, np.random.default_rng(rep_seed))
    f1s, imp_sum = [], np.zeros(5)
    for k in range(3):
        tr, te = np.flatnonzero(fold_of != k), np.flatnonzero(fold_of == k)
        imputer = Imputer.fit(matrix.X[tr])
        X_tr = imputer.transform(matrix.X[tr])
        clf = classifiers.train(replace(spec, seed=derive_seed(rep_seed, "fold", k, 5)),
                                X_tr, matrix.y[tr])
        f1s.append(metrics(matrix.y[te], clf.predict_proba(imputer.transform(matrix.X[te]))).f1)
        imp_sum += classifiers.importances(clf, X_tr, matrix.y[tr],
                                           seed=derive_seed(rep_seed, "imp", k, 5))
    detail = outcome.repeats_detail[1]
    assert detail.cv_scores[0] == float(np.mean(f1s))
    assert detail.elimination_order[0] == matrix.names[int(np.argmin(imp_sum / 3))]


def _nan_signal_matrix():
    """61 rows, 25 negatives: the three folds hold 21, 20 and 20 rows. Column
    0 carries the signal and a NaN in every fourth row, so it is the last
    column standing and the width-1 fits impute it."""
    matrix = _matrix(seed=8, n=61, d=5, signal=4.0)
    matrix.y[:] = 0.0
    matrix.y[np.argsort(-matrix.X[:, 0], kind="stable")[:36]] = 1.0
    matrix.X[::4, 0] = np.nan
    matrix.X[1::3, 2] = np.nan
    return matrix


@pytest.mark.parametrize("kind", classifiers.KINDS)
def test_rfe_equals_fit_by_fit_reference(kind):
    matrix = _nan_signal_matrix()
    outcome = rfe(matrix, SMALL_SPECS[kind], folds=3, repeats=2, master_seed=9, workers=2)
    for rep in range(2):
        fold_of = evaluate._stratified_folds(
            matrix.y, 3, np.random.default_rng(derive_seed(9, "rfe", rep)))
        assert sorted(np.bincount(fold_of).tolist()) == [20, 20, 21]
    reference = reference_rfe(matrix, SMALL_SPECS[kind], folds=3, repeats=2, master_seed=9)
    assert _dump(evaluate.rfe_outcome_obj(outcome)) == _dump(evaluate.rfe_outcome_obj(reference))
    for detail in outcome.repeats_detail:
        assert set(matrix.names) - set(detail.elimination_order) == {"c0"}


def test_rfe_fits_see_each_fold_imputed_on_its_own(monkeypatch):
    # Every width is cut from one imputation of all columns, so each fit must
    # see the bytes of its fold imputed alone. At width 1 a pairwise-summed
    # mean of the lone column would differ in the last bit in three of the
    # six fits here, which the report's F1s do not show.
    matrix = _nan_signal_matrix()
    seen = {}
    train_fits = classifiers.train_fits

    def recording(spec, data, fits):
        fits = list(fits)
        for rows, seed in fits:
            seen[seed] = data.X[rows].tobytes()
        return train_fits(spec, data, fits)
    monkeypatch.setattr(classifiers, "train_fits", recording)
    outcome = rfe(matrix, ModelSpec("logistic_regression"), folds=3, repeats=2, master_seed=9)
    names = list(matrix.names)
    for rep, detail in enumerate(outcome.repeats_detail):
        rep_seed = derive_seed(9, "rfe", rep)
        fold_of = reference_stratified_folds(matrix.y, 3, np.random.default_rng(rep_seed))
        for width in detail.widths:
            dropped = detail.elimination_order[:len(names) - width]
            X = matrix.X[:, [j for j, name in enumerate(names) if name not in dropped]]
            for k in range(3):
                X_tr = X[fold_of != k]
                expected = Imputer.fit(X_tr).transform(X_tr)
                assert seen.pop(derive_seed(rep_seed, "fold", k, width)) == expected.tobytes()
    assert not seen


@pytest.mark.parametrize("args, error, message", [
    ({"folds": 0}, ConfigError, "RFE needs at least 2 folds, got 0"),
    ({"folds": 1}, ConfigError, "RFE needs at least 2 folds, got 1"),
    ({"repeats": 0}, ConfigError, "RFE needs at least 1 repeat, got 0"),
    ({"folds": 100}, DataError, "the smaller class has 29 rows, fewer than the 100 folds"),
    ({"folds": 30}, DataError, "the smaller class has 29 rows, fewer than the 30 folds"),
    ({"spec": ModelSpec("random_forest", {"max_features": 2})}, ConfigError,
     "RFE fits down to 1 column, so an integer max_features must be 1, got 2"),
])
def test_rfe_rejects_degenerate_arguments_before_fitting(monkeypatch, args, error, message):
    matrix = _matrix(n=60, d=109)
    assert min(matrix.y.sum(), 60 - matrix.y.sum()) == 29

    def no_fit(*a, **k):
        raise AssertionError("fitted")
    monkeypatch.setattr(classifiers, "train", no_fit)
    monkeypatch.setattr(classifiers, "train_fits", no_fit)
    with pytest.raises(error, match=re.escape(message)):
        rfe(matrix, **{"spec": ModelSpec("random_forest"), **args})


def test_rfe_needs_two_columns():
    matrix = _matrix(n=50, d=1, names=["only"])
    with pytest.raises(DataError):
        rfe(matrix, ModelSpec("logistic_regression"))


def _fake_outcome(schema, best):
    return RfeOutcome(model_kind="x", folds=3, repeats=1, master_seed=0,
                      schema_names=list(schema), repeats_detail=[
                          RfeRepeat(elimination_order=[], cv_scores=[1.0],
                                    widths=[len(schema)], best_width=len(best),
                                    best_set=list(best), best_score=1.0)],
                      best_repeat=0, best_set=list(best), best_score=1.0)


def test_consensus_two_of_three():
    schema = ["a", "b", "c"]
    outcomes = [
        _fake_outcome(schema, ["a"]),        # eliminated b, c
        _fake_outcome(schema, ["a", "c"]),   # eliminated b
        _fake_outcome(schema, ["a", "b"]),   # eliminated c
    ]
    assert consensus_elimination(outcomes) == ["b", "c"]


def test_consensus_one_of_three_excluded():
    schema = ["a", "b"]
    outcomes = [
        _fake_outcome(schema, ["a", "b"]),
        _fake_outcome(schema, ["a", "b"]),
        _fake_outcome(schema, ["a"]),  # only this one eliminated b
    ]
    assert consensus_elimination(outcomes) == []


def test_consensus_requires_three():
    with pytest.raises(ConfigError):
        consensus_elimination([_fake_outcome(["a"], ["a"])] * 2)


def test_consensus_schema_mismatch():
    bad = _fake_outcome(["a", "b"], ["z"])
    with pytest.raises(DataError):
        consensus_elimination([bad, bad, bad])


def test_end_to_end_report_deterministic():
    matrix = _matrix(n=70)
    spec = ModelSpec("random_forest", {"n_trees": 10, "max_depth": 5})
    a = evaluate.runs_report_obj(repeated_eval(matrix, spec, n_runs=4, master_seed=9))
    b = evaluate.runs_report_obj(repeated_eval(matrix, spec, n_runs=4, master_seed=9))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_render_text_ascending_order():
    names = (["age"] + [f"sentence_fraction_{i}" for i in range(2)]
             + [f"clinical_sentiment_{i}" for i in range(2)])
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (80, 5))
    p = 1 / (1 + np.exp(-(1.0 * X[:, 0] + 2.0 * X[:, 3])))
    y = (rng.random(80) < p).astype(float)
    schema = FeatureSchema(names)
    matrix = FeatureMatrix(schema=schema, X=X, y=y)
    report = ablation(matrix, ModelSpec("logistic_regression"), n_runs=6, master_seed=2)
    text = evaluate.render_ablation_text(evaluate.ablation_report_obj(report))
    lines = [l for l in text.splitlines() if l.startswith("Baseline")]
    f1s = [float(l.split()[-1]) for l in lines]
    assert f1s == sorted(f1s)
