import re
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from readmit import textproc
from readmit.corpus import derive_labels
from readmit.domains import RISK_DOMAINS, AdmissionDomainSummary, domain_key
from readmit.errors import DataError
from readmit.features import (FEATURES, FeatureSchema,
                              Imputer, assemble, build_features,
                              encode_features, encode_rows, history_features,
                              read_csv, write_csv)

from helpers import tiny_corpus


def _neutral_summary():
    zeros = {d: 0.0 for d in RISK_DOMAINS}
    return AdmissionDomainSummary(dict(zeros), dict(zeros))


def _labeled(corpus):
    return derive_labels(corpus)


def test_feature_registry_has_45_features():
    assert len(FEATURES) == 45
    names = [f.name for f in FEATURES]
    assert len(set(names)) == 45
    assert "suicide_risk" in names


def test_schema_width_and_uniqueness():
    schema = FeatureSchema.build()
    n_numeric = sum(1 for f in FEATURES if f.kind == "numeric")
    n_onehot = sum(len(f.levels) + (1 if f.missing_level else 0)
                   for f in FEATURES if f.kind == "categorical")
    assert len(schema) == 2 * n_numeric + n_onehot
    assert len(set(schema.names)) == len(schema)
    assert "marital_status=Single" in schema.names
    assert "gaf_admission__missing" in schema.names


def test_history_no_priors():
    values = history_features([], date(2020, 1, 1))
    assert values["n_past_admissions"] == 0.0
    assert values["avg_past_los"] is None
    assert values["is_first_admission"] == "Yes"
    assert values["prev_30day_readmission"] is None


def test_history_readmission_ratio():
    corpus = _labeled(tiny_corpus(n_admissions=5, gap_days=10))
    adms = corpus.admissions
    fields = [textproc.resolve_admission_fields(a.notes) for a in adms]
    # make two of four priors readmissions: relabel manually
    labels = [True, False, True, False]
    priors = [(replace(a, label_readmitted_30d=l), f)
              for a, l, f in zip(adms[:4], labels, fields[:4])]
    values = history_features(priors, adms[4].admit_date)
    assert values["n_past_admissions"] == 4.0
    assert values["readmission_ratio"] == pytest.approx(0.5)
    assert values["n_past_readmissions"] == 2.0
    assert values["prev_30day_readmission"] == "No"
    assert values["is_first_admission"] == "No"


def test_history_mode_tie_most_recent():
    texts = ("Insight: poor\nStable.", "Insight: poor\nStable.", "Insight: fair\nStable.")
    corpus = _labeled(tiny_corpus(n_admissions=4, gap_days=10))
    adms = list(corpus.admissions)
    prior = []
    for a, text in zip(adms[:3], texts):
        notes = tuple(replace(n, text=text) for n in a.notes)
        prior.append((replace(a, notes=notes), textproc.resolve_admission_fields(notes)))
    values = history_features(prior, adms[3].admit_date)
    assert values["mode_past_insight"] == "Poor"
    # tie between two levels resolves to the most recent one
    texts2 = ("Insight: poor\nStable.", "Insight: fair\nStable.")
    prior2 = []
    for a, text in zip(adms[:2], texts2):
        notes = tuple(replace(n, text=text) for n in a.notes)
        prior2.append((replace(a, notes=notes), textproc.resolve_admission_fields(notes)))
    values2 = history_features(prior2, adms[2].admit_date)
    assert values2["mode_past_insight"] == "Fair"


def test_history_days_between_includes_current_gap():
    corpus = _labeled(tiny_corpus(n_admissions=3, gap_days=10))
    adms = corpus.admissions
    fields = [textproc.resolve_admission_fields(a.notes) for a in adms]
    values = history_features(list(zip(adms[:2], fields[:2])), adms[2].admit_date)
    # both gaps are exactly 10 days
    assert values["avg_days_between_admissions"] == pytest.approx(10.0)


def test_assemble_derived_fields():
    text = ("GAF at admission: 45\nGAF at discharge: 60\nInsight: poor\n"
            "Compliance: partial\nEstimated LOS: 12 days\n\nStable day. Calm night.")
    corpus = _labeled(tiny_corpus(note_texts=(text,)))
    patient = corpus.patients[0]
    admission = corpus.admissions[0]  # 5-day stay from the helper
    structured = textproc.resolve_admission_fields(admission.notes)
    history = history_features([], admission.admit_date)
    feats = assemble(patient, admission, structured, _neutral_summary(), history)
    v = feats.values
    assert v["gaf_difference"] == 15.0
    assert v["actual_los"] == 5.0
    assert v["los_difference"] == 7.0  # estimated 12 - actual 5
    assert v["insight"] == "Poor"
    assert v["is_first_admission"] == "Yes"
    assert v["n_notes"] == 1.0
    assert v["age"] == 33.0


def test_assemble_actual_los_ten_days():
    corpus = tiny_corpus()
    admission = replace(corpus.admissions[0],
                        discharge_date=date(2019, 1, 11),
                        label_readmitted_30d=False)
    structured = textproc.resolve_admission_fields(admission.notes)
    history = history_features([], admission.admit_date)
    feats = assemble(corpus.patients[0], admission, structured, _neutral_summary(), history)
    assert feats.values["actual_los"] == 10.0


def test_assemble_copies_unstructured_block():
    summary = AdmissionDomainSummary(
        {d: 0.1 * (i + 1) / 10 for i, d in enumerate(RISK_DOMAINS)},
        {d: (-1) ** i * 0.2 for i, d in enumerate(RISK_DOMAINS)},
    )
    corpus = _labeled(tiny_corpus())
    admission = corpus.admissions[0]
    structured = textproc.resolve_admission_fields(admission.notes)
    history = history_features([], admission.admit_date)
    feats = assemble(corpus.patients[0], admission, structured, summary, history)
    for d in RISK_DOMAINS:
        assert feats.values[f"sentence_fraction_{domain_key(d)}"] == summary.sentence_fraction[d]
        assert feats.values[f"clinical_sentiment_{domain_key(d)}"] == summary.sentiment_score[d]


def test_assemble_id_mismatch():
    corpus = _labeled(tiny_corpus())
    admission = replace(corpus.admissions[0], patient_id="OTHER")
    structured = textproc.resolve_admission_fields(admission.notes)
    with pytest.raises(DataError):
        assemble(corpus.patients[0], admission, structured, _neutral_summary(),
                 history_features([], admission.admit_date))


def _rows_from_corpus(corpus):
    summaries = {a.admission_id: _neutral_summary() for a in corpus.admissions}
    return build_features(corpus, summaries)


def test_build_features_is_pure(small_gen):
    _, corpus, _ = small_gen
    corpus = derive_labels(corpus)
    rows1 = _rows_from_corpus(corpus)
    rows2 = _rows_from_corpus(corpus)
    assert rows1 == rows2


def test_one_hot_marital_status():
    corpus = _labeled(tiny_corpus())
    rows = _rows_from_corpus(corpus)
    schema = FeatureSchema.build()
    X = encode_rows(schema, rows)
    cols = {name: X[0, j] for j, name in enumerate(schema.names)
            if name.startswith("marital_status=")}
    assert cols == {"marital_status=Single": 1.0, "marital_status=Married": 0.0,
                    "marital_status=Other": 0.0, "marital_status=Unknown": 0.0}


def test_missing_numeric_imputed_with_indicator():
    corpus = _labeled(tiny_corpus(note_texts=("No structured headers here.",)))
    rows = _rows_from_corpus(corpus)
    schema = FeatureSchema.build()
    X = encode_rows(schema, rows)
    j_val = schema.names.index("gaf_admission")
    j_ind = schema.names.index("gaf_admission__missing")
    assert np.isnan(X[0, j_val])
    assert X[0, j_ind] == 1.0
    imputer = Imputer(means=np.full(len(schema), 52.3))
    filled = imputer.transform(X)
    assert filled[0, j_val] == 52.3
    assert filled[0, j_ind] == 1.0


def test_imputer_uses_training_rows_only():
    X_train = np.array([[1.0, np.nan], [3.0, 4.0]])
    X_test = np.array([[np.nan, 100.0]])
    imputer = Imputer.fit(X_train)
    assert imputer.means[0] == 2.0
    assert imputer.means[1] == 4.0
    # test rows never touch the statistics
    X_test_mutated = X_test * 1000
    assert np.array_equal(Imputer.fit(X_train).means, imputer.means)
    filled = imputer.transform(np.array([[np.nan, 1.0]]))
    assert filled[0, 0] == 2.0
    del X_test_mutated


def test_unseen_level_maps_to_unknown():
    corpus = _labeled(tiny_corpus())
    rows = _rows_from_corpus(corpus)
    row = rows[0]
    row.values["race"] = "Martian"
    schema = FeatureSchema.build()
    X = encode_rows(schema, [row])
    assert X[0, schema.names.index("race=Unknown")] == 1.0
    row.values["insight"] = "Transcendent"  # no Unknown level -> Missing
    X = encode_rows(schema, [row])
    assert X[0, schema.names.index("insight=Missing")] == 1.0


def test_csv_roundtrip(tmp_path, small_gen):
    _, corpus, _ = small_gen
    corpus = derive_labels(corpus)
    matrix = encode_features(_rows_from_corpus(corpus))
    matrix.X = Imputer.fit(matrix.X).transform(matrix.X)
    assert not np.isnan(matrix.X).any()
    path = tmp_path / "features.csv"
    write_csv(matrix, path)
    again = read_csv(path)
    assert list(again.names) == list(matrix.names)
    assert np.array_equal(again.y, matrix.y)
    assert np.allclose(again.X, matrix.X, rtol=1e-5, atol=1e-9)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[-1] == "label"
    assert len(header.split(",")) == len(matrix.schema) + 1


def test_csv_without_data_rows_is_a_data_error(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("age,gaf_admission,label\n\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: no data rows")):
        read_csv(path)


def test_csv_keeps_nan(tmp_path):
    corpus = _labeled(tiny_corpus(note_texts=("No headers.",)))
    rows = _rows_from_corpus(corpus)
    matrix = encode_features(rows)
    path = tmp_path / "f.csv"
    write_csv(matrix, path)
    again = read_csv(path)
    j = matrix.names.index("gaf_admission")
    assert np.isnan(again.X[0, j])


def test_encode_column_order_stable(small_gen):
    _, corpus, _ = small_gen
    corpus = derive_labels(corpus)
    rows = _rows_from_corpus(corpus)
    schema = FeatureSchema.build()
    train = encode_rows(schema, rows[:4])
    test = encode_rows(schema, rows[4:])
    assert train.shape[1] == test.shape[1] == len(schema)
    assert FeatureSchema.build().names == schema.names
