"""Assembly of the 45-feature admission vector and its numeric encoding.

Features come in three blocks: sociodemographics, past medical history,
and the current admission (structured fields plus the 14 unstructured
domain features), with the current admission's suicide-risk flag as the
45th feature. Categoricals are one-hot expanded over their full level sets
(including Unknown/Missing levels); numerics get a paired ``__missing``
indicator column and are mean-imputed from training rows only.
"""

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import domains, textproc
from .corpus import (GENDERS, MARITAL_STATUSES, RACES, YES_NO_UNKNOWN,
                     Admission, Corpus, Patient, age_at, patient_timelines)
from .domains import RISK_DOMAINS, AdmissionDomainSummary, domain_key
from .errors import DataError, open_text
from .neural import HashingEncoder, MLPModel
from .textproc import COMPLIANCE_LEVELS, INSIGHT_LEVELS, StructuredFields

YES_NO = ("Yes", "No")


@dataclass(frozen=True)
class FeatureDef:
    name: str
    kind: str  # "numeric" | "categorical"
    levels: tuple[str, ...] = ()
    missing_level: bool = False  # categorical can be absent -> "Missing" level


def _cat(name, levels, missing_level=False):
    return FeatureDef(name, "categorical", tuple(levels), missing_level)


def _num(name):
    return FeatureDef(name, "numeric")


FEATURES: tuple[FeatureDef, ...] = (
    # sociodemographics
    _num("age"),
    _cat("gender", GENDERS),
    _cat("race", RACES),
    _cat("marital_status", MARITAL_STATUSES),
    _cat("veteran", YES_NO_UNKNOWN),
    # past medical history
    _cat("history_of_suicidality", YES_NO),
    _num("n_past_admissions"),
    _num("avg_past_los"),
    _num("avg_days_between_admissions"),
    _cat("prev_30day_readmission", YES_NO, missing_level=True),
    _num("n_past_readmissions"),
    _num("readmission_ratio"),
    _num("avg_past_gaf_admission"),
    _num("avg_past_gaf_discharge"),
    _cat("mode_past_insight", INSIGHT_LEVELS, missing_level=True),
    _cat("mode_past_compliance", COMPLIANCE_LEVELS, missing_level=True),
    # current admission, structured
    _num("n_notes"),
    _num("n_tokens"),
    _num("n_tokens_discharge_summary"),
    _num("avg_note_length"),
    _num("gaf_admission"),
    _num("gaf_discharge"),
    _num("gaf_difference"),
    _num("mean_gaf_all_notes"),
    _cat("insight", INSIGHT_LEVELS, missing_level=True),
    _cat("compliance", COMPLIANCE_LEVELS, missing_level=True),
    _num("estimated_los"),
    _num("actual_los"),
    _num("los_difference"),
    _cat("is_first_admission", YES_NO),
    # current admission, unstructured
    *(_num(f"sentence_fraction_{domain_key(d)}") for d in RISK_DOMAINS),
    *(_num(f"clinical_sentiment_{domain_key(d)}") for d in RISK_DOMAINS),
    # current admission suicide-risk flag
    _cat("suicide_risk", YES_NO_UNKNOWN),
)

FEATURE_NAMES = tuple(f.name for f in FEATURES)


@dataclass(frozen=True)
class AdmissionFeatures:
    """The named feature values for one admission; None means Missing."""

    admission_id: str
    patient_id: str
    label: bool
    values: dict

    def __post_init__(self):
        unknown = set(self.values) - set(FEATURE_NAMES)
        if unknown:
            raise DataError(f"unknown feature names: {sorted(unknown)}")
        missing = set(FEATURE_NAMES) - set(self.values)
        if missing:
            raise DataError(f"missing feature names: {sorted(missing)}")


def _mode_most_recent(values: list) -> Optional[str]:
    """Mode of chronological values; ties go to the most recent level."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    counts: dict[str, int] = {}
    for v in present:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    tied = {v for v, c in counts.items() if c == top}
    for v in reversed(present):
        if v in tied:
            return v
    return None


def history_features(prior: Sequence[tuple[Admission, StructuredFields]],
                     current_admit) -> dict:
    """Past-history feature block from strictly earlier admissions.

    ``prior`` is chronologically ordered; labels must already be derived.
    avg_days_between_admissions includes the gap into the current admission.
    """
    values: dict = {}
    n = len(prior)
    values["n_past_admissions"] = float(n)
    if n == 0:
        values.update(
            history_of_suicidality="No",
            avg_past_los=None,
            avg_days_between_admissions=None,
            prev_30day_readmission=None,
            n_past_readmissions=0.0,
            readmission_ratio=None,
            avg_past_gaf_admission=None,
            avg_past_gaf_discharge=None,
            mode_past_insight=None,
            mode_past_compliance=None,
            is_first_admission="Yes",
        )
        return values

    adms = [a for a, _ in prior]
    fields = [f for _, f in prior]
    for a in adms:
        if a.admit_date >= current_admit:
            raise DataError(f"admission {a.admission_id} is not strictly prior")
        if a.label_readmitted_30d is None:
            raise DataError(f"admission {a.admission_id} has no derived label")

    values["history_of_suicidality"] = "Yes" if any(a.suicide_risk == "Yes" for a in adms) else "No"
    values["avg_past_los"] = float(np.mean([(a.discharge_date - a.admit_date).days for a in adms]))
    gaps = [(b.admit_date - a.discharge_date).days for a, b in zip(adms, adms[1:])]
    gaps.append((current_admit - adms[-1].discharge_date).days)
    values["avg_days_between_admissions"] = float(np.mean(gaps))
    values["prev_30day_readmission"] = "Yes" if adms[-1].label_readmitted_30d else "No"
    n_readmit = sum(1 for a in adms if a.label_readmitted_30d)
    values["n_past_readmissions"] = float(n_readmit)
    values["readmission_ratio"] = n_readmit / n
    gaf_adm = [f.gaf_admission for f in fields if f.gaf_admission is not None]
    gaf_dis = [f.gaf_discharge for f in fields if f.gaf_discharge is not None]
    values["avg_past_gaf_admission"] = float(np.mean(gaf_adm)) if gaf_adm else None
    values["avg_past_gaf_discharge"] = float(np.mean(gaf_dis)) if gaf_dis else None
    values["mode_past_insight"] = _mode_most_recent([f.insight for f in fields])
    values["mode_past_compliance"] = _mode_most_recent([f.compliance for f in fields])
    values["is_first_admission"] = "No"
    return values


def assemble(patient: Patient, admission: Admission, structured: StructuredFields,
             summary: AdmissionDomainSummary, history: dict) -> AdmissionFeatures:
    """Combine all blocks into one AdmissionFeatures row."""
    if admission.patient_id != patient.patient_id:
        raise DataError(
            f"admission {admission.admission_id} does not belong to patient {patient.patient_id}")
    if admission.label_readmitted_30d is None:
        raise DataError(f"admission {admission.admission_id} has no derived label")

    note_tokens = [textproc.count_tokens(n.text) for n in admission.notes]
    n_tokens = sum(note_tokens)
    discharge_tokens = sum(
        t for n, t in zip(admission.notes, note_tokens) if n.note_type == "DischargeSummary")
    actual_los = (admission.discharge_date - admission.admit_date).days

    gaf_all = [g for g in structured.gaf_per_note if g is not None]
    if structured.gaf_admission is not None:
        gaf_all.append(structured.gaf_admission)
    if structured.gaf_discharge is not None:
        gaf_all.append(structured.gaf_discharge)

    values = dict(history)
    values.update(
        age=float(age_at(patient.birth_date, admission.admit_date)),
        gender=patient.gender,
        race=patient.race,
        marital_status=patient.marital_status,
        veteran=patient.veteran,
        n_notes=float(len(admission.notes)),
        n_tokens=float(n_tokens),
        n_tokens_discharge_summary=float(discharge_tokens),
        avg_note_length=n_tokens / len(admission.notes),
        gaf_admission=_opt_float(structured.gaf_admission),
        gaf_discharge=_opt_float(structured.gaf_discharge),
        gaf_difference=(
            float(structured.gaf_discharge - structured.gaf_admission)
            if structured.gaf_admission is not None and structured.gaf_discharge is not None
            else None),
        mean_gaf_all_notes=float(np.mean(gaf_all)) if gaf_all else None,
        insight=structured.insight,
        compliance=structured.compliance,
        estimated_los=_opt_float(structured.estimated_los_days),
        actual_los=float(actual_los),
        los_difference=(
            float(structured.estimated_los_days - actual_los)
            if structured.estimated_los_days is not None else None),
        suicide_risk=admission.suicide_risk,
    )
    for d in RISK_DOMAINS:
        values[f"sentence_fraction_{domain_key(d)}"] = summary.sentence_fraction[d]
        values[f"clinical_sentiment_{domain_key(d)}"] = summary.sentiment_score[d]
    return AdmissionFeatures(
        admission_id=admission.admission_id, patient_id=admission.patient_id,
        label=bool(admission.label_readmitted_30d), values=values)


def _opt_float(v) -> Optional[float]:
    return None if v is None else float(v)


def build_features(corp: Corpus,
                   summaries: dict[str, AdmissionDomainSummary]) -> list[AdmissionFeatures]:
    """Assemble one row per admission; ``summaries`` keyed by admission_id."""
    patients = {p.patient_id: p for p in corp.patients}
    rows: list[AdmissionFeatures] = []
    for pid, ordered in patient_timelines(corp).items():
        resolved = [textproc.resolve_admission_fields(a.notes) for a in ordered]
        for k, admission in enumerate(ordered):
            prior = list(zip(ordered[:k], resolved[:k]))
            history = history_features(prior, admission.admit_date)
            rows.append(assemble(patients[pid], admission, resolved[k],
                                 summaries[admission.admission_id], history))
    return rows


class FeatureSchema:
    """The column names after one-hot expansion; ``columns`` is ``names``."""

    def __init__(self, names: Sequence[str]):
        self.names = self.columns = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise DataError("schema column names are not unique")

    @classmethod
    def build(cls) -> "FeatureSchema":
        names: list[str] = []
        for f in FEATURES:
            names += ([f.name, f"{f.name}__missing"] if f.kind == "numeric"
                      else [f"{f.name}={level}" for level in _levels(f)])
        return cls(names)

    def __len__(self) -> int:
        return len(self.names)


def _levels(f: FeatureDef) -> tuple[str, ...]:
    return f.levels + (("Missing",) if f.missing_level else ())


def encode_rows(rows: Sequence[AdmissionFeatures]) -> np.ndarray:
    """Raw numeric matrix in ``FeatureSchema.build()`` order; missing numerics
    are NaN (indicator set to 1).

    An unseen categorical level maps to the Unknown column when the feature
    has one, else to Missing; it is never an error.
    """
    blocks = []
    for f in FEATURES:
        values = [row.values[f.name] for row in rows]
        if f.kind == "numeric":
            blocks.append(np.column_stack([[np.nan if v is None else float(v) for v in values],
                                           [v is None for v in values]]))
        else:
            levels = _levels(f)
            blocks.append(np.eye(len(levels))[[levels.index(_categorical_level(f, v))
                                               for v in values]])
    return np.concatenate(blocks, axis=1)


def _categorical_level(f: FeatureDef, v) -> str:
    if v is None:
        return "Missing" if f.missing_level else ("Unknown" if "Unknown" in f.levels else f.levels[-1])
    v = str(v)
    if v in f.levels:
        return v
    if "Unknown" in f.levels:
        return "Unknown"
    return "Missing" if f.missing_level else f.levels[-1]


class Imputer:
    """Column means from training rows; fills NaNs, never refit on test."""

    def __init__(self, means: np.ndarray):
        self.means = means

    @classmethod
    def fit(cls, X_train: np.ndarray) -> "Imputer":
        """Each column's mean over its present entries, 0 where it has none.

        Columns are summed in row order (``sum(axis=0)`` adds a lone column
        pairwise), so a mean has the same bits whatever columns share its
        block; RFE relies on this to impute each fold once for every width."""
        present = ~np.isnan(X_train)
        counts = present.sum(axis=0)
        sums = np.cumsum(np.where(present, X_train, 0.0), axis=0)[-1]
        means = np.divide(sums, counts, out=np.zeros(X_train.shape[1]), where=counts > 0)
        return cls(means)

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = X.copy()
        nan_rows, nan_cols = np.nonzero(np.isnan(out))
        out[nan_rows, nan_cols] = self.means[nan_cols]
        return out


@dataclass
class FeatureMatrix:
    """Encoded rows aligned to admissions. X may contain NaN until imputed."""

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray
    admission_ids: tuple[str, ...] = ()
    patient_ids: tuple[str, ...] = ()

    @property
    def names(self):
        return self.schema.names


def encode_features(rows: Sequence[AdmissionFeatures]) -> FeatureMatrix:
    schema = FeatureSchema.build()
    X = encode_rows(rows)
    y = np.array([1.0 if r.label else 0.0 for r in rows])
    return FeatureMatrix(
        schema=schema, X=X, y=y,
        admission_ids=tuple(r.admission_id for r in rows),
        patient_ids=tuple(r.patient_id for r in rows),
    )


def extract(corp: Corpus, topic: MLPModel, sentiment: dict[str, MLPModel]) -> FeatureMatrix:
    """The corpus's encoded feature matrix, as ``readmit extract`` writes it,
    with the domain features from the trained topic and sentiment models."""
    encoder = HashingEncoder(dim=topic.spec.input_dim)
    summaries = {a.admission_id: domains.summarize_admission(a, topic, sentiment, encoder)
                 for a in corp.admissions}
    return encode_features(build_features(corp, summaries))


def write_csv(matrix: FeatureMatrix, path) -> None:
    """Schema columns plus a final ``label`` column; floats at 6 sig. digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(matrix.names) + ["label"])
        for i in range(matrix.X.shape[0]):
            row = [_fmt(v) for v in matrix.X[i]]
            row.append(str(int(matrix.y[i])))
            writer.writerow(row)


def _fmt(v: float) -> str:
    return "nan" if np.isnan(v) else format(v, ".6g")


def _cell(path, line: int, column: str, v: str) -> float:
    try:
        x = float(v)
    except ValueError:
        raise DataError(f"{path}: line {line}: column {column!r} holds non-numeric "
                        f"value {v!r}") from None
    if np.isinf(x):
        raise DataError(f"{path}: line {line}: column {column!r} holds non-finite value {v!r}")
    return x


def read_csv(path) -> FeatureMatrix:
    """Read a feature CSV back into a matrix (ids are not stored in CSV).

    Cells may be ``nan`` (a missing value to impute) but not infinite, and
    every label is 0 or 1.
    """
    with open_text(path, DataError, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty feature CSV")
        if not header or header[-1] != "label":
            raise DataError(f"{path}: final CSV column must be 'label'")
        repeated = sorted({n for n in header if header.count(n) > 1})
        if repeated:
            raise DataError(f"{path}: repeated column names {repeated}")
        names = header[:-1]
        data, labels = [], []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise DataError(f"{path}: line {line}: row width {len(row)} != "
                                f"header width {len(header)}")
            values = [_cell(path, line, c, v) for c, v in zip(header, row)]
            if values[-1] not in (0.0, 1.0):
                raise DataError(f"{path}: line {line}: label {row[-1]!r} is not 0 or 1")
            data.append(values[:-1])
            labels.append(values[-1])
    if not data:
        raise DataError(f"{path}: no data rows")
    return FeatureMatrix(schema=FeatureSchema(names), X=np.array(data), y=np.array(labels))
