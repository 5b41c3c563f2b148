"""EHR object model, JSONL ingestion, labels, and corpus statistics.

A corpus file holds one patient object per line (UTF-8, LF endings) with
keys: patient_id, gender, race, marital_status, veteran, birth_date
(ISO-8601), admissions: [{admission_id, admit_date, discharge_date,
suicide_risk, notes: [{note_id, note_type, timestamp, text}],
label_readmitted_30d?}]. note_type is one of "admission", "progress",
"discharge_summary".
"""

import json
from dataclasses import dataclass, replace
from datetime import date, datetime
from typing import Optional

from .errors import CorpusValidationError, open_text
from .textproc import count_tokens

GENDERS = ("Male", "Female", "Other", "Unknown")
RACES = ("White", "Black", "Asian", "Hispanic", "Other", "Unknown")
MARITAL_STATUSES = ("Single", "Married", "Other", "Unknown")
YES_NO_UNKNOWN = ("Yes", "No", "Unknown")
NOTE_TYPES = ("Admission", "Progress", "DischargeSummary")

# Inter-admission gaps of at most this many days (inclusive) count as a
# readmission. Gap = next admit_date - this discharge_date in calendar days.
READMISSION_WINDOW_DAYS = 30

_NOTE_TYPE_WIRE = {"Admission": "admission", "Progress": "progress", "DischargeSummary": "discharge_summary"}
_NOTE_TYPE_FROM_WIRE = {v: k for k, v in _NOTE_TYPE_WIRE.items()}


@dataclass(frozen=True)
class Note:
    note_id: str
    note_type: str
    timestamp: datetime
    text: str


@dataclass(frozen=True)
class Admission:
    admission_id: str
    patient_id: str
    admit_date: date
    discharge_date: date
    suicide_risk: str
    notes: tuple[Note, ...]
    label_readmitted_30d: Optional[bool] = None


@dataclass(frozen=True)
class Patient:
    patient_id: str
    gender: str
    race: str
    marital_status: str
    veteran: str
    birth_date: date


@dataclass(frozen=True)
class Corpus:
    """Immutable after load; safe for shared read-only access."""

    patients: tuple[Patient, ...]
    admissions: tuple[Admission, ...]  # grouped by patient, admit-date order


@dataclass(frozen=True)
class CorpusStats:
    n_patients: int
    n_notes: int
    n_admissions: int
    n_readmitted: int
    total_tokens: int
    mean_tokens_per_note: float
    mean_notes_per_admission: float
    mean_tokens_per_admission: float
    readmission_rate: float


def age_at(birth_date: date, on: date) -> int:
    years = on.year - birth_date.year
    if (on.month, on.day) < (birth_date.month, birth_date.day):
        years -= 1
    return years


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CorpusValidationError(message)


def _check_enum(value, allowed, what, owner):
    _require(value in allowed, f"{owner}: {what} {value!r} not one of {allowed}")


def patient_timelines(corpus: Corpus) -> dict[str, list[Admission]]:
    """Each patient's admissions in a stable admit-date sort, keyed by
    patient_id in the order the patients first appear in ``corpus.admissions``."""
    by_patient: dict[str, list[Admission]] = {}
    for a in corpus.admissions:
        by_patient.setdefault(a.patient_id, []).append(a)
    return {pid: sorted(adms, key=lambda a: a.admit_date) for pid, adms in by_patient.items()}


def validate_corpus(corpus: Corpus) -> None:
    """Check every structural invariant; raise naming the offending id."""
    seen_patients = set()
    for p in corpus.patients:
        _require(p.patient_id not in seen_patients, f"duplicate patient_id {p.patient_id!r}")
        seen_patients.add(p.patient_id)
        _check_enum(p.gender, GENDERS, "gender", p.patient_id)
        _check_enum(p.race, RACES, "race", p.patient_id)
        _check_enum(p.marital_status, MARITAL_STATUSES, "marital_status", p.patient_id)
        _check_enum(p.veteran, YES_NO_UNKNOWN, "veteran", p.patient_id)

    patients_by_id = {p.patient_id: p for p in corpus.patients}
    seen_admissions = set()
    for a in corpus.admissions:
        _require(a.admission_id not in seen_admissions, f"duplicate admission_id {a.admission_id!r}")
        seen_admissions.add(a.admission_id)
        _require(a.patient_id in patients_by_id,
                 f"admission {a.admission_id}: unknown patient_id {a.patient_id!r}")
        _check_enum(a.suicide_risk, YES_NO_UNKNOWN, "suicide_risk", a.admission_id)
        _require(a.discharge_date >= a.admit_date,
                 f"admission {a.admission_id}: discharge before admit")
        _require(len(a.notes) >= 1, f"admission {a.admission_id}: no notes")
        _require(sum(1 for n in a.notes if n.note_type == "DischargeSummary") == 1,
                 f"admission {a.admission_id}: must contain exactly one discharge summary")
        prev_ts = None
        for n in a.notes:
            _check_enum(n.note_type, NOTE_TYPES, "note_type", n.note_id)
            _require(bool(n.text), f"note {n.note_id}: empty text")
            _require(a.admit_date <= n.timestamp.date() <= a.discharge_date,
                     f"note {n.note_id}: timestamp outside admission interval")
            if prev_ts is not None:
                _require(n.timestamp >= prev_ts,
                         f"admission {a.admission_id}: notes not sorted by timestamp")
            prev_ts = n.timestamp
        age = age_at(patients_by_id[a.patient_id].birth_date, a.admit_date)
        _require(18 <= age <= 100,
                 f"admission {a.admission_id}: patient age {age} outside [18, 100]")

    for pid, ordered in patient_timelines(corpus).items():
        for prev, nxt in zip(ordered, ordered[1:]):
            _require(nxt.admit_date > prev.discharge_date,
                     f"patient {pid}: admissions {prev.admission_id} and "
                     f"{nxt.admission_id} overlap")


def _parse_date(raw, what, owner) -> date:
    try:
        return date.fromisoformat(raw)
    except (TypeError, ValueError):
        raise CorpusValidationError(f"{owner}: bad {what} {raw!r}") from None


def _parse_datetime(raw, what, owner) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except (TypeError, ValueError):
        raise CorpusValidationError(f"{owner}: bad {what} {raw!r}") from None


def _note_from_obj(obj, owner) -> Note:
    _require(isinstance(obj, dict), f"{owner}: a note is not a JSON object")
    try:
        wire_type = obj["note_type"]
        note = Note(
            note_id=str(obj["note_id"]),
            note_type=_NOTE_TYPE_FROM_WIRE.get(wire_type, wire_type),
            timestamp=_parse_datetime(obj["timestamp"], "timestamp", obj.get("note_id", owner)),
            text=obj["text"],
        )
    except KeyError as e:
        raise CorpusValidationError(f"{owner}: note missing key {e}") from None
    _require(isinstance(note.text, str), f"note {note.note_id}: text {note.text!r} is not a string")
    return note


def _admission_from_obj(obj, patient_id) -> Admission:
    _require(isinstance(obj, dict), f"{patient_id}: an admission is not a JSON object")
    owner = obj.get("admission_id", f"<admission of {patient_id}>")
    try:
        return Admission(
            admission_id=str(obj["admission_id"]),
            patient_id=patient_id,
            admit_date=_parse_date(obj["admit_date"], "admit_date", owner),
            discharge_date=_parse_date(obj["discharge_date"], "discharge_date", owner),
            suicide_risk=obj["suicide_risk"],
            notes=tuple(_note_from_obj(n, owner) for n in obj["notes"]),
            label_readmitted_30d=obj.get("label_readmitted_30d"),
        )
    except KeyError as e:
        raise CorpusValidationError(f"{owner}: admission missing key {e}") from None


def _patient_from_obj(obj) -> tuple[Patient, list[Admission]]:
    """One corpus line's patient and admissions, the admissions in admit-date order."""
    _require(isinstance(obj, dict), "not a JSON object")
    owner = obj.get("patient_id", "<patient>")
    try:
        patient = Patient(
            patient_id=str(obj["patient_id"]),
            gender=obj["gender"],
            race=obj["race"],
            marital_status=obj["marital_status"],
            veteran=obj["veteran"],
            birth_date=_parse_date(obj["birth_date"], "birth_date", owner),
        )
        adms = [_admission_from_obj(a, patient.patient_id) for a in obj["admissions"]]
    except KeyError as e:
        raise CorpusValidationError(f"patient missing key {e}") from None
    return patient, sorted(adms, key=lambda a: a.admit_date)


def load_corpus(path) -> Corpus:
    """Load and fully validate a JSONL corpus file. An error in reading a
    line names the file and the line."""
    patients: list[Patient] = []
    admissions: list[Admission] = []
    with open_text(path, CorpusValidationError) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                patient, adms = _patient_from_obj(json.loads(line))
            except json.JSONDecodeError as e:
                raise CorpusValidationError(f"{path} line {lineno}: invalid JSON ({e.msg})") from None
            except CorpusValidationError as e:
                raise CorpusValidationError(f"{path} line {lineno}: {e}") from None
            patients.append(patient)
            admissions.extend(adms)
    corpus = Corpus(patients=tuple(patients), admissions=tuple(admissions))
    validate_corpus(corpus)
    return corpus


def write_corpus(corpus: Corpus, path) -> None:
    """Write JSONL in the canonical key order, each patient's admissions in
    admit-date order; load_corpus round-trips it."""
    timelines = patient_timelines(corpus)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in corpus.patients:
            obj = {
                "patient_id": p.patient_id,
                "gender": p.gender,
                "race": p.race,
                "marital_status": p.marital_status,
                "veteran": p.veteran,
                "birth_date": p.birth_date.isoformat(),
                "admissions": [_admission_to_obj(a) for a in timelines.get(p.patient_id, [])],
            }
            fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def _admission_to_obj(a: Admission) -> dict:
    obj = {
        "admission_id": a.admission_id,
        "admit_date": a.admit_date.isoformat(),
        "discharge_date": a.discharge_date.isoformat(),
        "suicide_risk": a.suicide_risk,
        "notes": [
            {
                "note_id": n.note_id,
                "note_type": _NOTE_TYPE_WIRE[n.note_type],
                "timestamp": n.timestamp.isoformat(),
                "text": n.text,
            }
            for n in a.notes
        ],
    }
    if a.label_readmitted_30d is not None:
        obj["label_readmitted_30d"] = a.label_readmitted_30d
    return obj


def derive_labels(corpus: Corpus) -> Corpus:
    """Label each admission with the 30-day readmission outcome.

    An admission with a successor is labeled True iff the gap into the next
    admission is <= READMISSION_WINDOW_DAYS (inclusive). A patient's
    chronologically last admission keeps its stored label if present, else
    False. Idempotent.
    """
    labeled: dict[str, bool] = {}
    for ordered in patient_timelines(corpus).values():
        for cur, nxt in zip(ordered, ordered[1:]):
            gap = (nxt.admit_date - cur.discharge_date).days
            labeled[cur.admission_id] = gap <= READMISSION_WINDOW_DAYS
        last = ordered[-1]
        stored = last.label_readmitted_30d
        labeled[last.admission_id] = bool(stored) if stored is not None else False
    new_admissions = tuple(
        replace(a, label_readmitted_30d=labeled[a.admission_id]) for a in corpus.admissions
    )
    return Corpus(patients=corpus.patients, admissions=new_admissions)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Corpus-level counts and means; token counts use ``textproc.count_tokens``."""
    n_patients = len(corpus.patients)
    n_admissions = len(corpus.admissions)
    n_notes = sum(len(a.notes) for a in corpus.admissions)
    total_tokens = sum(count_tokens(n.text) for a in corpus.admissions for n in a.notes)
    n_readmitted = sum(1 for a in corpus.admissions if a.label_readmitted_30d)
    return CorpusStats(
        n_patients=n_patients,
        n_notes=n_notes,
        n_admissions=n_admissions,
        n_readmitted=n_readmitted,
        total_tokens=total_tokens,
        mean_tokens_per_note=total_tokens / n_notes if n_notes else 0.0,
        mean_notes_per_admission=n_notes / n_admissions if n_admissions else 0.0,
        mean_tokens_per_admission=total_tokens / n_admissions if n_admissions else 0.0,
        readmission_rate=n_readmitted / n_admissions if n_admissions else 0.0,
    )
