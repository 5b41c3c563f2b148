import json
from datetime import datetime

import pytest

from readmit.corpus import (Corpus, Note, corpus_stats, derive_labels,
                            load_corpus, validate_corpus, write_corpus)
from readmit.errors import CorpusValidationError

from helpers import tiny_corpus


def _patient_line(admissions):
    return {
        "patient_id": "P0",
        "gender": "Male",
        "race": "White",
        "marital_status": "Single",
        "veteran": "No",
        "birth_date": "1980-01-01",
        "admissions": admissions,
    }


def _admission_obj(aid, admit, discharge, notes=None):
    return {
        "admission_id": aid,
        "admit_date": admit,
        "discharge_date": discharge,
        "suicide_risk": "No",
        "notes": notes or [{
            "note_id": f"{aid}-N0",
            "note_type": "discharge_summary",
            "timestamp": f"{admit}T10:00:00",
            "text": "Stable day.",
        }],
    }


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus.patients) == 0
    assert len(corpus.admissions) == 0


def test_load_two_nonoverlapping_admissions(tmp_path):
    line = _patient_line([
        _admission_obj("A0", "2020-01-01", "2020-01-05"),
        _admission_obj("A1", "2020-03-01", "2020-03-04"),
    ])
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus.admissions) == 2


def test_load_overlapping_admissions_names_patient(tmp_path):
    line = _patient_line([
        _admission_obj("A0", "2020-01-01", "2020-02-01"),
        _admission_obj("A1", "2020-01-20", "2020-02-10"),
    ])
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(CorpusValidationError, match="P0"):
        load_corpus(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(CorpusValidationError, match="line 1"):
        load_corpus(path)


@pytest.mark.parametrize("line, message", [
    ([1, 2], "line 2: not a JSON object"),
    ("P0", "line 2: not a JSON object"),
    (_patient_line([1]), "line 2: P0: an admission is not a JSON object"),
    (_patient_line([_admission_obj("A0", "2020-01-01", "2020-01-05", notes=["text"])]),
     "line 2: A0: a note is not a JSON object"),
    (_patient_line([_admission_obj("A0", "2020-01-01", "2020-01-05", notes=[{
        "note_id": "N7", "note_type": "discharge_summary", "timestamp": "2020-01-05T10:00:00",
        "text": None}])]), "line 2: note N7: text None is not a string"),
], ids=["array", "string", "admission_number", "note_string", "text_null"])
def test_malformed_line_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_text("\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(CorpusValidationError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path} {message}"


@pytest.mark.parametrize("mutate,message", [
    (lambda line: line.update(gender="M"), "gender"),
    (lambda line: line.update(birth_date="2015-01-01"), "age"),
    (lambda line: line["admissions"][0].update(discharge_date="2019-12-01"), "discharge"),
    (lambda line: line["admissions"][0]["notes"][0].update(text=""), "empty text"),
    (lambda line: line["admissions"][0]["notes"][0].update(timestamp="2021-05-05T00:00:00"),
     "outside admission"),
    (lambda line: line["admissions"][0]["notes"][0].update(note_type="progress"),
     "discharge summary"),
])
def test_invariant_violations(tmp_path, mutate, message):
    line = _patient_line([_admission_obj("A0", "2020-01-01", "2020-01-05")])
    mutate(line)
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(CorpusValidationError, match=message):
        load_corpus(path)


def test_duplicate_patient_id(tmp_path):
    line = _patient_line([_admission_obj("A0", "2020-01-01", "2020-01-05")])
    line2 = json.loads(json.dumps(line))
    line2["admissions"][0]["admission_id"] = "A1"
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(line) + "\n" + json.dumps(line2) + "\n", encoding="utf-8")
    with pytest.raises(CorpusValidationError, match="duplicate patient_id"):
        load_corpus(path)


def test_derive_labels_single_admission_false():
    corpus = derive_labels(tiny_corpus(n_admissions=1))
    assert corpus.admissions[0].label_readmitted_30d is False


@pytest.mark.parametrize("gap,expected", [(24, True), (30, True), (31, False)])
def test_derive_labels_gap_boundary(gap, expected):
    corpus = derive_labels(tiny_corpus(n_admissions=2, gap_days=gap))
    assert corpus.admissions[0].label_readmitted_30d is expected


def test_derive_labels_idempotent():
    once = derive_labels(tiny_corpus(n_admissions=3, gap_days=10))
    twice = derive_labels(once)
    assert [a.label_readmitted_30d for a in once.admissions] == \
           [a.label_readmitted_30d for a in twice.admissions]


def test_last_admission_label_from_data():
    corpus = tiny_corpus(n_admissions=2, gap_days=40, label=True)
    labeled = derive_labels(corpus)
    # first admission recomputed from the 40-day gap, last keeps stored True
    assert labeled.admissions[0].label_readmitted_30d is False
    assert labeled.admissions[1].label_readmitted_30d is True


def test_roundtrip_bit_exact(tmp_path, small_gen):
    _, corpus, _ = small_gen
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)
    again = load_corpus(path)
    assert again == corpus
    path2 = tmp_path / "c2.jsonl"
    write_corpus(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_corpus_stats_single_note():
    corpus = derive_labels(tiny_corpus(note_texts=("one two three four five six seven eight nine ten",)))
    stats = corpus_stats(corpus)
    assert stats.mean_tokens_per_note == 10
    assert stats.n_notes == 1


def test_corpus_stats_rate_third():
    corpus = derive_labels(tiny_corpus(n_admissions=3, gap_days=40))
    # relabel middle admission as readmitted by shrinking one gap
    corpus = tiny_corpus(n_admissions=3, gap_days=40)
    adms = list(corpus.admissions)
    from dataclasses import replace
    # move third admission to 10 days after the second discharge
    a2 = adms[1]
    from datetime import timedelta
    new_admit = a2.discharge_date + timedelta(days=10)
    new_discharge = new_admit + timedelta(days=5)
    notes = tuple(
        Note(n.note_id, n.note_type,
             datetime(new_admit.year, new_admit.month, new_admit.day, 9), n.text)
        for n in adms[2].notes
    )
    adms[2] = replace(adms[2], admit_date=new_admit, discharge_date=new_discharge, notes=notes)
    corpus = derive_labels(Corpus(patients=corpus.patients, admissions=tuple(adms)))
    stats = corpus_stats(corpus)
    assert stats.n_admissions == 3
    assert stats.n_readmitted == 1
    assert stats.readmission_rate == pytest.approx(1 / 3)


def test_corpus_stats_empty():
    stats = corpus_stats(Corpus(patients=(), admissions=()))
    assert stats.n_admissions == 0
    assert stats.readmission_rate == 0.0
    assert stats.mean_tokens_per_note == 0.0


def test_validate_ok_on_generated(small_gen):
    _, corpus, _ = small_gen
    validate_corpus(corpus)
