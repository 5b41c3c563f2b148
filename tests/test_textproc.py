import pytest
from hypothesis import given, settings, strategies as st

from readmit import syngen, textproc
from readmit.errors import FieldRangeError, NoteParseError
from readmit.textproc import (COMPLIANCE_LEVELS, INSIGHT_LEVELS, NoteFields,
                              _HEADER_GRAMMAR, count_tokens, extract_structured,
                              header_line, resolve_admission_fields,
                              split_sentences, tokenize)

from helpers import (reference_extract_structured, reference_header_block,
                     reference_split_sentences, reference_tokenize, tiny_corpus)


def test_tokenize_punct_and_lowercase():
    assert tokenize("Pt denies SI.") == ["pt", "denies", "si", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_hyphen_and_apostrophe():
    assert tokenize("self-harm risk") == ["self-harm", "risk"]
    assert tokenize("Don't worry") == ["don't", "worry"]


def test_tokenize_header_line():
    assert tokenize("GAF at admission: 45") == ["gaf", "at", "admission", ":", "45"]


@given(st.text(max_size=200))
def test_tokenize_deterministic_and_clean(text):
    toks = tokenize(text)
    assert toks == tokenize(text)
    for t in toks:
        assert t == t.lower()
        assert not any(c.isspace() for c in t)


@given(st.text(st.one_of(st.characters(), st.sampled_from("'-\u2019\u2010 \n")), max_size=200))
def test_tokenize_matches_finditer_form(text):
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("text", [
    "", "   \n\n", "Don't stop. Self-harm -- denied. 'quoted' - dash",
    "It's well.\n\n\nBlank lines above. rock'n'roll co-op's",
    "Café naïve Ünïcode. 日本語のテキスト。 Ζωή! ﬁle ß", "GAF at admission: 45\nInsight: poor\n",
])
def test_count_tokens_matches_tokenize_and_sentences(text):
    assert count_tokens(text) == len(tokenize(text))
    assert count_tokens(text) == sum(len(s) for s in split_sentences(text))


def test_count_tokens_on_generated_notes(small_gen):
    _, corpus, _ = small_gen
    for note in (n for a in corpus.admissions for n in a.notes):
        assert count_tokens(note.text) == len(tokenize(note.text))
        assert count_tokens(note.text) == sum(len(s) for s in split_sentences(note.text))


def test_split_two_sentences():
    sents = split_sentences("Sleeping well. Appetite poor.")
    assert len(sents) == 2
    assert sents[0] == tuple(tokenize("Sleeping well."))
    assert sents[1] == ("appetite", "poor", ".")


def test_split_abbreviation_guard():
    sents = split_sentences("Seen by Dr. Smith today.")
    assert len(sents) == 1


def test_split_blank_line_boundary():
    sents = split_sentences("GAF at admission: 45\nInsight: poor\n\nStable day. Calm night.")
    assert len(sents) == 3
    assert sents[0][0] == "gaf"


def test_split_no_split_before_lowercase():
    # continuation after a dot followed by lowercase stays one sentence
    sents = split_sentences("Level was 4.5 and stable today.")
    assert len(sents) == 1


@given(st.lists(st.sampled_from(["Alpha beta.", "Gamma delta rho.", "Word."]), min_size=1, max_size=6))
def test_split_counts_joined_sentences(parts):
    text = " ".join(parts)
    assert len(split_sentences(text)) == len(parts)


# A note is drawn as pieces of word, whitespace, punctuation run and
# whitespace, so guard words meet dots, newlines and capitals often. The
# pieces reach every branch of the splitter: guard words and dotted words,
# every punctuation run, and whitespace kinds that str.isspace knows besides
# the ASCII ones (no-break space, file separator, ideographic space).
_SPLIT_WORDS = ["a", "x", "A", "M", "S", "Dr", "e.g", "St", "x.y", "7", "42", "'", "-"]
_SPLIT_SPACES = ["", " ", "\t", "\n", "\n\n", "\xa0", "\x1c", "\u3000"]
_SPLIT_PUNCT = ["", ".", "..", "!", "?"]
_split_piece = st.tuples(st.sampled_from(_SPLIT_WORDS), st.sampled_from(_SPLIT_SPACES),
                         st.sampled_from(_SPLIT_PUNCT), st.sampled_from(_SPLIT_SPACES))
_split_text = st.lists(_split_piece, max_size=12).map(lambda pieces: "".join("".join(p) for p in pieces))


@settings(max_examples=1000)
@given(_split_text)
def test_split_matches_reference(text):
    assert split_sentences(text) == reference_split_sentences(text)


@given(_split_text)
def test_sentences_partition_the_tokens(text):
    sents = split_sentences(text)
    assert all(sents)
    assert [t for s in sents for t in s] == tokenize(text)


def test_split_matches_reference_on_generated_notes(small_gen):
    _, corpus, _ = small_gen
    for admission in corpus.admissions:
        for note in admission.notes:
            assert split_sentences(note.text) == reference_split_sentences(note.text)


def test_split_matches_reference_on_paper_scale_notes():
    corpus = syngen.generate(syngen.paper_scale_config(seed=3, n_patients=5))
    notes = [n.text for a in corpus.admissions for n in a.notes]
    assert sum(map(len, notes)) / len(notes) > 5000
    for text in notes:
        assert split_sentences(text) == reference_split_sentences(text)


@pytest.mark.parametrize("text, expected", [
    # the guard word may end just before a newline that precedes the dot
    ("Dr\n. Smith saw him.", ["Dr\n. Smith saw him."]),
    ("See e.g. Notes.", ["See e.g. Notes."]),
    # the word runs back over the dot to "x", so it is "x.dr.": no guard
    ("x.Dr. Smith", ["x.Dr.", "Smith"]),
    # leading dots are not part of the word
    ("...Dr. Smith", ["...Dr. Smith"]),
    # a guard word at the very start of a block
    ("Dr. Smith saw him.", ["Dr. Smith saw him."]),
    ("Calm.\n\nDr. Smith saw him.", ["Calm.", "Dr. Smith saw him."]),
])
def test_split_guard_edge_cases(text, expected):
    assert split_sentences(text) == [tuple(tokenize(e)) for e in expected]
    assert split_sentences(text) == reference_split_sentences(text)


def test_extract_gaf_admission():
    fields = extract_structured("GAF at admission: 45")
    assert fields == NoteFields(gaf_admission=45)


def test_extract_enums():
    fields = extract_structured("Insight: poor\nCompliance: partial")
    assert fields.insight == "Poor"
    assert fields.compliance == "Partial"


def test_extract_case_insensitive_keys():
    fields = extract_structured("gaf AT ADMISSION: 12\nINSIGHT: Good")
    assert fields.gaf_admission == 12
    assert fields.insight == "Good"


def test_extract_gaf_range_error():
    with pytest.raises(FieldRangeError, match="150"):
        extract_structured("GAF at admission: 150", note_id="n1")


def test_extract_gaf_not_integer():
    with pytest.raises(NoteParseError):
        extract_structured("GAF: forty")


def test_extract_bad_enum_token():
    with pytest.raises(NoteParseError, match="insight"):
        extract_structured("Insight: excellent")


def test_extract_estimated_los():
    fields = extract_structured("Estimated LOS: 12 days")
    assert fields.estimated_los_days == 12
    with pytest.raises(NoteParseError):
        extract_structured("Estimated LOS: soon")


def test_extract_first_match_wins():
    fields = extract_structured("GAF: 40\nGAF: 80")
    assert fields.gaf == 40


def test_extract_plain_gaf_does_not_match_qualified():
    fields = extract_structured("GAF at admission: 45")
    assert fields.gaf is None


def _outcome(extract, text):
    """extract(text)'s fields, or the (type, message) of what it raised."""
    try:
        return extract(text, note_id="n1")
    except (NoteParseError, FieldRangeError) as e:
        return type(e), str(e)


# Letters that re.I also matches: the long s, the Kelvin sign, dotted and
# dotless i.
_FOLDS = {"s": "\u017f", "k": "\u212a", "i": "\u0130\u0131"}
_SPACES = st.text(" \t", max_size=2)


@st.composite
def _header_key(draw):
    """A written key in any case, folded letters and spacing, or a near miss."""
    key = draw(st.sampled_from([k for k, _, _ in _HEADER_GRAMMAR.values()]
                               + ["GAF at", "GAFF", "Insight level", "Kompliance", "LOS"]))
    words = ["".join(draw(st.sampled_from([c.lower(), c.upper(), *_FOLDS.get(c.lower(), "")]))
                     for c in word) for word in key.split()]
    return "".join(w + draw(st.text(" \t", min_size=1, max_size=2)) for w in words[:-1]) + words[-1]


_HEADER_VALUES = st.one_of(
    st.integers(-3, 130).map(str),
    st.sampled_from(["Good", "fair", "POOR", "yes", "Partial", "none", "NONE", "excellent",
                     "12 days", "3days", "9 DAYS", "4 day\u017f", "soon", "forty", "\uff14\uff15",
                     "\u00b2", "0045", "7 days extra", ""]),
    st.text("ab1: \t\r\u017f\u212a\u0130\u0131", max_size=6))


@st.composite
def _header_block(draw):
    """Header lines (repeats and bad values included), then maybe a body,
    after a blank line or straight after the last header line."""
    lines = [draw(_SPACES) + draw(_header_key()) + draw(_SPACES) + ":" + draw(_SPACES)
             + draw(_HEADER_VALUES) + draw(_SPACES) + draw(st.sampled_from(["", "\r"]))
             for _ in range(draw(st.integers(0, 7)))]
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    if draw(st.booleans()):
        body = draw(st.lists(st.one_of(st.sampled_from(["Sleeping well.", "GAF: 55", "insight: poor"]),
                                       st.text(max_size=20)), max_size=4))
        text += draw(st.sampled_from(["\n\n", "\n"])) + draw(st.sampled_from([" ", "\n"])).join(body)
    return text


@settings(max_examples=400, deadline=None)
@given(_header_block())
def test_extract_matches_six_regex_reference(text):
    assert _outcome(extract_structured, text) == _outcome(reference_extract_structured,
                                                          reference_header_block(text))


def test_body_line_that_begins_with_a_key_is_not_read():
    text = "GAF: 40\n\nPatient was asked about her illness.\nInsight: limited, improving"
    with pytest.raises(NoteParseError):
        reference_extract_structured(text)
    assert extract_structured(text) == NoteFields(gaf=40)
    assert extract_structured("Sleeping well.\nGAF: 40\nInsight: good") == NoteFields()


def test_extract_matches_reference_on_generated_notes():
    config = syngen.paper_scale_config(seed=20260808, n_patients=80, notes_per_admission=(1, 3))
    corpus, _ = syngen.generate_with_truth(config)
    notes = [n for a in corpus.admissions for n in a.notes]
    assert len(notes) == 482
    for note in notes:
        assert extract_structured(note.text, note.note_id) == reference_extract_structured(
            note.text, note.note_id)


@pytest.mark.parametrize("field, values", [
    ("gaf_admission", range(1, 101)), ("gaf_discharge", range(1, 101)), ("gaf", range(1, 101)),
    ("insight", INSIGHT_LEVELS), ("compliance", COMPLIANCE_LEVELS),
    ("estimated_los_days", range(0, 400)),
])
def test_header_line_round_trip(field, values):
    for v in values:
        assert extract_structured(header_line(field, v)) == NoteFields(**{field: v})


def test_module_docstring_states_the_grammar_table():
    # The docstring's indented block is the documented grammar, one key per line.
    block = [line.strip() for line in textproc.__doc__.splitlines() if line.startswith("    ")]
    assert [line.partition(":")[0] for line in block] == [k for k, _, _ in _HEADER_GRAMMAR.values()]
    assert all(f"{key}:" in textproc.__doc__ for key, _, _ in _HEADER_GRAMMAR.values())


def test_resolve_admission_rules():
    texts = [
        "GAF at admission: 40\nInsight: good\nCompliance: yes\nEstimated LOS: 9 days",
        "GAF: 50\nInsight: fair",
        "GAF at discharge: 60\nInsight: poor\nCompliance: none",
    ]
    corpus = tiny_corpus(note_texts=tuple(texts))
    fields = resolve_admission_fields(corpus.admissions[0].notes)
    assert fields.gaf_admission == 40
    assert fields.gaf_discharge == 60
    assert fields.gaf_per_note == (None, 50, None)
    assert fields.insight == "Poor"  # latest note stating it
    assert fields.compliance == "None"
    assert fields.estimated_los_days == 9


def test_resolve_gaf_discharge_only_from_discharge_summary():
    texts = [
        "GAF at discharge: 70\nStable.",  # progress note: ignored for discharge GAF
        "Routine day.",
    ]
    corpus = tiny_corpus(note_texts=tuple(texts))
    fields = resolve_admission_fields(corpus.admissions[0].notes)
    assert fields.gaf_discharge is None
