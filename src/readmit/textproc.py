"""Tokenization, sentence segmentation, and structured header extraction.

Clinical notes in this package carry machine-readable header lines in
addition to free text. The header grammar is a fixed contract (one field
per line, keys case-insensitive):

    GAF at admission: <int 1-100>
    GAF at discharge: <int 1-100>
    GAF: <int 1-100>
    Insight: <good|fair|poor>
    Compliance: <yes|partial|none>
    Estimated LOS: <int> days

Users bringing their own notes must emit these surface forms for the
structured fields to be picked up.
"""

import re
import string
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .errors import FieldRangeError, NoteParseError

_TOKEN_RE = re.compile(r"\w+(?:['\-]\w+)*|[^\w\s]", re.UNICODE)
_BLANK_LINE_RE = re.compile(r"\n[ \t]*\n+")
_PUNCT_RUN_RE = re.compile(r"[.!?]+")
# sre's \s and str.isspace agree on every code point, so this finds what
# str.lstrip would strip.
_SPACES_RE = re.compile(r"\s*")
_ABBREV_CHARS = frozenset(string.ascii_letters + ".")


def tokenize(text: str) -> list[str]:
    """Lowercased tokens: whitespace-split with punctuation broken out.

    Punctuation becomes standalone single-character tokens, except hyphens
    and apostrophes inside a word ("self-harm", "don't" stay whole).
    """
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def count_tokens(text: str) -> int:
    """``len(tokenize(text))``, without lowercasing each token."""
    return len(_TOKEN_RE.findall(text))


def _load_abbreviations() -> frozenset[str]:
    raw = resources.files("readmit.resources").joinpath("abbreviations.txt").read_text("utf-8")
    return frozenset(line.strip() for line in raw.splitlines() if line.strip())


_DEFAULT_ABBREVIATIONS: Optional[frozenset[str]] = None


def default_abbreviations() -> frozenset[str]:
    """Shipped sentence-split guard list (lowercase, trailing dot included)."""
    global _DEFAULT_ABBREVIATIONS
    if _DEFAULT_ABBREVIATIONS is None:
        _DEFAULT_ABBREVIATIONS = _load_abbreviations()
    return _DEFAULT_ABBREVIATIONS


def _is_guarded_abbreviation(block: str, punct_start: int) -> bool:
    end = punct_start
    if end > 0 and block[end - 1] == "\n":
        end -= 1  # the word may end just before a newline that precedes the dot
    lo = end
    while lo > 0 and block[lo - 1] in _ABBREV_CHARS:
        lo -= 1
    while lo < end and block[lo] == ".":
        lo += 1
    if lo == end:
        return False
    return (block[lo:end] + ".").lower() in default_abbreviations()


def _block_spans(text: str):
    pos = 0
    for m in _BLANK_LINE_RE.finditer(text):
        yield pos, m.start()
        pos = m.end()
    yield pos, len(text)


def split_sentences(text: str) -> list[tuple[str, ...]]:
    """Segment note text into sentences, each the tuple of its tokens.

    Boundaries are '.', '!' or '?' runs followed by whitespace plus an
    uppercase letter (or end of text), and blank lines. A run holding a '.'
    is not a boundary when its guard word, lowercased and with a '.'
    appended, is on the abbreviation guard list. The guard word is the
    longest stretch of ASCII letters and dots that ends just before the
    run (or just before one newline that precedes it), cut to start at its
    first letter: "x.Dr. Smith" gives "x.dr.", "Dr\n. Smith" gives "dr.".
    A piece between boundaries that is all whitespace holds no token and
    is dropped.

    Each character is looked at a bounded number of times, so the cost is
    linear in the length of the note.
    """
    out: list[tuple[str, ...]] = []

    def emit(lo: int, hi: int) -> None:
        tokens = tuple(tokenize(text[lo:hi]))
        if tokens:
            out.append(tokens)

    for bstart, bend in _block_spans(text):
        block = text[bstart:bend]
        start = 0
        n = len(block)
        for m in _PUNCT_RUN_RE.finditer(block):
            e = m.end()
            if e < n and not block[e].isspace():
                continue  # punctuation glued to following text: not a boundary
            nxt = _SPACES_RE.match(block, e).end()
            if nxt < n and not block[nxt].isupper():
                continue
            if nxt < n and "." in m.group() and _is_guarded_abbreviation(block, m.start()):
                continue
            emit(bstart + start, bstart + e)
            start = e
        emit(bstart + start, bend)
    return out


# Header grammar. One field per line; first match per field wins.
_FIELD_LINE_RES = {
    "gaf_admission": re.compile(r"^[ \t]*gaf[ \t]+at[ \t]+admission[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "gaf_discharge": re.compile(r"^[ \t]*gaf[ \t]+at[ \t]+discharge[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "gaf": re.compile(r"^[ \t]*gaf[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "insight": re.compile(r"^[ \t]*insight[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "compliance": re.compile(r"^[ \t]*compliance[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
    "estimated_los": re.compile(r"^[ \t]*estimated[ \t]+los[ \t]*:[ \t]*(?P<v>.*?)[ \t]*\r?$", re.I | re.M),
}

INSIGHT_LEVELS = ("Good", "Fair", "Poor")
COMPLIANCE_LEVELS = ("Yes", "Partial", "None")

_INSIGHT_MAP = {v.lower(): v for v in INSIGHT_LEVELS}
_COMPLIANCE_MAP = {v.lower(): v for v in COMPLIANCE_LEVELS}
_INT_RE = re.compile(r"\d+")
_LOS_VALUE_RE = re.compile(r"(\d+)[ \t]*days", re.I)


@dataclass(frozen=True)
class NoteFields:
    """Structured fields found in a single note."""

    gaf_admission: Optional[int] = None
    gaf_discharge: Optional[int] = None
    gaf: Optional[int] = None
    insight: Optional[str] = None
    compliance: Optional[str] = None
    estimated_los_days: Optional[int] = None


@dataclass(frozen=True)
class StructuredFields:
    """Admission-level resolution of per-note structured fields."""

    gaf_admission: Optional[int] = None
    gaf_discharge: Optional[int] = None
    gaf_per_note: tuple[Optional[int], ...] = ()
    insight: Optional[str] = None
    compliance: Optional[str] = None
    estimated_los_days: Optional[int] = None


def _parse_gaf(raw: str, field: str, note_id) -> int:
    if _INT_RE.fullmatch(raw) is None:
        raise NoteParseError(f"note {note_id}: {field} value {raw!r} is not an integer")
    value = int(raw)
    if not 1 <= value <= 100:
        raise FieldRangeError(f"note {note_id}: {field} value {value} outside [1, 100]")
    return value


def extract_structured(text: str, note_id="<unknown>") -> NoteFields:
    """Extract structured header fields from one note's text.

    Unmatched fields are left as None. A recognized key with an invalid
    value raises; out-of-range GAF raises rather than clamping.
    """
    found = {}
    for field, regex in _FIELD_LINE_RES.items():
        m = regex.search(text)
        if m is None:
            continue
        raw = m.group("v")
        if field in ("gaf_admission", "gaf_discharge", "gaf"):
            found[field] = _parse_gaf(raw, field, note_id)
        elif field == "insight":
            level = _INSIGHT_MAP.get(raw.lower())
            if level is None:
                raise NoteParseError(f"note {note_id}: unrecognized insight value {raw!r}")
            found[field] = level
        elif field == "compliance":
            level = _COMPLIANCE_MAP.get(raw.lower())
            if level is None:
                raise NoteParseError(f"note {note_id}: unrecognized compliance value {raw!r}")
            found[field] = level
        else:
            m2 = _LOS_VALUE_RE.fullmatch(raw)
            if m2 is None:
                raise NoteParseError(f"note {note_id}: estimated LOS value {raw!r} not of the form '<int> days'")
            found["estimated_los_days"] = int(m2.group(1))
    return NoteFields(**found)


def resolve_admission_fields(notes: Sequence) -> StructuredFields:
    """Resolve per-note fields to admission level.

    gaf_admission comes from the earliest note carrying it, gaf_discharge
    from the discharge summary, insight/compliance from the latest note
    stating them (current clinical state), estimated LOS from the earliest
    note stating it. ``notes`` must be timestamp-ordered Note objects.
    """
    per_note = [extract_structured(n.text, n.note_id) for n in notes]

    gaf_admission = next((f.gaf_admission for f in per_note if f.gaf_admission is not None), None)
    estimated_los = next((f.estimated_los_days for f in per_note if f.estimated_los_days is not None), None)
    gaf_discharge = None
    for note, fields in zip(notes, per_note):
        if note.note_type == "DischargeSummary" and fields.gaf_discharge is not None:
            gaf_discharge = fields.gaf_discharge
            break
    insight = None
    compliance = None
    for fields in per_note:
        if fields.insight is not None:
            insight = fields.insight
        if fields.compliance is not None:
            compliance = fields.compliance
    return StructuredFields(
        gaf_admission=gaf_admission,
        gaf_discharge=gaf_discharge,
        gaf_per_note=tuple(f.gaf for f in per_note),
        insight=insight,
        compliance=compliance,
        estimated_los_days=estimated_los,
    )
