"""Tokenization, sentence segmentation, and structured header extraction.

Clinical notes carry machine-readable header lines besides free text.
Their grammar, the table ``_HEADER_GRAMMAR``, is a fixed contract (one
field per line, keys case-insensitive, all header lines at the top of the
note before any other line); ``header_line`` writes it:

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
from functools import partial
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


INSIGHT_LEVELS = ("Good", "Fair", "Poor")
COMPLIANCE_LEVELS = ("Yes", "Partial", "None")


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
    if not raw.isdecimal():  # exactly the strings that fullmatch \d+
        raise NoteParseError(f"note {note_id}: {field} value {raw!r} is not an integer")
    value = int(raw)
    if not 1 <= value <= 100:
        raise FieldRangeError(f"note {note_id}: {field} value {value} outside [1, 100]")
    return value


def _parse_level(levels: tuple[str, ...], raw: str, field: str, note_id) -> str:
    level = next((v for v in levels if v.lower() == raw.lower()), None)
    if level is None:
        raise NoteParseError(f"note {note_id}: unrecognized {field} value {raw!r}")
    return level


def _parse_los(raw: str, field: str, note_id) -> int:
    m = re.fullmatch(r"(\d+)[ \t]*days", raw, re.I)
    if m is None:
        raise NoteParseError(f"note {note_id}: estimated LOS value {raw!r} not of the form '<int> days'")
    return int(m.group(1))


# NoteFields field -> (written key, value parser, value writer), in parse order.
_HEADER_GRAMMAR = {
    "gaf_admission": ("GAF at admission", _parse_gaf, str),
    "gaf_discharge": ("GAF at discharge", _parse_gaf, str),
    "gaf": ("GAF", _parse_gaf, str),
    "insight": ("Insight", partial(_parse_level, INSIGHT_LEVELS), str.lower),
    "compliance": ("Compliance", partial(_parse_level, COMPLIANCE_LEVELS), str.lower),
    "estimated_los_days": ("Estimated LOS", _parse_los, "{} days".format),
}
# One alternative per field, whose named group is the value: lastgroup names it.
_HEADER_RE = re.compile(r"^[ \t]*(?:" + "|".join(
    r"[ \t]+".join(key.split()) + rf"[ \t]*:[ \t]*(?P<{field}>.*?)"
    for field, (key, _, _) in _HEADER_GRAMMAR.items()) + r")[ \t]*\r?$", re.I | re.M)


def header_line(field: str, value) -> str:
    """The header line stating ``value`` for the NoteFields field ``field``."""
    key, _, write = _HEADER_GRAMMAR[field]
    return f"{key}: {write(value)}"


def extract_structured(text: str, note_id="<unknown>") -> NoteFields:
    """Extract structured header fields from one note's text.

    Only the header block is read: the run of header lines at the top of
    the note, ended by the first line that is not one, so body text is
    never parsed as a field. Each field's first line wins; unmatched fields
    are left as None. The earliest invalid value in grammar order raises;
    GAF is never clamped.
    """
    raw: dict[str, str] = {}
    pos = 0
    while m := _HEADER_RE.match(text, pos):
        raw.setdefault(m.lastgroup, m[m.lastgroup])
        pos = m.end() + 1  # past the line's newline
    return NoteFields(**{field: parse(raw[field], field, note_id)
                         for field, (_, parse, _) in _HEADER_GRAMMAR.items() if field in raw})


def resolve_admission_fields(notes: Sequence) -> StructuredFields:
    """Resolve per-note fields to admission level.

    gaf_admission comes from the earliest note carrying it, gaf_discharge
    from the discharge summary, insight/compliance from the latest note
    stating them (current clinical state), estimated LOS from the earliest
    note stating it. ``notes`` must be timestamp-ordered Note objects.
    """
    per_note = [extract_structured(n.text, n.note_id) for n in notes]
    sources = {"gaf_admission": per_note, "estimated_los_days": per_note,
               "insight": per_note[::-1], "compliance": per_note[::-1],
               "gaf_discharge": [f for n, f in zip(notes, per_note) if n.note_type == "DischargeSummary"]}
    return StructuredFields(gaf_per_note=tuple(f.gaf for f in per_note), **{
        field: next((getattr(f, field) for f in fs if getattr(f, field) is not None), None)
        for field, fs in sources.items()})
