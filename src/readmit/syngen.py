"""Deterministic synthetic EHR generator with planted signal structure.

Each admission gets a latent readmission propensity
``sigmoid(intercept + sum(weight_e * (2*signal_e - 1)) + noise)`` over six
named effects; the label is a Bernoulli draw from it, and the follow-up gap
is then sampled so that label derivation from inter-admission gaps
reproduces it. Note text is assembled from sentence templates whose domains
and polarities reflect the planted clinical state, and structured headers
are embedded using the textproc grammar, so the whole NLP pipeline can be
exercised against known ground truth.

Everything is a pure function of the config: latent draws come from
per-patient streams derived from the master seed, and the label intercept
is calibrated by bisection against pre-drawn uniforms, so regenerating
with the same config is byte-identical.
"""

import json
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Mapping

import numpy as np

from . import corpus as corpus_mod
from . import textproc
from .corpus import Admission, Corpus, Note, Patient
from .domains import POLARITIES, RISK_DOMAINS, Lexicon, SeedRecord, default_lexicon
from .errors import ConfigError
from .neural import sigmoid
from .seeding import rng_for

EFFECT_NAMES = (
    "poor_insight",
    "noncompliance",
    "low_gaf_discharge",
    "past_readmission_ratio",
    "negative_mood_sentiment",
    "negative_substance_sentiment",
)

DEFAULT_EFFECT_WEIGHTS = {
    "poor_insight": 0.9,
    "noncompliance": 0.7,
    "low_gaf_discharge": 0.9,
    "past_readmission_ratio": 0.6,
    "negative_mood_sentiment": 1.6,
    "negative_substance_sentiment": 1.1,
}

# How strongly clinicians dwell on a domain that is going badly: the
# sentence weight for domain d scales by (1 + coupling * negativity_d).
# This is what makes domain sentence counts informative about the label.
FREQUENCY_COUPLING = 1.2

_INSIGHT_SIGNAL = {"Good": 0.0, "Fair": 0.5, "Poor": 1.0}
_COMPLIANCE_SIGNAL = {"Yes": 0.0, "Partial": 0.5, "None": 1.0}

_MOOD_IDX = RISK_DOMAINS.index("Mood")
_SUBSTANCE_IDX = RISK_DOMAINS.index("SubstanceUse")

_BASE_DATE = date(2013, 1, 1)


@dataclass(frozen=True)
class GenConfig:
    """Generator knobs. ``seed`` fully determines the output."""

    seed: int = 12345
    n_patients: int = 183
    admissions_per_patient: tuple[int, int] = (2, 21)
    notes_per_admission: tuple[int, int] = (2, 7)
    tokens_per_note: tuple[int, int] = (110, 220)
    target_readmission_rate: float = 0.5
    effect_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EFFECT_WEIGHTS))
    noise_sd: float = 1.0
    missing_field_rate: float = 0.05

    def validate(self) -> None:
        for name, rng_ in (("admissions_per_patient", self.admissions_per_patient),
                           ("notes_per_admission", self.notes_per_admission),
                           ("tokens_per_note", self.tokens_per_note)):
            lo, hi = rng_
            if lo < 1 or hi < lo:
                raise ConfigError(f"{name}: empty or invalid range {rng_}")
        if self.n_patients < 1:
            raise ConfigError(f"n_patients must be positive, got {self.n_patients}")
        if not 0.0 < self.target_readmission_rate < 1.0:
            raise ConfigError(
                f"target_readmission_rate must lie strictly in (0, 1), "
                f"got {self.target_readmission_rate}")
        unknown = set(self.effect_weights) - set(EFFECT_NAMES)
        if unknown:
            raise ConfigError(f"effect_weights: unknown effect names {sorted(unknown)}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be non-negative, got {self.noise_sd}")
        if not 0.0 <= self.missing_field_rate < 1.0:
            raise ConfigError(f"missing_field_rate must lie in [0, 1), got {self.missing_field_rate}")


def paper_scale_config(seed: int = 12345, **overrides) -> GenConfig:
    """Config sized like the real cohort the default targets are drawn from
    (183 patients, roughly 550 admissions, ~1000 tokens per note)."""
    return GenConfig(**{"seed": seed, "tokens_per_note": (765, 1255), **overrides})


POSITIVE_SHAPES = (
    "Patient reports steady improvement in {kw} {adv}.",
    "Clinician documents clear gains in {kw} {adv}.",
    "Team observed encouraging progress with {kw} {adv}.",
    "Notable improvement in {kw} was documented {adv}.",
    "Patient is responding well regarding {kw} {adv}.",
    "Staff describe meaningful progress around {kw} {adv}.",
    "Patient demonstrates good control over {kw} {adv}.",
    "Functioning related to {kw} continues to improve {adv}.",
    "Patient managed {kw} effectively {adv}.",
    "Strong gains around {kw} were evident {adv}.",
    "Patient coped well with {kw} {adv}.",
    "Improvement regarding {kw} remains steady {adv}.",
    "Patient appears markedly better with respect to {kw} {adv}.",
    "Progress notes reflect improvement in {kw} {adv}.",
    "Patient engaged constructively around {kw} {adv}.",
    "The picture regarding {kw} is clearly improving {adv}.",
    "Patient reports feeling better about {kw} {adv}.",
    "Treatment response around {kw} has been favorable {adv}.",
    "Gains in {kw} were sustained {adv}.",
    "Patient maintained steady footing with {kw} and continues to improve {adv}.",
)

NEUTRAL_SHAPES = (
    "Patient's status regarding {kw} is unchanged {adv}.",
    "No significant change in {kw} was noted {adv}.",
    "{kw} was discussed during the session {adv}.",
    "Clinician reviewed {kw} with the patient {adv}.",
    "Patient mentioned {kw} briefly {adv}.",
    "Documentation addresses {kw} without new findings {adv}.",
    "Status related to {kw} remains comparable to prior notes {adv}.",
    "Team continues to monitor {kw} {adv}.",
    "{kw} remains a focus of ongoing assessment {adv}.",
    "Patient and clinician discussed {kw} at length {adv}.",
    "Observations concerning {kw} were documented {adv}.",
    "No new developments regarding {kw} were reported {adv}.",
    "The plan around {kw} continues unchanged {adv}.",
    "Patient acknowledged {kw} during the interview {adv}.",
    "Assessment of {kw} is ongoing {adv}.",
    "Notes reference {kw} with unremarkable findings {adv}.",
    "{kw} was noted without further comment {adv}.",
    "Patient described {kw} in general terms {adv}.",
    "Routine monitoring of {kw} continues {adv}.",
    "The clinical picture regarding {kw} is steady {adv}.",
)

NEGATIVE_SHAPES = (
    "Patient reports worsening of {kw} {adv}.",
    "Clinician documents significant deterioration in {kw} {adv}.",
    "Marked decline around {kw} was observed {adv}.",
    "Patient is struggling considerably with {kw} {adv}.",
    "Team noted escalating problems with {kw} {adv}.",
    "Serious concerns about {kw} were raised {adv}.",
    "Patient demonstrates little control over {kw} {adv}.",
    "Functioning related to {kw} continues to deteriorate {adv}.",
    "Patient failed to manage {kw} {adv}.",
    "Problems with {kw} intensified {adv}.",
    "Patient coped poorly with {kw} {adv}.",
    "Deterioration regarding {kw} remains evident {adv}.",
    "Patient appears markedly worse with respect to {kw} {adv}.",
    "Progress notes reflect setbacks in {kw} {adv}.",
    "Patient disengaged when discussing {kw} {adv}.",
    "The picture regarding {kw} is clearly worsening {adv}.",
    "Patient reports feeling overwhelmed by {kw} {adv}.",
    "Treatment response around {kw} has been poor {adv}.",
    "Setbacks in {kw} were repeated {adv}.",
    "Ongoing difficulties with {kw} persist without relief {adv}.",
)

_SHAPES = {"positive": POSITIVE_SHAPES, "neutral": NEUTRAL_SHAPES, "negative": NEGATIVE_SHAPES}

ADVERBIALS = (
    "today",
    "this week",
    "overnight",
    "since the last note",
    "during rounds",
    "at present",
    "per nursing report",
    "in the afternoon",
    "over the weekend",
    "earlier this morning",
)

FILLER_SENTENCES = (
    "Vitals were within normal limits.",
    "Patient attended the morning group session.",
    "No acute events were reported overnight.",
    "Medication was administered as scheduled.",
    "Patient tolerated the meeting without incident.",
    "Nursing staff completed routine checks.",
    "Sleep was adequate per the overnight report.",
    "Appetite was fair at lunch.",
    "Patient ambulated in the hallway without difficulty.",
    "Laboratory results were reviewed by the team.",
    "The treatment plan was reviewed during rounds.",
    "Patient attended occupational therapy this afternoon.",
    "No changes were made to the current regimen.",
    "Patient rested quietly for most of the shift.",
    "Family meeting is scheduled for later this week.",
    "Patient completed the daily check-in form.",
    "Weight and vitals were recorded this morning.",
    "The patient was seen during morning rounds.",
    "Discharge planning discussion is in progress.",
    "Patient participated in the afternoon community meeting.",
    "Hydration and nutrition were encouraged.",
    "Safety checks were performed every fifteen minutes.",
    "The on-call clinician was updated by phone.",
    "No medication side effects were reported.",
)

# Emission probability of a neutral polarity for domain sentences; the
# remaining mass splits between positive and negative according to the
# admission's planted sentiment in [-1, 1].
NEUTRAL_SHARE = 0.2


class _TemplateFiller:
    """Pre-tokenized template machinery for fast sentence emission."""

    def __init__(self, lexicon: Lexicon):
        self.kw = lexicon.patterns  # a keyword is written as its tokens joined by spaces
        self.adv_tokens = [textproc.count_tokens(a) for a in ADVERBIALS]
        self.shape_tokens = {
            pol: [textproc.count_tokens(s.format(kw="", adv="")) for s in shapes]
            for pol, shapes in _SHAPES.items()
        }
        self.filler_tokens = [textproc.count_tokens(s) for s in FILLER_SENTENCES]

    def render(self, domain: str, polarity: str, shape_i: int, kw_i: int, adv_i: int):
        """(text, token count) of one shape filled with one keyword and adverbial."""
        kw = self.kw[domain][kw_i]
        text = _SHAPES[polarity][shape_i].format(kw=" ".join(kw), adv=ADVERBIALS[adv_i])
        count = self.shape_tokens[polarity][shape_i] + len(kw) + self.adv_tokens[adv_i]
        return text[0].upper() + text[1:], count

    def draw(self, rng: np.random.Generator, domain: str, polarity: str):
        """``render`` at a shape, keyword and adverbial drawn in that order."""
        return self.render(domain, polarity, int(rng.integers(0, len(_SHAPES[polarity]))),
                           int(rng.integers(0, len(self.kw[domain]))),
                           int(rng.integers(0, len(ADVERBIALS))))


@dataclass
class _AdmLatent:
    los_days: int
    gap_u: float
    label_u: float
    noise: float
    gaf_admission: int
    gaf_discharge: int
    insight: str
    compliance: str
    suicide_risk: str
    t: np.ndarray       # planted per-domain sentiment in [-1, 1]
    base: np.ndarray    # per-domain base sentence weight
    missing: dict[str, bool]
    n_notes: int
    token_targets: list[int]
    est_los_offset: int
    gaf_jitter: np.ndarray


@dataclass
class _PatientLatent:
    gender: str
    race: str
    marital_status: str
    veteran: str
    age_at_first: int
    first_offset_days: int
    admissions: list[_AdmLatent]


@dataclass(frozen=True)
class GroundTruthRecord:
    """Latent values for one generated admission, for oracle-based tests."""

    admission_id: str
    patient_id: str
    propensity: float
    label: bool
    signals: dict[str, float]
    domain_sentiment: dict[str, float]
    domain_sentence_counts: dict[str, int]
    n_sentences: int
    sentences_per_note: tuple[int, ...]
    fields: dict  # planted structured fields, None where planted missing


@dataclass(frozen=True)
class GroundTruth:
    records: dict[str, GroundTruthRecord]  # keyed by admission_id


def _choice(rng: np.random.Generator, options, probs) -> str:
    return options[int(rng.choice(len(options), p=probs))]


def _draw_patient_latent(config: GenConfig, index: int) -> _PatientLatent:
    rng = rng_for(config.seed, "patient", index)
    gender = _choice(rng, corpus_mod.GENDERS, (0.51, 0.45, 0.02, 0.02))
    race = _choice(rng, corpus_mod.RACES, (0.55, 0.15, 0.08, 0.12, 0.05, 0.05))
    marital = _choice(rng, corpus_mod.MARITAL_STATUSES, (0.5, 0.3, 0.15, 0.05))
    veteran = _choice(rng, corpus_mod.YES_NO_UNKNOWN, (0.08, 0.87, 0.05))

    lo, hi = config.admissions_per_patient
    extra = int(rng.geometric(0.5)) - 1  # mean 1 above the minimum
    n_adm = min(lo + extra, hi)

    age = int(rng.integers(20, 61))
    first_offset = int(rng.integers(0, 365 * 6))

    n_lo, n_hi = config.notes_per_admission
    t_lo, t_hi = config.tokens_per_note
    admissions = []
    for _ in range(n_adm):
        gaf_discharge = int(rng.integers(25, 91))
        gaf_admission = int(np.clip(gaf_discharge - rng.integers(-5, 26), 1, 100))
        n_notes = int(rng.integers(n_lo, n_hi + 1))
        admissions.append(_AdmLatent(
            los_days=int(rng.integers(3, 46)),
            gap_u=float(rng.random()),
            label_u=float(rng.random()),
            noise=float(rng.normal(0.0, config.noise_sd)) if config.noise_sd > 0 else 0.0,
            gaf_admission=gaf_admission,
            gaf_discharge=gaf_discharge,
            insight=_choice(rng, textproc.INSIGHT_LEVELS, (0.35, 0.35, 0.30)),
            compliance=_choice(rng, textproc.COMPLIANCE_LEVELS, (0.40, 0.35, 0.25)),
            suicide_risk=_choice(rng, corpus_mod.YES_NO_UNKNOWN, (0.25, 0.65, 0.10)),
            t=rng.uniform(-1.0, 1.0, size=len(RISK_DOMAINS)),
            base=rng.uniform(0.045, 0.095, size=len(RISK_DOMAINS)),
            missing={
                key: bool(rng.random() < config.missing_field_rate)
                for key in ("gaf_admission", "gaf_discharge", "insight",
                            "compliance", "estimated_los")
            },
            n_notes=n_notes,
            token_targets=[int(rng.integers(t_lo, t_hi + 1)) for _ in range(n_notes)],
            est_los_offset=int(np.rint(rng.normal(0.0, 4.0))),
            gaf_jitter=rng.integers(-3, 4, size=n_notes).astype(float),
        ))
    return _PatientLatent(gender, race, marital, veteran, age, first_offset, admissions)


@dataclass(frozen=True)
class _LabelInputs:
    """(patients x admission positions) arrays: admission j sits at column j."""

    present: np.ndarray
    noise: np.ndarray
    label_u: np.ndarray
    signals: dict[str, np.ndarray]  # every effect but past_readmission_ratio


def _label_inputs(patients: list[_PatientLatent]) -> _LabelInputs:
    cells = [(i, j, latent) for i, patient in enumerate(patients)
             for j, latent in enumerate(patient.admissions)]
    rows, cols, adms = zip(*cells)
    present = np.zeros((len(patients), max(cols) + 1), dtype=bool)
    present[rows, cols] = True

    def grid(values) -> np.ndarray:
        out = np.zeros(present.shape)
        out[rows, cols] = values
        return out

    return _LabelInputs(present, grid([a.noise for a in adms]), grid([a.label_u for a in adms]), {
        "poor_insight": grid([_INSIGHT_SIGNAL[a.insight] for a in adms]),
        "noncompliance": grid([_COMPLIANCE_SIGNAL[a.compliance] for a in adms]),
        "low_gaf_discharge": grid([(100 - a.gaf_discharge) / 99.0 for a in adms]),
        "negative_mood_sentiment": grid([(1.0 - a.t[_MOOD_IDX]) / 2.0 for a in adms]),
        "negative_substance_sentiment": grid([(1.0 - a.t[_SUBSTANCE_IDX]) / 2.0 for a in adms]),
    })


def _realize_labels(config: GenConfig, inputs: _LabelInputs, intercept: float):
    """Sequential label realization against pre-drawn uniforms, one admission
    position at a time for every patient. Returns labels, propensities and
    all six signals."""
    labels = np.zeros(inputs.present.shape, dtype=bool)
    propensities = np.zeros(inputs.present.shape)
    past = np.full(inputs.present.shape, 0.5)
    signals = {**inputs.signals, "past_readmission_ratio": past}
    for j in range(inputs.present.shape[1]):
        if j:
            past[:, j] = labels[:, :j].sum(axis=1) / j
        # One effect at a time, in mapping order: the order of the float
        # additions is part of the generated bytes.
        z = intercept + inputs.noise[:, j]
        for name, w in config.effect_weights.items():
            z += w * (2.0 * signals[name][:, j] - 1.0)
        propensities[:, j] = sigmoid(z)
        labels[:, j] = inputs.present[:, j] & (inputs.label_u[:, j] < propensities[:, j])
    return labels, propensities, signals


def _calibrate_intercept(config: GenConfig, inputs: _LabelInputs) -> float:
    n_total = int(inputs.present.sum())

    def rate_at(b: float) -> float:
        return int(_realize_labels(config, inputs, b)[0].sum()) / n_total

    lo, hi = -15.0, 15.0
    target = config.target_readmission_rate
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rate_at(mid) < target:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    achieved = rate_at(b)
    tolerance = max(0.05, 2.0 / n_total)
    if abs(achieved - target) > tolerance:
        raise ConfigError(
            f"cannot calibrate readmission rate {target} "
            f"(closest achievable {achieved:.3f}); adjust effect_weights or noise_sd")
    return b


def _header_lines(role: str, latent: _AdmLatent, note_idx: int, estimated_los: int,
                  single_note: bool) -> list[str]:
    m = latent.missing
    lines: list[str] = []
    if role == "admission" or single_note:
        if not m["gaf_admission"]:
            lines.append(textproc.header_line("gaf_admission", latent.gaf_admission))
    if role == "progress":
        lines.append(textproc.header_line("gaf", _note_gaf(latent, note_idx)))
    if role == "discharge" or single_note:
        if not m["gaf_discharge"]:
            lines.append(textproc.header_line("gaf_discharge", latent.gaf_discharge))
    if role in ("admission", "discharge") or single_note:
        if not m["insight"]:
            lines.append(textproc.header_line("insight", latent.insight))
        if not m["compliance"]:
            lines.append(textproc.header_line("compliance", latent.compliance))
    if role == "admission" or single_note:
        if not m["estimated_los"]:
            lines.append(textproc.header_line("estimated_los_days", estimated_los))
    return lines


def _note_gaf(latent: _AdmLatent, note_idx: int) -> int:
    if latent.n_notes > 1:
        frac = note_idx / (latent.n_notes - 1)
    else:
        frac = 1.0
    raw = latent.gaf_admission + frac * (latent.gaf_discharge - latent.gaf_admission)
    return int(np.clip(np.rint(raw + latent.gaf_jitter[note_idx]), 1, 100))


def _emit_note_body(rng: np.random.Generator, filler: _TemplateFiller,
                    latent: _AdmLatent, target_tokens: int, start_tokens: int,
                    counts: np.ndarray) -> list[str]:
    """Append sentences until the note's token target is met."""
    weights = latent.base * (1.0 + FREQUENCY_COUPLING * (1.0 - latent.t) / 2.0)
    filler_w = max(0.25, 1.0 - float(weights.sum()))
    all_w = np.append(weights, filler_w)
    cum = np.cumsum(all_w / all_w.sum())

    body: list[str] = []
    tokens = start_tokens
    while tokens < target_tokens:
        u = rng.random()
        choice = int(np.searchsorted(cum, u, side="right"))
        if choice >= len(RISK_DOMAINS):  # filler
            i = int(rng.integers(0, len(FILLER_SENTENCES)))
            body.append(FILLER_SENTENCES[i])
            tokens += filler.filler_tokens[i]
            continue
        domain = RISK_DOMAINS[choice]
        t_d = latent.t[choice]
        p_pos = (1.0 - NEUTRAL_SHARE) * (1.0 + t_d) / 2.0
        p_neg = (1.0 - NEUTRAL_SHARE) * (1.0 - t_d) / 2.0
        v = rng.random()
        if v < p_pos:
            polarity = "positive"
        elif v < p_pos + NEUTRAL_SHARE:
            polarity = "neutral"
        else:
            polarity = "negative"
        text, count = filler.draw(rng, domain, polarity)
        body.append(text)
        tokens += count
        counts[choice] += 1
    return body


_NOTE_TYPE_FOR_ROLE = {"admission": "Admission", "progress": "Progress",
                       "discharge": "DischargeSummary"}


def generate_with_truth(config: GenConfig) -> tuple[Corpus, GroundTruth]:
    """Generate a corpus plus the latent ground truth it was built from."""
    config.validate()
    lexicon = default_lexicon()
    filler = _TemplateFiller(lexicon)

    patients_latent = [_draw_patient_latent(config, i) for i in range(config.n_patients)]
    inputs = _label_inputs(patients_latent)
    labels, propensities, signals = _realize_labels(
        config, inputs, _calibrate_intercept(config, inputs))

    patients: list[Patient] = []
    admissions: list[Admission] = []
    records: dict[str, GroundTruthRecord] = {}

    for pi, latent_p in enumerate(patients_latent):
        pid = f"P{pi:04d}"
        text_rng = rng_for(config.seed, "text", pi)
        first_admit = _BASE_DATE + timedelta(days=latent_p.first_offset_days)
        birth = _birth_date(first_admit, latent_p.age_at_first)
        patients.append(Patient(
            patient_id=pid, gender=latent_p.gender, race=latent_p.race,
            marital_status=latent_p.marital_status, veteran=latent_p.veteran,
            birth_date=birth,
        ))

        admit = first_admit
        for j, latent in enumerate(latent_p.admissions):
            aid = f"{pid}-A{j:02d}"
            discharge = admit + timedelta(days=latent.los_days)
            label = bool(labels[pi, j])
            estimated_los = max(1, latent.los_days + latent.est_los_offset)

            notes, counts, sent_counts = _build_notes(
                text_rng, filler, latent, aid, admit, discharge, estimated_los)

            admissions.append(Admission(
                admission_id=aid, patient_id=pid, admit_date=admit,
                discharge_date=discharge, suicide_risk=latent.suicide_risk,
                notes=tuple(notes), label_readmitted_30d=label,
            ))
            m = latent.missing
            records[aid] = GroundTruthRecord(
                admission_id=aid, patient_id=pid,
                propensity=float(propensities[pi, j]), label=label,
                signals={name: float(signals[name][pi, j]) for name in EFFECT_NAMES},
                domain_sentiment={d: float(latent.t[k]) for k, d in enumerate(RISK_DOMAINS)},
                domain_sentence_counts={d: int(counts[k]) for k, d in enumerate(RISK_DOMAINS)},
                n_sentences=int(sum(sent_counts)),
                sentences_per_note=tuple(sent_counts),
                fields={
                    "gaf_admission": None if m["gaf_admission"] else latent.gaf_admission,
                    "gaf_discharge": None if m["gaf_discharge"] else latent.gaf_discharge,
                    "insight": None if m["insight"] else latent.insight,
                    "compliance": None if m["compliance"] else latent.compliance,
                    "estimated_los_days": None if m["estimated_los"] else estimated_los,
                },
            )

            if j + 1 < len(latent_p.admissions):
                if label:
                    gap = 1 + int(latent.gap_u * corpus_mod.READMISSION_WINDOW_DAYS)
                    gap = min(gap, corpus_mod.READMISSION_WINDOW_DAYS)
                else:
                    gap = corpus_mod.READMISSION_WINDOW_DAYS + 1 + int(latent.gap_u * 90)
                admit = discharge + timedelta(days=gap)

    out = Corpus(patients=tuple(patients), admissions=tuple(admissions))
    corpus_mod.validate_corpus(out)
    truth = GroundTruth(records=records)
    return out, truth


def generate(config: GenConfig) -> Corpus:
    return generate_with_truth(config)[0]


def _birth_date(first_admit: date, age: int) -> date:
    day = 28 if (first_admit.month == 2 and first_admit.day == 29) else first_admit.day
    return date(first_admit.year - age, first_admit.month, day)


def _build_notes(text_rng, filler, latent: _AdmLatent, aid: str,
                 admit: date, discharge: date, estimated_los: int):
    n = latent.n_notes
    roles = ["discharge"] if n == 1 else (
        ["admission"] + ["progress"] * (n - 2) + ["discharge"])
    admit_dt = datetime(admit.year, admit.month, admit.day, 9, 0, 0)
    discharge_dt = datetime(discharge.year, discharge.month, discharge.day, 17, 0, 0)
    span = (discharge_dt - admit_dt).total_seconds()

    notes: list[Note] = []
    counts = np.zeros(len(RISK_DOMAINS), dtype=int)
    sent_counts: list[int] = []
    for k, role in enumerate(roles):
        ts = admit_dt if n == 1 else admit_dt + timedelta(seconds=span * k / (n - 1))
        headers = _header_lines(role, latent, k, estimated_los, single_note=(n == 1))
        header_block = "\n".join(headers)
        header_tokens = textproc.count_tokens(header_block) if headers else 0
        body = _emit_note_body(text_rng, filler, latent, latent.token_targets[k],
                               header_tokens, counts)
        if headers and body:
            text = header_block + "\n\n" + " ".join(body)
        elif headers:
            text = header_block
        else:
            text = " ".join(body)
        sent_counts.append(len(body) + (1 if headers else 0))
        notes.append(Note(note_id=f"{aid}-N{k:02d}", note_type=_NOTE_TYPE_FOR_ROLE[role],
                          timestamp=ts, text=text))
    return notes, counts, sent_counts


def make_sentiment_seed(config: GenConfig, n_sentences: int = 3500) -> list[SeedRecord]:
    """Labeled (domain, text, polarity) sentences drawn from the template
    pool; the stand-in for a clinician-annotated sentiment seed set."""
    if n_sentences < 1:
        raise ConfigError(f"n_sentences must be positive, got {n_sentences}")
    lexicon = default_lexicon()
    filler = _TemplateFiller(lexicon)
    rng = rng_for(config.seed, "sentiment-seed")
    records: list[SeedRecord] = []
    quota, remainder = divmod(n_sentences, len(RISK_DOMAINS))
    for di, domain in enumerate(RISK_DOMAINS):
        count = quota + (1 if di < remainder else 0)
        for _ in range(count):
            polarity = POLARITIES[int(rng.integers(0, 3))]
            text, _ = filler.draw(rng, domain, polarity)
            records.append(SeedRecord(domain=domain, text=text, label=polarity))
    return records


def write_ground_truth(truth: GroundTruth, path) -> None:
    """One JSON object per admission, keyed by admission_id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for aid, rec in truth.records.items():
            n = rec.n_sentences
            obj = {
                "admission_id": rec.admission_id,
                "patient_id": rec.patient_id,
                "propensity": rec.propensity,
                "label": rec.label,
                "signals": rec.signals,
                "domain_sentiment": rec.domain_sentiment,
                "domain_sentence_counts": rec.domain_sentence_counts,
                "n_sentences": n,
                "sentences_per_note": list(rec.sentences_per_note),
                "domain_fraction": {d: c / n for d, c in rec.domain_sentence_counts.items()},
                "fields": rec.fields,
            }
            fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
