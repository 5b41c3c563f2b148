"""Generate a synthetic EHR corpus and inspect what was planted.

The generator draws a latent clinical state per admission (GAF scores,
insight, compliance, per-domain sentiment), turns it into a readmission
propensity, samples the label, and then writes notes whose text and
structured headers reflect that state. Everything is a pure function of
the seed, and the ground truth file records the latents so downstream
results can be checked against them.
"""

from readmit import corpus, syngen, textproc

# A small corpus keeps this demo fast; drop the overrides (or use
# syngen.paper_scale_config()) for a cohort-sized one.
config = syngen.GenConfig(seed=7, n_patients=25, tokens_per_note=(80, 160))
corp, truth = syngen.generate_with_truth(config)

stats = corpus.corpus_stats(corpus.derive_labels(corp))
print(f"patients:            {stats.n_patients}")
print(f"admissions:          {stats.n_admissions}")
print(f"readmission rate:    {stats.readmission_rate:.3f}")
print(f"mean tokens/note:    {stats.mean_tokens_per_note:.0f}")
print(f"mean notes/admission:{stats.mean_notes_per_admission:.2f}")

# Every admission's latent state is available for oracle-style checks.
first = corp.admissions[0]
record = truth.records[first.admission_id]
signals = {k: round(float(v), 2) for k, v in record.signals.items()}
print(f"\nadmission {first.admission_id}:")
print(f"  planted propensity {record.propensity:.3f} -> label {record.label}")
print(f"  planted signals    {signals}")
print("  note excerpt:")
print("   ", first.notes[0].text[:160].replace("\n", " | "))

# The structured headers embedded in the notes parse back exactly.
fields = textproc.resolve_admission_fields(first.notes)
print(f"  extracted fields   gaf_admission={fields.gaf_admission} "
      f"insight={fields.insight} compliance={fields.compliance}")
assert fields.gaf_admission == record.fields["gaf_admission"]
