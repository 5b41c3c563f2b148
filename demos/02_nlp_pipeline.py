"""Weak labeling, the topic model, and the seven sentiment models.

Sentences are tagged with risk-factor domains by matching a clinician-style
lexicon of keywords and multiword expressions; those weak labels train a
multi-label topic MLP over hashed sentence vectors. Sentences tagged with a
domain then get a 3-class sentiment distribution from that domain's MLP,
collapsed to a scalar in [-1, 1].
"""

from readmit import domains, neural, syngen, textproc
from readmit.neural import HashingEncoder

config = syngen.GenConfig(seed=11, n_patients=30, tokens_per_note=(80, 160))
corp = syngen.generate(config)
lexicon = domains.default_lexicon()
encoder = HashingEncoder()

# 1. Lexicon matching: contiguous token subsequences, multi-label.
sentence = "Patient reports depressed mood and ongoing heavy drinking."
tokens = textproc.tokenize(sentence)
print("sentence:", sentence)
print("matched domains:", sorted(lexicon.match(tokens)))

# 2. Weak labels over the whole corpus train the topic model; a labeled seed
# set (generated here) trains the sentiment models. Each is scored on a
# held-out 20% of its data.
X, Y = domains.weak_label(corp, lexicon, encoder)
print(f"\nweak-labeled sentences: {X.shape[0]} ({int(Y.sum())} domain tags)")
nlp = domains.train_nlp(corp, syngen.make_sentiment_seed(config, 1400), lexicon)
topic, sentiment = nlp.topic, nlp.sentiment
print(f"topic micro-F1 on held-out sentences: {nlp.metrics['topic_micro_f1']:.3f}")
print(f"Mood sentiment accuracy on held-out seed sentences: "
      f"{nlp.metrics['sentiment_accuracy']['Mood']:.3f}")

# 3. Scalar sentiment collapses a (positive, neutral, negative) distribution.
for text in ("Patient reports steady improvement in depressed mood today.",
             "Patient reports worsening of depressed mood today."):
    vec = encoder(textproc.tokenize(text))
    dist = neural.predict(sentiment["Mood"], vec)
    print(f"scalar sentiment {domains.scalar_sentiment(dist):+.2f}  <- {text}")

# 4. Admission-level summary: fractions and two-stage averaged sentiment.
summary = domains.summarize_admission(corp.admissions[0], topic, sentiment, encoder)
for domain in domains.RISK_DOMAINS:
    print(f"  {domain:<15} fraction={summary.sentence_fraction[domain]:.3f} "
          f"sentiment={summary.sentiment_score[domain]:+.3f}")
