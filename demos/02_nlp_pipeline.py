"""Weak labeling, the topic model, and the seven sentiment models.

Sentences are tagged with risk-factor domains by matching a clinician-style
lexicon of keywords and multiword expressions; those weak labels train a
multi-label topic MLP over hashed sentence vectors. Sentences tagged with a
domain then get a 3-class sentiment distribution from that domain's MLP,
collapsed to a scalar in [-1, 1].
"""

import numpy as np

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

# 2. Weak labels over the whole corpus -> topic model.
X, Y = domains.weak_label(corp, lexicon, encoder)
print(f"\nweak-labeled sentences: {X.shape[0]} ({int(Y.sum())} domain tags)")
rng = np.random.default_rng(0)
order = rng.permutation(len(X))
n_test = len(X) // 5
test_idx, train_idx = order[:n_test], order[n_test:]
topic = domains.train_topic_model(X[train_idx], Y[train_idx])
pred = domains.predict_domains(topic, X[test_idx])
truth = Y[test_idx] > 0.5
tp = np.sum(pred & truth)
fp = np.sum(pred & ~truth)
fn = np.sum(~pred & truth)
print(f"topic micro-F1 on held-out sentences: {2 * tp / (2 * tp + fp + fn):.3f}")

# 3. Sentiment models train on a labeled seed set (generated here).
records = syngen.make_sentiment_seed(config, 1400)
sentiment = domains.train_sentiment_models(records, encoder)
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
