"""The evaluation protocol: repeated runs, the ablation table, and RFE.

Ablation compares three feature sets over identical split seeds: structured
features only, plus the seven domain sentence fractions, plus the seven
clinical sentiment scores. With planted sentiment effects the generated
data reproduces the expected ordering. RFE repeatedly drops the least
important column under cross-validation; consensus elimination reports
columns absent from the best sets of at least two of three outcomes.
"""

import numpy as np

from readmit import corpus, domains, evaluate, features, syngen
from readmit.classifiers import ModelSpec

config = syngen.GenConfig(seed=33, n_patients=90, tokens_per_note=(80, 160))
corp = corpus.derive_labels(syngen.generate(config))
nlp = domains.train_nlp(corp, syngen.make_sentiment_seed(config, 1400), domains.default_lexicon())
matrix = features.extract(corp, nlp.topic, nlp.sentiment)

spec = ModelSpec("logistic_regression", seed=0)
report = evaluate.ablation(matrix, spec, n_runs=60, master_seed=9)
print(evaluate.render_ablation_text(evaluate.ablation_report_obj(report)))

# RFE on a small planted matrix: the noise columns go first.
rng = np.random.default_rng(1)
signal = rng.normal(0, 1, (250, 4))
noise = rng.normal(0, 1, (250, 8))
p = 1 / (1 + np.exp(-(signal @ np.array([2.0, 1.8, 1.6, 1.4]))))
y = (rng.random(250) < p).astype(float)
names = [f"signal_{i}" for i in range(4)] + [f"noise_{i}" for i in range(8)]
from readmit.features import FeatureMatrix, FeatureSchema
planted = FeatureMatrix(
    schema=FeatureSchema(names),
    X=np.concatenate([signal, noise], axis=1), y=y)

outcomes = []
for k in range(3):
    outcome = evaluate.rfe(planted, ModelSpec("decision_tree", {"min_samples_leaf": 2}, seed=k),
                           folds=3, repeats=5, master_seed=100 + k)
    outcomes.append(outcome)
    print(f"RFE run {k}: best set {sorted(outcome.best_set)} (CV F1 {outcome.best_score:.3f})")
print("consensus-eliminated:", evaluate.consensus_elimination(outcomes))
