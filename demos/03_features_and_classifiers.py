"""From corpus to the 45-feature admission vector and the classifier suite.

Each admission becomes one row: sociodemographics, past-history aggregates,
current-admission structured fields, and the 14 unstructured domain
features. Categoricals one-hot expand over their full level sets; numerics
get paired missingness indicators and are mean-imputed from training rows.
"""

import numpy as np

from readmit import classifiers, corpus, domains, features, syngen
from readmit.classifiers import ModelSpec
from readmit.evaluate import metrics, split, SplitConfig
from readmit.features import Imputer

config = syngen.GenConfig(seed=21, n_patients=80, tokens_per_note=(80, 160))
corp = corpus.derive_labels(syngen.generate(config))
nlp = domains.train_nlp(corp, syngen.make_sentiment_seed(config, 1400), domains.default_lexicon())

print(f"named features per admission: {len(features.FEATURE_NAMES)}")
matrix = features.extract(corp, nlp.topic, nlp.sentiment)
print(f"encoded matrix: {matrix.X.shape[0]} admissions x {matrix.X.shape[1]} columns")
print("example columns:", matrix.names[:3], "...", matrix.names[-3:])

# Train/test split with per-fold imputation, then the whole suite.
train_idx, test_idx = split(matrix, SplitConfig(seed=5))
imputer = Imputer.fit(matrix.X[train_idx])
X_train, y_train = imputer.transform(matrix.X[train_idx]), matrix.y[train_idx]
X_test, y_test = imputer.transform(matrix.X[test_idx]), matrix.y[test_idx]

print(f"\n{'model':<22}{'Acc':>7}{'AUC':>7}{'F1':>7}   top feature")
for kind in classifiers.KINDS:
    hyper = {"n_trees": 30} if kind == "random_forest" else {}
    clf = classifiers.train(ModelSpec(kind, hyper, seed=0), X_train, y_train)
    m = metrics(y_test, clf.predict_proba(X_test))
    imp = classifiers.importances(clf, X_train, y_train)
    top = matrix.names[int(np.argmax(imp))]
    print(f"{kind:<22}{m.accuracy:>7.3f}{m.auc:>7.3f}{m.f1:>7.3f}   {top}")
