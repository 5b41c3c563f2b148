"""Readmission-risk experiments over synthetic psychiatric EHR corpora."""

__version__ = "0.1.0"

from .corpus import Corpus, corpus_stats, derive_labels, load_corpus, write_corpus
from .domains import RISK_DOMAINS, default_lexicon, summarize_admission
from .evaluate import SplitConfig, ablation, consensus_elimination, metrics, repeated_eval, rfe
from .features import FeatureMatrix, FeatureSchema, build_features, encode_features
from .classifiers import ModelSpec, importances, train
from .neural import HashingEncoder, MLPSpec, TrainConfig, train_mlp
from .syngen import GenConfig, generate, generate_with_truth

__all__ = [
    "__version__",
    "Corpus", "corpus_stats", "derive_labels", "load_corpus", "write_corpus",
    "RISK_DOMAINS", "default_lexicon", "summarize_admission",
    "SplitConfig", "ablation", "consensus_elimination", "metrics", "repeated_eval", "rfe",
    "FeatureMatrix", "FeatureSchema", "build_features", "encode_features",
    "ModelSpec", "importances", "train",
    "HashingEncoder", "MLPSpec", "TrainConfig", "train_mlp",
    "GenConfig", "generate", "generate_with_truth",
]
