"""Minimal feature-set explanations for text classifiers.

The package scores token pairs with cooperative path-integral
attribution, turns pair exclusion into a 0/1 knapsack, and refines the
result over resampled pair values into a minimal feature set. It ships a
trainable toy classifier, faithfulness metrics, and a CLI.
"""

from .attribution import PairScoreMap, cooperative_integrated_gradients, integrated_gradients
from .config import load_config
from .corpus import CorpusRecord, load_corpus, save_corpus, tokenize
from .data import build_toy_corpus
from .errors import ConfigError, InputError, InternalError, MinfeatError, NumericError
from .evaluation import METHODS, evaluate_methods, gradient_input_scores
from .metrics import MetricsRow, comprehensiveness, fms_pairs, fms_words, log_odds, top_k_baseline
from .model import (
    Instance,
    Model,
    TrainConfig,
    Vocabulary,
    instance_from_words,
    load_model,
    save_model,
    train_toy,
)
from .pipeline import CidrConfig, MinimalFeatureSet, cidr_without_refinement, refine

__version__ = "0.1.0"

__all__ = [
    "CidrConfig",
    "ConfigError",
    "CorpusRecord",
    "InputError",
    "Instance",
    "InternalError",
    "METHODS",
    "MetricsRow",
    "MinfeatError",
    "MinimalFeatureSet",
    "Model",
    "NumericError",
    "PairScoreMap",
    "TrainConfig",
    "Vocabulary",
    "build_toy_corpus",
    "cidr_without_refinement",
    "comprehensiveness",
    "cooperative_integrated_gradients",
    "evaluate_methods",
    "fms_pairs",
    "fms_words",
    "gradient_input_scores",
    "instance_from_words",
    "integrated_gradients",
    "load_config",
    "load_corpus",
    "load_model",
    "log_odds",
    "refine",
    "save_corpus",
    "save_model",
    "tokenize",
    "top_k_baseline",
    "train_toy",
]
