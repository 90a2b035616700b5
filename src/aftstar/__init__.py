"""Pool-based active learning with continuous fine-tuning.

Selection scores each unlabeled candidate from the entropy and diversity
of its patch-level predictions (optionally on the confident majority
subset of patches), samples query batches either greedily or through a
randomized score window, and feeds the annotated batches to a learner
under one of five training strategies (AFT', AFT'', AFT, AFT*, RFT).
"""

from .criteria import (
    CandidateScore,
    CandidateScores,
    CriteriaConfig,
    classify_pattern,
    diversity,
    dominant_class,
    entropy,
    majority_subset,
    score_candidate,
    score_candidates,
)
from .datagen import DatagenConfig, generate, load_csv, standard_benchmark
from .learner import LearnerModel, TrainConfig, predict, pretrain_m0
from .loop import (
    StopRule,
    StrategyConfig,
    make_strategy,
    run_experiment,
)
from .metrics import ExperimentRecord, LearningCurve, alc, auc
from .oracle import Oracle, OracleConfig
from .pool import Candidate
from .sampler import SamplerConfig, sampling_probabilities, select_batch, select_from_scores

__version__ = "0.1.0"

__all__ = [
    "CandidateScore",
    "CandidateScores",
    "CriteriaConfig",
    "Candidate",
    "DatagenConfig",
    "ExperimentRecord",
    "LearnerModel",
    "LearningCurve",
    "Oracle",
    "OracleConfig",
    "SamplerConfig",
    "StopRule",
    "StrategyConfig",
    "TrainConfig",
    "alc",
    "auc",
    "classify_pattern",
    "diversity",
    "dominant_class",
    "entropy",
    "generate",
    "load_csv",
    "majority_subset",
    "make_strategy",
    "predict",
    "pretrain_m0",
    "run_experiment",
    "sampling_probabilities",
    "score_candidate",
    "score_candidates",
    "select_batch",
    "select_from_scores",
    "standard_benchmark",
]
