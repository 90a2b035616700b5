"""Pool-based active learning with continuous fine-tuning.

Selection scores each unlabeled candidate from the entropy and diversity
of its patch-level predictions (optionally on the confident majority
subset of patches), samples query batches either greedily or through a
randomized score window, and feeds the annotated batches to a learner
under one of five training strategies (AFT', AFT'', AFT, AFT*, RFT).
"""

from .criteria import (
    CandidateScore,
    CriteriaConfig,
    classify_pattern,
    diversity,
    dominant_class,
    entropy,
    majority_subset,
    score_candidate,
)
from .datagen import DatagenConfig, generate, load_csv, standard_benchmark
from .learner import (
    LearnerModel,
    TrainConfig,
    candidate_probabilities,
    fit,
    predict,
    predict_all,
    pretrain_m0,
)
from .loop import (
    StopRule,
    StrategyConfig,
    make_strategy,
    run_experiment,
)
from .metrics import ExperimentRecord, LearningCurve, alc, auc
from .oracle import Oracle, OracleConfig
from .pool import Candidate, PoolState, make_pool, move_to_labeled
from .sampler import SamplerConfig, sampling_probabilities, select_batch

__version__ = "0.1.0"

__all__ = [
    "CandidateScore",
    "CriteriaConfig",
    "Candidate",
    "DatagenConfig",
    "ExperimentRecord",
    "LearnerModel",
    "LearningCurve",
    "Oracle",
    "OracleConfig",
    "PoolState",
    "SamplerConfig",
    "StopRule",
    "StrategyConfig",
    "TrainConfig",
    "alc",
    "auc",
    "candidate_probabilities",
    "classify_pattern",
    "diversity",
    "dominant_class",
    "entropy",
    "fit",
    "generate",
    "load_csv",
    "majority_subset",
    "make_pool",
    "make_strategy",
    "move_to_labeled",
    "predict",
    "predict_all",
    "pretrain_m0",
    "run_experiment",
    "sampling_probabilities",
    "score_candidate",
    "select_batch",
    "standard_benchmark",
]
