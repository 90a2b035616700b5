"""The active, continuous fine-tuning loop over the candidate pool.

Each step: score every unlabeled candidate with the previous step's
model, from one prediction pass over the whole unlabeled set (skipped
entirely for random selection), select a batch, ask the
oracle for labels, collect the misclassified labeled candidates with the
*pre-update* model, build the training set per the strategy policy, fit
per the strategy's model-start policy, then move the batch into the
labeled set and append a learning-curve record.

The five named strategies differ in three choices:

==================  =========  =============  ==================
name                selection  training set   model start
==================  =========  =============  ==================
AFT_prime           active     Q              previous model
AFT_star            active     H + Q          previous model
AFT_doubleprime     active     L + Q          previous model
AFT                 active     L + Q          pre-trained start
RFT                 random     L + Q          pre-trained start
==================  =========  =============  ==================

where Q is the newly selected batch, L the labeled set, and H the
labeled candidates the current model misclassifies.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .criteria import CandidateScore, CriteriaConfig, classify_pattern, score_candidate
from .datagen import infer_num_classes
from .errors import ConfigError, InvariantError, check_integer
from .learner import (
    LearnerModel,
    TrainConfig,
    candidate_probabilities,
    collect_patches,
    fit,
    predict_all,
    pretrain_m0,
)
from .metrics import ExperimentRecord, auc, macro_auc
from .oracle import Oracle, OracleConfig, true_labels
from .pool import Candidate, PoolState, make_pool, move_to_labeled
from .sampler import SamplerConfig, select_batch, uniform_batch

ACTIVE = "active"
UNIFORM = "uniform_random"

Q_ONLY = "Q_only"
H_UNION_Q = "H_union_Q"
L_UNION_Q = "L_union_Q"

CONTINUE_PREVIOUS = "continue_previous"
RESTART_FROM_M0 = "restart_from_M0"

# name -> (selection class, training-set policy, model start)
STRATEGY_TABLE = {
    "AFT_prime": (ACTIVE, Q_ONLY, CONTINUE_PREVIOUS),
    "AFT_star": (ACTIVE, H_UNION_Q, CONTINUE_PREVIOUS),
    "AFT_doubleprime": (ACTIVE, L_UNION_Q, CONTINUE_PREVIOUS),
    "AFT": (ACTIVE, L_UNION_Q, RESTART_FROM_M0),
    "RFT": (UNIFORM, L_UNION_Q, RESTART_FROM_M0),
}

# criterion label -> (lambda1, lambda2, majority, randomized)
CRITERION_PRESETS = {
    "entropy": (1.0, 0.0, False, False),
    "entropy^a": (1.0, 0.0, True, False),
    "entropy_w": (1.0, 0.0, False, True),
    "entropy^a_w": (1.0, 0.0, True, True),
    "diversity": (0.0, 1.0, False, False),
    "diversity^a": (0.0, 1.0, True, False),
    "diversity_w": (0.0, 1.0, False, True),
    "diversity^a_w": (0.0, 1.0, True, True),
}

DEFAULT_ALPHA = 0.25
DEFAULT_OMEGA = 5


@dataclass(frozen=True)
class StrategyConfig:
    """A named strategy plus its concrete criterion and sampler.

    ``criterion`` is None exactly when selection is uniform-random.
    Use :func:`make_strategy` to get table-conformant instances; direct
    construction is allowed for controlled deviations (such as forcing
    random selection into an otherwise active strategy).
    """

    name: str
    criterion: CriteriaConfig | None
    sampler: SamplerConfig
    training_set_policy: str
    model_start: str
    criterion_label: str = ""

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_TABLE:
            raise ConfigError(f"unknown strategy name {self.name!r}")
        if self.training_set_policy not in (Q_ONLY, H_UNION_Q, L_UNION_Q):
            raise ConfigError(f"unknown training-set policy {self.training_set_policy!r}")
        if self.model_start not in (CONTINUE_PREVIOUS, RESTART_FROM_M0):
            raise ConfigError(f"unknown model start {self.model_start!r}")
        if self.criterion is None and self.sampler.mode != "uniform_random":
            raise ConfigError("random selection requires the uniform_random sampler mode")
        if self.criterion is not None and self.sampler.mode == "uniform_random":
            raise ConfigError("active selection cannot use the uniform_random sampler mode")

    @property
    def label(self) -> str:
        if self.criterion is None:
            return self.name
        return f"{self.name}-{self.criterion_label}"


def make_strategy(
    name: str,
    criterion: str = "entropy^a_w",
    batch_size: int = 20,
    *,
    alpha: float | None = None,
    omega: int | None = None,
    lambda1: float | None = None,
    lambda2: float | None = None,
) -> StrategyConfig:
    """Instantiate a named strategy with a criterion preset and overrides."""
    if name not in STRATEGY_TABLE:
        raise ConfigError(f"unknown strategy name {name!r}")
    selection, policy, start = STRATEGY_TABLE[name]
    if selection == UNIFORM:
        return StrategyConfig(
            name=name,
            criterion=None,
            sampler=SamplerConfig(batch_size=batch_size, mode="uniform_random"),
            training_set_policy=policy,
            model_start=start,
        )
    label = criterion.replace("α", "a").replace("ω", "w")
    if label not in CRITERION_PRESETS:
        raise ConfigError(f"unknown criterion {criterion!r}")
    l1, l2, majority, randomized = CRITERION_PRESETS[label]
    crit = CriteriaConfig(
        lambda1=l1 if lambda1 is None else lambda1,
        lambda2=l2 if lambda2 is None else lambda2,
        alpha=(alpha if alpha is not None else (DEFAULT_ALPHA if majority else 1.0)),
    )
    samp = SamplerConfig(
        batch_size=batch_size,
        omega=omega if omega is not None else DEFAULT_OMEGA,
        mode="randomized" if randomized else "top_b",
    )
    return StrategyConfig(
        name=name,
        criterion=crit,
        sampler=samp,
        training_set_policy=policy,
        model_start=start,
        criterion_label=label,
    )


@dataclass(frozen=True)
class StopRule:
    """Stop on query budget, pool exhaustion, or an optional AUC target."""

    query_budget: int | None = None
    auc_target: float | None = None

    def __post_init__(self) -> None:
        if self.query_budget is not None:
            check_integer("query_budget", self.query_budget, 0)
        if self.auc_target is not None and not (0 < self.auc_target <= 1):
            raise ConfigError("auc_target must lie in (0, 1]")


@dataclass
class ExperimentState:
    pool: PoolState
    model: LearnerModel
    model_zero: LearnerModel
    records: list[ExperimentRecord]
    rng: np.random.Generator
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    positive_class: int = 0


def misclassified_set(
    model: LearnerModel, labeled: Iterable[Candidate], labels: Mapping[str, int]
) -> set[str]:
    """Labeled candidates whose candidate-level argmax disagrees with
    their annotation in ``labels`` (argmax ties resolve to the smaller
    class index)."""
    labeled = list(labeled)
    for c in labeled:
        if c.id not in labels:
            raise InvariantError(f"candidate {c.id!r} in L is not annotated")
    predicted = candidate_probabilities(model, labeled).argmax(axis=1)
    return {c.id for c, k in zip(labeled, predicted) if k != labels[c.id]}


def build_training_set(
    policy: str, batch: set[str], misclassified: set[str], labeled: set[str]
) -> set[str]:
    """Candidate ids to train on this step, per the strategy policy."""
    if batch & labeled:
        raise InvariantError("selected batch overlaps the labeled set")
    if not misclassified <= labeled:
        raise InvariantError("misclassified set must be a subset of the labeled set")
    if policy == Q_ONLY:
        return set(batch)
    if policy == H_UNION_Q:
        return misclassified | batch
    if policy == L_UNION_Q:
        return labeled | batch
    raise ConfigError(f"unknown training-set policy {policy!r}")


def run_step(
    state: ExperimentState,
    strat: StrategyConfig,
    oracle: Oracle,
    evaluator: Callable[[LearnerModel], float],
    audit=None,
) -> ExperimentState:
    """Execute one selection / annotation / fine-tuning step in place."""
    if not state.pool.unlabeled:
        return state
    unlabeled_ids = sorted(state.pool.unlabeled)
    model_prev = state.model

    scores: dict[str, CandidateScore] = {}
    if strat.criterion is None:
        batch = uniform_batch(unlabeled_ids, strat.sampler.batch_size, state.rng)
    else:
        unlabeled = [state.pool.candidates[cid] for cid in unlabeled_ids]
        blocks = dict(zip(unlabeled_ids, predict_all(model_prev, unlabeled)))
        scored = [
            score_candidate(blocks[cid], strat.criterion, candidate_id=cid)
            for cid in unlabeled_ids
        ]
        scores = {s.candidate_id: s for s in scored}
        batch = select_batch(scored, strat.sampler, state.rng)

    labels = oracle.query(batch)

    labeled_ids = sorted(state.pool.labeled)
    labeled_candidates = [state.pool.candidates[cid] for cid in labeled_ids]
    hard = misclassified_set(model_prev, labeled_candidates, state.pool.labels)

    train_ids = build_training_set(
        strat.training_set_policy, set(batch), hard, set(labeled_ids)
    )
    X, y = collect_patches(
        [state.pool.candidates[cid] for cid in sorted(train_ids)],
        {**state.pool.labels, **labels},
    )
    if X.shape[0] > 0:
        warm = strat.model_start == CONTINUE_PREVIOUS
        base = model_prev if warm else state.model_zero
        state.model = fit(base, (X, y), state.train_cfg, warm, state.rng)

    state.pool = move_to_labeled(state.pool, batch, labels)

    test_auc = evaluator(state.model)
    pos_frac = (
        float(np.mean([labels[cid] == state.positive_class for cid in batch]))
        if batch
        else 0.0
    )
    record = ExperimentRecord(
        step=state.pool.step,
        queries_cum=len(state.pool.labeled),
        labeled_count=len(state.pool.labeled),
        test_auc=test_auc,
        selected_positive_fraction=pos_frac,
        misclassified_count_pre_fit=len(hard),
    )
    state.records.append(record)

    if audit is not None:
        post_fit = misclassified_set(
            state.model,
            [state.pool.candidates[cid] for cid in sorted(state.pool.labeled)],
            state.pool.labels,
        )
        entries = []
        for cid in batch:
            entry: dict = {"id": cid, "label": labels[cid]}
            if cid in scores:
                s = scores[cid]
                entry.update(
                    dominant=s.dominant,
                    entropy=s.entropy,
                    diversity=s.diversity,
                    score=s.score,
                )
                P = blocks[cid]
                entry["pattern"] = classify_pattern(P) if P.shape[1] == 2 else None
            entries.append(entry)
        audit.write(
            json.dumps(
                {
                    "step": record.step,
                    "selected": entries,
                    "misclassified_pre_fit": len(hard),
                    "misclassified_post_fit": len(post_fit),
                },
                sort_keys=True,
            )
            + "\n"
        )
    return state


def make_evaluator(
    test_candidates: Sequence[Candidate], num_classes: int, positive_class: int
) -> Callable[[LearnerModel], float]:
    """Candidate-level test AUC: average patch predictions per candidate,
    then rank. Binary runs rank the positive-class probability;
    multiclass runs use macro one-vs-rest."""
    labels = true_labels(test_candidates)

    def evaluate(model: LearnerModel) -> float:
        probs = candidate_probabilities(model, test_candidates)
        if num_classes == 2:
            return auc(probs[:, positive_class], (labels == positive_class).astype(int))
        return macro_auc(probs, labels)

    return evaluate


def run_experiment(
    train_candidates: Sequence[Candidate],
    test_candidates: Sequence[Candidate],
    strat: StrategyConfig,
    train_cfg: TrainConfig,
    stop: StopRule,
    seed: int,
    *,
    num_classes: int | None = None,
    positive_class: int = 0,
    oracle_noise: float = 0.0,
    audit_path: str | Path | None = None,
) -> list[ExperimentRecord]:
    """Run one full experiment; returns the baseline row plus one record
    per step. Deterministic given (dataset, strategy, config, seed)."""
    if not train_candidates or not test_candidates:
        raise ConfigError("train and test candidate sets must be non-empty")
    if num_classes is None:
        num_classes = infer_num_classes([*train_candidates, *test_candidates])
    if not (0 <= positive_class < num_classes):
        raise ConfigError("positive_class outside the label range")
    oracle_cfg = OracleConfig(label_noise_rate=oracle_noise)

    rng = np.random.default_rng(seed)
    d = train_candidates[0].feature_dim
    model_zero = pretrain_m0(None, train_cfg, rng, feature_dim=d, num_classes=num_classes)
    pool = make_pool(train_candidates, num_classes)
    oracle = Oracle(
        candidates=pool.candidates, config=oracle_cfg, rng=rng, num_classes=num_classes
    )
    evaluator = make_evaluator(test_candidates, num_classes, positive_class)
    baseline = ExperimentRecord(
        step=0,
        queries_cum=0,
        labeled_count=0,
        test_auc=evaluator(model_zero),
        selected_positive_fraction=0.0,
        misclassified_count_pre_fit=0,
    )
    state = ExperimentState(
        pool=pool,
        model=model_zero,
        model_zero=model_zero,
        records=[baseline],
        rng=rng,
        train_cfg=train_cfg,
        positive_class=positive_class,
    )

    audit = open(audit_path, "w", encoding="utf-8") if audit_path is not None else None
    try:
        while True:
            queries = len(state.pool.labeled)
            if stop.query_budget is not None and queries >= stop.query_budget:
                break
            if not state.pool.unlabeled:
                break
            if stop.auc_target is not None and state.records[-1].test_auc >= stop.auc_target:
                break
            step_strat = strat
            if stop.query_budget is not None:
                remaining = stop.query_budget - queries
                if remaining < strat.sampler.batch_size:
                    step_strat = dataclasses.replace(
                        strat,
                        sampler=dataclasses.replace(strat.sampler, batch_size=remaining),
                    )
            run_step(state, step_strat, oracle, evaluator, audit=audit)
    finally:
        if audit is not None:
            audit.close()
    return state.records
