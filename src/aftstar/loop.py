"""The active, continuous fine-tuning loop over the candidate pool.

Each step: score every unlabeled candidate with the previous step's
model, from one prediction pass over the whole unlabeled set whose one
padded ``(n, M, k)`` array goes straight to one batched scoring pass
(both skipped for random selection), select a batch, ask the oracle for labels, build
the training set per the strategy policy from the batch and the
misclassified set H that the previous step mined, add the batch's
labels to the labeled set, fit per the strategy's model-start policy,
evaluate, mine H for the next step with the new model over the new
labeled set, and append a learning-curve record.

A run takes each split as a ``pool.CandidateStack`` (a candidate list
is stacked once), and its pool as the train stack in sorted-id order,
over the same rows. The labeled set L and the misclassified set H are
arrays over that stack, in its order: ``ExperimentState.labels`` holds
each candidate's annotation, -1 outside L, and ``ExperimentState.hard``
is H's mask. The unlabeled set U is the stack's candidates outside L,
by position, in ascending id order. The sampler picks positions into U,
so its ties by position are ties by id, and a step turns positions into
ids only for the oracle and the selection audit. Each step takes U,
which it scores, and L, which it mines H from, as subsets of the stack.
The training set is a mask over the stack, and each epoch of the fit's
buffered SGD gathers its rows straight from the stack, so no row is
copied before the fit. The oracle gets the pool's true labels as one
id -> label map.

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

import contextlib
import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Callable, Sequence

import numpy as np

from .criteria import CriteriaConfig, dominant_pattern, score_candidates
from .datagen import infer_num_classes
from .errors import ConfigError, InvariantError, PartitionError, check_integer, shown
from .learner import (
    LearnerModel,
    TrainConfig,
    fit,
    pretrain_m0,
    stacked_predictions,
    stacked_probabilities,
    training_rows,
)
from .metrics import ExperimentRecord, auc, macro_auc, replacing
from .oracle import Oracle, OracleConfig
from .pool import Candidate, CandidateStack, dim_mismatch, stack_candidates
from .sampler import SamplerConfig, uniform_batch
# Bound as ``select_batch``, the name perfbench/tracer.py times as sampler.select.
from .sampler import select_from_scores as select_batch

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
            raise ConfigError(f"unknown strategy name {shown(self.name)}")
        if self.training_set_policy not in (Q_ONLY, H_UNION_Q, L_UNION_Q):
            raise ConfigError(f"unknown training-set policy {shown(self.training_set_policy)}")
        if self.model_start not in (CONTINUE_PREVIOUS, RESTART_FROM_M0):
            raise ConfigError(f"unknown model start {shown(self.model_start)}")
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
        raise ConfigError(f"unknown strategy name {shown(name)}")
    selection, policy, start = STRATEGY_TABLE[name]
    if selection == UNIFORM:
        return StrategyConfig(
            name=name,
            criterion=None,
            sampler=SamplerConfig(batch_size=batch_size, mode="uniform_random"),
            training_set_policy=policy,
            model_start=start,
        )
    if not isinstance(criterion, str):
        raise ConfigError(f"criterion must be a string, got {shown(criterion)}")
    label = criterion.replace("α", "a").replace("ω", "w")
    if label not in CRITERION_PRESETS:
        raise ConfigError(f"unknown criterion {shown(criterion)}")
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
    """Stop on query budget, pool exhaustion, or an optional AUC target,
    which only a step's record can meet, not the baseline's."""

    query_budget: int | None = None
    auc_target: float | None = None

    def __post_init__(self) -> None:
        if self.query_budget is not None:
            check_integer("query_budget", self.query_budget, 0)
        if self.auc_target is not None and not (0 < self.auc_target <= 1):
            raise ConfigError("auc_target must lie in (0, 1]")


@dataclass
class ExperimentState:
    """One run's state. ``labels`` is the run's only record of the
    labeled set L: the annotation of each of the stack's candidates, in
    stack order, and -1 for a candidate outside L. U is the stack's
    candidates outside L. A record's step number is ``len(records)`` when
    it is appended, after the baseline row."""

    # The pool's candidates stacked once, in sorted-id order.
    stack: CandidateStack
    model: LearnerModel
    model_zero: LearnerModel
    records: list[ExperimentRecord]
    rng: np.random.Generator
    labels: np.ndarray
    # H: the mask of the candidates in L that ``model`` misclassifies,
    # mined at the end of each step for the next one. Empty while L is.
    hard: np.ndarray
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    positive_class: int = 0


def misclassified_set(model: LearnerModel, labeled: CandidateStack, y: np.ndarray) -> np.ndarray:
    """The positions in ``labeled`` of the candidates whose candidate-level
    argmax differs from their label in ``y``, one per candidate (argmax
    ties resolve to the smaller class index)."""
    return np.flatnonzero(stacked_probabilities(model, labeled).argmax(axis=1) != y)


def build_training_set(
    policy: str, batch: np.ndarray, misclassified: np.ndarray, labeled: np.ndarray
) -> np.ndarray:
    """The mask of the candidates to train on this step, per the strategy
    policy, from the masks of the batch, H and L over one stack."""
    if (batch & labeled).any():
        raise InvariantError("selected batch overlaps the labeled set")
    if (misclassified & ~labeled).any():
        raise InvariantError("misclassified set must be a subset of the labeled set")
    if policy == Q_ONLY:
        return batch.copy()
    if policy == H_UNION_Q:
        return misclassified | batch
    if policy == L_UNION_Q:
        return labeled | batch
    raise ConfigError(f"unknown training-set policy {shown(policy)}")


def run_step(
    state: ExperimentState,
    strat: StrategyConfig,
    oracle: Oracle,
    evaluator: Callable[[LearnerModel], float],
    audit=None,
) -> ExperimentState:
    """Execute one selection / annotation / fine-tuning step in place, on
    a pool with at least one unlabeled candidate."""
    stack = state.stack
    labeled = state.labels >= 0
    unlabeled = np.flatnonzero(~labeled)

    scores = None
    if strat.criterion is None:
        picks = uniform_batch(len(unlabeled), strat.sampler.batch_size, state.rng)
    else:
        scored = stack.subset(~labeled)
        predictions = stacked_predictions(state.model, scored)
        scores = score_candidates(predictions, scored.counts, strat.criterion)
        picks = select_batch(scores.score, strat.sampler, state.rng)
    positions = unlabeled[picks]
    batch = [stack.ids[i] for i in positions.tolist()]

    answers = oracle.query(batch)
    selected = np.zeros(len(stack), dtype=bool)
    selected[positions] = True
    hard = state.hard
    train = build_training_set(strat.training_set_policy, selected, hard, labeled)
    state.labels[positions] = [answers[cid] for cid in batch]
    if train.any():
        data = training_rows(stack, train, state.labels[train])
        warm = strat.model_start == CONTINUE_PREVIOUS
        base = state.model if warm else state.model_zero
        state.model = fit(base, data, state.train_cfg, warm, state.rng)

    test_auc = evaluator(state.model)
    labeled |= selected
    mined = misclassified_set(state.model, stack.subset(labeled), state.labels[labeled])
    state.hard = np.zeros(len(stack), dtype=bool)
    state.hard[np.flatnonzero(labeled)[mined]] = True
    pos_frac = float(np.mean(state.labels[positions] == state.positive_class)) if batch else 0.0
    labeled_count = int(np.count_nonzero(labeled))
    record = ExperimentRecord(
        step=len(state.records),
        queries_cum=labeled_count,
        labeled_count=labeled_count,
        test_auc=test_auc,
        selected_positive_fraction=pos_frac,
        misclassified_count_pre_fit=int(np.count_nonzero(hard)),
    )
    state.records.append(record)

    if audit is not None:
        entries = [{"id": cid, "label": answers[cid]} for cid in batch]
        if scores is not None:
            # A term the criterion does not weight is computed for the batch only.
            entropies, diversities = scores.terms(picks)
            for entry, i, e, d in zip(entries, picks, entropies.tolist(), diversities.tolist()):
                dominant = int(scores.dominant[i])
                q = predictions[i, : scored.counts[i], dominant]
                entry.update(
                    dominant=dominant,
                    entropy=e,
                    diversity=d,
                    score=float(scores.score[i]),
                    pattern=dominant_pattern(q) if predictions.shape[2] == 2 else None,
                )
        audit.write(
            json.dumps(
                {
                    "step": record.step,
                    "selected": entries,
                    "misclassified_pre_fit": record.misclassified_count_pre_fit,
                    "misclassified_post_fit": len(mined),
                },
                sort_keys=True,
            )
            + "\n"
        )
    return state


def make_evaluator(
    test: CandidateStack, num_classes: int, positive_class: int
) -> Callable[[LearnerModel], float]:
    """Candidate-level test AUC: average patch predictions per candidate,
    then rank. Binary runs rank the positive-class probability;
    multiclass runs use macro one-vs-rest."""

    def evaluate(model: LearnerModel) -> float:
        probs = stacked_probabilities(model, test)
        if num_classes == 2:
            return auc(probs[:, positive_class], (test.true_labels == positive_class).astype(int))
        return macro_auc(probs, test.true_labels)

    return evaluate


def _missing_classes(present: AbstractSet[int], num_classes: int) -> str:
    """Name the first three classes of ``range(num_classes)`` outside
    ``present`` (a subset of that range) and count the rest, without
    building the range: its end comes from a label in the data."""
    missing = num_classes - len(present)
    outside = (k for k in itertools.count() if k not in present)
    names = ", ".join(map(str, itertools.islice(outside, min(3, missing))))
    return names if missing <= 3 else f"{names} and {missing - 3} more"


def check_splits(train: CandidateStack, test: CandidateStack, positive_class: int = 0) -> int:
    """Check a run's two split stacks and return its class count, which
    comes from the labels of both
    (:func:`~aftstar.datagen.infer_num_classes`). ``run_experiment``
    calls it once it has both stacks; the CLI calls it before it makes
    an output directory."""
    if not len(train) or not len(test):
        raise ConfigError("train and test candidate sets must be non-empty")
    if test.feature_dim != train.feature_dim:
        raise dim_mismatch(test.ids[0], test.feature_dim, train.ids[0], train.feature_dim)
    ids: set[str] = set()
    for cid in train.ids:
        if cid in ids:
            raise PartitionError(f"duplicate candidate id {shown(cid)}")
        ids.add(cid)
    num_classes = infer_num_classes(np.concatenate([train.true_labels, test.true_labels]))
    if not (0 <= positive_class < num_classes):
        raise ConfigError("positive_class outside the label range")
    present = set(test.true_labels.tolist())  # all in range(num_classes)
    if len(present) < num_classes:
        raise ConfigError(
            f"the test split has no candidate of class {_missing_classes(present, num_classes)}: "
            "AUC is undefined"
        )
    return num_classes


def run_experiment(
    train: CandidateStack | Sequence[Candidate],
    test: CandidateStack | Sequence[Candidate],
    strat: StrategyConfig,
    train_cfg: TrainConfig,
    stop: StopRule,
    seed: int,
    *,
    positive_class: int = 0,
    oracle_noise: float = 0.0,
    audit_path: str | Path | None = None,
) -> list[ExperimentRecord]:
    """Run one full experiment; returns the baseline row plus one record
    per step. Deterministic given (dataset, strategy, config, seed). Each
    split is a stack or a candidate list, which is stacked once. The
    class count comes from the labels of both splits (:func:`check_splits`).
    The run stops when the query budget is spent, when the pool is all
    labeled, or when a step's test AUC reaches ``auc_target``: the
    baseline's AUC is not compared with it, so every run with a budget
    above 0 makes its first query."""
    if not isinstance(train, CandidateStack):
        train = stack_candidates(train)
    if not isinstance(test, CandidateStack):
        test = stack_candidates(test)
    num_classes = check_splits(train, test, positive_class)
    oracle_cfg = OracleConfig(label_noise_rate=oracle_noise)

    rng = np.random.default_rng(seed)
    d = train.feature_dim
    model_zero = pretrain_m0(None, train_cfg, rng, feature_dim=d, num_classes=num_classes)
    truth = dict(zip(train.ids, train.true_labels.tolist()))
    oracle = Oracle(true_labels=truth, config=oracle_cfg, rng=rng, num_classes=num_classes)
    stack = train.sorted_by_id()
    evaluator = make_evaluator(test, num_classes, positive_class)
    baseline = ExperimentRecord(
        step=0,
        queries_cum=0,
        labeled_count=0,
        test_auc=evaluator(model_zero),
        selected_positive_fraction=0.0,
        misclassified_count_pre_fit=0,
    )
    state = ExperimentState(
        stack=stack,
        model=model_zero,
        model_zero=model_zero,
        records=[baseline],
        rng=rng,
        labels=np.full(len(stack), -1),
        hard=np.zeros(len(stack), dtype=bool),
        train_cfg=train_cfg,
        positive_class=positive_class,
    )

    audit_file = replacing(audit_path) if audit_path is not None else contextlib.nullcontext()
    with audit_file as audit:
        while (queries := int(np.count_nonzero(state.labels >= 0))) < len(stack):
            if stop.query_budget is not None and queries >= stop.query_budget:
                break
            last = state.records[-1]
            if stop.auc_target is not None and last.step > 0 and last.test_auc >= stop.auc_target:
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
    return state.records
