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

The labeled set L is one id -> label map, ``ExperimentState.labels``:
L is its key set, in labeling order, and each step adds the oracle's
answers for its batch. A run stacks its pool's patches once, as
augmented rows in sorted-id order (``learner.stack_candidates``). The
unlabeled set U is the stack's candidates outside L. Each step takes U,
which it scores, and L, which it mines H from, as subsets of that
stack, by position; a random-selection step, which scores nothing,
takes only U's ids. The training set is the positions of its rows in
the stack, and each epoch of the fit's buffered SGD gathers those rows
straight from the stack, so no row is copied before the fit. The test
split is stacked once too.

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

import bisect
import contextlib
import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Callable, Mapping, Sequence

import numpy as np

from .criteria import CriteriaConfig, classify_pattern, score_candidates
from .datagen import infer_num_classes
from .errors import ConfigError, InvariantError, PartitionError, check_integer, shown
from .learner import (
    CandidateStack,
    LearnerModel,
    TrainConfig,
    dim_mismatch,
    fit,
    pretrain_m0,
    stack_candidates,
    stacked_predictions,
    stacked_probabilities,
    training_rows,
)
from .metrics import ExperimentRecord, auc, macro_auc, replacing
from .oracle import Oracle, OracleConfig, true_labels
from .pool import Candidate
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
    if not isinstance(criterion, str):
        raise ConfigError(f"criterion must be a string, got {criterion!r}")
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
    labeled set L: L is its key set, in labeling order, and U is the
    stack's candidates outside it. A record's step number is
    ``len(records)`` when it is appended, after the baseline row."""

    # The pool's candidates stacked once, in sorted-id order.
    stack: CandidateStack
    model: LearnerModel
    model_zero: LearnerModel
    records: list[ExperimentRecord]
    rng: np.random.Generator
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    positive_class: int = 0
    labels: dict[str, int] = field(default_factory=dict)
    # H: the ids in L that ``model`` misclassifies, mined at the end of
    # each step for the next one. Empty while L is.
    hard: set[str] = field(default_factory=set)


def misclassified_set(
    model: LearnerModel, labeled: CandidateStack, labels: Mapping[str, int]
) -> set[str]:
    """Labeled candidates whose candidate-level argmax disagrees with
    their annotation in ``labels`` (argmax ties resolve to the smaller
    class index)."""
    for cid in labeled.ids:
        if cid not in labels:
            raise InvariantError(f"candidate {cid!r} in L is not annotated")
    predicted = stacked_probabilities(model, labeled).argmax(axis=1).tolist()
    return {cid for cid, k in zip(labeled.ids, predicted) if k != labels[cid]}


def build_training_set(
    policy: str, batch: set[str], misclassified: set[str], labeled: AbstractSet[str]
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
    """Execute one selection / annotation / fine-tuning step in place, on
    a pool with at least one unlabeled candidate."""
    stack = state.stack
    labeled = stack.mask(state.labels)

    scores = None
    if strat.criterion is None:
        unlabeled_ids = list(itertools.compress(stack.ids, ~labeled))
        batch = uniform_batch(unlabeled_ids, strat.sampler.batch_size, state.rng)
    else:
        unlabeled = stack.subset(~labeled)
        unlabeled_ids = list(unlabeled.ids)
        predictions = stacked_predictions(state.model, unlabeled)
        scores = score_candidates(predictions, unlabeled.counts, strat.criterion)
        batch = select_batch(unlabeled_ids, scores.score, strat.sampler, state.rng)

    labels = oracle.query(batch)
    hard = state.hard
    train_ids = build_training_set(
        strat.training_set_policy, set(batch), hard, state.labels.keys()
    )
    state.labels.update(labels)
    if train_ids:
        data = training_rows(stack, stack.mask(train_ids), state.labels)
        warm = strat.model_start == CONTINUE_PREVIOUS
        base = state.model if warm else state.model_zero
        state.model = fit(base, data, state.train_cfg, warm, state.rng)

    test_auc = evaluator(state.model)
    labeled |= stack.mask(batch)
    state.hard = misclassified_set(state.model, stack.subset(labeled), state.labels)
    pos_frac = (
        float(np.mean([labels[cid] == state.positive_class for cid in batch]))
        if batch
        else 0.0
    )
    record = ExperimentRecord(
        step=len(state.records),
        queries_cum=len(state.labels),
        labeled_count=len(state.labels),
        test_auc=test_auc,
        selected_positive_fraction=pos_frac,
        misclassified_count_pre_fit=len(hard),
    )
    state.records.append(record)

    if audit is not None:
        entries = [{"id": cid, "label": labels[cid]} for cid in batch]
        if scores is not None:
            picked = [bisect.bisect_left(unlabeled_ids, cid) for cid in batch]
            # A term the criterion does not weight is computed for the batch only.
            entropies, diversities = scores.terms(picked)
            for entry, i, e, d in zip(entries, picked, entropies.tolist(), diversities.tolist()):
                P = predictions[i, : unlabeled.counts[i]]
                entry.update(
                    dominant=int(scores.dominant[i]),
                    entropy=e,
                    diversity=d,
                    score=float(scores.score[i]),
                    pattern=classify_pattern(P) if P.shape[1] == 2 else None,
                )
        audit.write(
            json.dumps(
                {
                    "step": record.step,
                    "selected": entries,
                    "misclassified_pre_fit": len(hard),
                    "misclassified_post_fit": len(state.hard),
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
    stack = stack_candidates(test_candidates)

    def evaluate(model: LearnerModel) -> float:
        probs = stacked_probabilities(model, stack)
        if num_classes == 2:
            return auc(probs[:, positive_class], (labels == positive_class).astype(int))
        return macro_auc(probs, labels)

    return evaluate


def _missing_classes(present: AbstractSet[int], num_classes: int) -> str:
    """Name the first three classes of ``range(num_classes)`` outside
    ``present`` (a subset of that range) and count the rest, without
    building the range: its end comes from a label in the data."""
    missing = num_classes - len(present)
    outside = (k for k in itertools.count() if k not in present)
    names = ", ".join(map(str, itertools.islice(outside, min(3, missing))))
    return names if missing <= 3 else f"{names} and {missing - 3} more"


def check_splits(
    train_candidates: Sequence[Candidate],
    test_candidates: Sequence[Candidate],
    positive_class: int = 0,
) -> int:
    """Check a run's two splits and return its class count, which comes
    from the labels of both (:func:`~aftstar.datagen.infer_num_classes`).
    ``run_experiment`` calls it first; the CLI calls it before it makes
    an output directory."""
    if not train_candidates or not test_candidates:
        raise ConfigError("train and test candidate sets must be non-empty")
    if test_candidates[0].feature_dim != train_candidates[0].feature_dim:
        raise dim_mismatch(test_candidates[0], train_candidates[0])
    ids: set[str] = set()
    for c in train_candidates:
        if c.id in ids:
            raise PartitionError(f"duplicate candidate id {shown(c.id)}")
        ids.add(c.id)
    num_classes = infer_num_classes([*train_candidates, *test_candidates])
    if not (0 <= positive_class < num_classes):
        raise ConfigError("positive_class outside the label range")
    present = {c.true_label for c in test_candidates}  # all in range(num_classes)
    if len(present) < num_classes:
        raise ConfigError(
            f"the test split has no candidate of class {_missing_classes(present, num_classes)}: "
            "AUC is undefined"
        )
    return num_classes


def run_experiment(
    train_candidates: Sequence[Candidate],
    test_candidates: Sequence[Candidate],
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
    per step. Deterministic given (dataset, strategy, config, seed). The
    class count comes from the labels of both splits (:func:`check_splits`).
    The run stops when the query budget is spent, when the pool is all
    labeled, or when a step's test AUC reaches ``auc_target``: the
    baseline's AUC is not compared with it, so every run with a budget
    above 0 makes its first query."""
    num_classes = check_splits(train_candidates, test_candidates, positive_class)
    candidates = {c.id: c for c in train_candidates}
    oracle_cfg = OracleConfig(label_noise_rate=oracle_noise)

    rng = np.random.default_rng(seed)
    d = train_candidates[0].feature_dim
    model_zero = pretrain_m0(None, train_cfg, rng, feature_dim=d, num_classes=num_classes)
    oracle = Oracle(candidates=candidates, config=oracle_cfg, rng=rng, num_classes=num_classes)
    stack = stack_candidates(candidates[cid] for cid in sorted(candidates))
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
        stack=stack,
        model=model_zero,
        model_zero=model_zero,
        records=[baseline],
        rng=rng,
        train_cfg=train_cfg,
        positive_class=positive_class,
    )

    audit_file = replacing(audit_path) if audit_path is not None else contextlib.nullcontext()
    with audit_file as audit:
        while len(state.labels) < len(stack):
            queries = len(state.labels)
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
