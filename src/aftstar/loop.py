"""The active, continuous fine-tuning loop over the candidate pool.

Each step: mine the misclassified set H with the model the step starts
from over the labeled set L (skipped while L is empty), score every
unlabeled candidate with that model, from one padded ``(n, M, k)``
array of the unlabeled set's predictions that goes unchecked to one
batched scoring pass (both skipped for random selection), select a
batch, ask the oracle for labels, build the training set per the
strategy policy from the batch and H, add the batch's labels to the
labeled set, fit per the strategy's model-start policy, evaluate, and
append a learning-curve record.

A run takes each split as a ``pool.CandidateStack`` (a candidate list
is stacked once), and its pool as the train stack in sorted-id order,
over the same rows. The labeled set L and the misclassified set H are
arrays over that stack, in its order: ``ExperimentState.labels`` holds
each candidate's annotation, -1 outside L, and a step holds H's mask.
The unlabeled set U is the stack's candidates outside L, by position,
in ascending id order. The sampler picks positions into U, so its ties
by position are ties by id, and a step turns positions into ids only
for the oracle and the selection audit. A scoring step predicts the
pool once with its starting model (``learner.predicted_rows``), scores
U from that prediction and mines H from L's rows of it; a random step
mines L alone. Every row has the same bits either way, and no
prediction outlives its step. The training set is a
mask over the stack, and each epoch of the fit's buffered SGD gathers
its rows straight from the stack, so no row is copied before the fit.
The oracle gets the pool's true labels as one id -> label map.

A step whose selection, training set and start read no earlier model
queues its fit: uniform selection training on L + Q (or Q) from the
pre-trained start, which is RFT, in a run with no AUC target to stop
on. Such a step still selects, annotates and draws its fit's epoch
orders from the run's generator (``learner.queued_fit``) in
``run_step``, but neither fits, nor mines H, nor evaluates. After the
last step ``run_experiment`` runs every queued fit in one stacked pass
(``learner.fit_stacked``), then, step by step, mines each step's H with
the model before it and evaluates the step's model, into the step's
record and audit line. The records, the audit and every later draw keep
their bits. A queued fit that diverges raises ``DivergenceError`` only
from the stacked pass, after every step has selected and annotated, not
at its own step.

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

from .criteria import CriteriaConfig, _score_candidates, dominant_pattern
from .datagen import infer_num_classes
from .errors import ConfigError, InvariantError, PartitionError, check_integer, shown
from .learner import (
    LearnerModel,
    TrainConfig,
    fit,
    fit_stacked,
    predicted_rows,
    pretrain_m0,
    queued_fit,
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
    which only a step's record can meet, not the baseline's. :meth:`stops`
    alone decides, before each step of :func:`run_experiment`, whether it runs."""

    query_budget: int | None = None
    auc_target: float | None = None

    def __post_init__(self) -> None:
        if self.query_budget is not None:
            check_integer("query_budget", self.query_budget, 0)
        if self.auc_target is not None and not (0 < self.auc_target <= 1):
            raise ConfigError("auc_target must lie in (0, 1]")

    def stops(self, last: ExperimentRecord, pool_size: int) -> bool:
        """Whether the run ends after ``last``, its latest record, on a pool of ``pool_size``."""
        queries = last.queries_cum
        return (
            queries >= pool_size
            or (self.query_budget is not None and queries >= self.query_budget)
            or (self.auc_target is not None and last.step > 0 and last.test_auc >= self.auc_target)
        )


@dataclass
class ExperimentState:
    """One run's state. ``labels`` is the run's only record of the
    labeled set L: the annotation of each of the stack's candidates, in
    stack order, and -1 for a candidate outside L. U is the stack's
    candidates outside L. A record's step number is ``len(records)`` when
    it is appended, after the baseline row. Nothing a step derives from
    ``model``, neither H nor a prediction, is held for the next step."""

    # The pool's candidates stacked once, in sorted-id order.
    stack: CandidateStack
    model: LearnerModel
    model_zero: LearnerModel
    records: list[ExperimentRecord]
    rng: np.random.Generator
    labels: np.ndarray
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    positive_class: int = 0
    # The fits the steps queued, one per step, in a run whose fits no
    # later step reads (see the module docstring); None where each step fits.
    queued: list | None = None


def misclassified_set(
    model: LearnerModel, labeled: np.ndarray, stack: CandidateStack, y: np.ndarray, predicted=None
) -> np.ndarray:
    """The positions in ``stack`` of the candidates, among those at the
    positions ``labeled``, whose candidate-level argmax differs from their
    label in ``y``, which holds one per entry of ``labeled`` (argmax ties
    resolve to the smaller class index), read from ``predicted``, the
    step's ``(R, k)`` prediction of the pool by ``model``, or from L's
    rows predicted alone: H, which a step mines with its starting model."""
    rows = predicted_rows(model, stack, labeled) if predicted is None else predicted
    return labeled[stacked_probabilities(rows, stack, labeled).argmax(axis=1) != y]


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
    audit: bool = False,
) -> dict | None:
    """Execute one mining / selection / annotation / fine-tuning step in
    place, on a pool with at least one unlabeled candidate. With ``audit``,
    return the step's audit line without ``misclassified_post_fit``, the
    size of the next step's H, which :func:`run_experiment` fills in. A
    step of a run that queues its fits (``state.queued`` is a list)
    queues its fit and leaves its model, its record's ``test_auc`` (NaN)
    and its H (0) to :func:`run_experiment`."""
    stack = state.stack
    labeled = state.labels >= 0
    unlabeled = np.flatnonzero(~labeled)
    members = np.flatnonzero(labeled)

    # A scoring step's model predicts the pool once, for U's scores and H.
    predicted = None if strat.criterion is None else predicted_rows(state.model, stack)
    hard = np.zeros(len(stack), dtype=bool)
    if len(members) and state.queued is None:
        y = state.labels[members]
        hard[misclassified_set(state.model, members, stack, y, predicted)] = True

    scores = None
    if strat.criterion is None:
        picks = uniform_batch(len(unlabeled), strat.sampler.batch_size, state.rng)
    else:
        counts = stack.counts[unlabeled]
        predictions = stacked_predictions(predicted, stack, ~labeled)
        scores = _score_candidates(predictions, counts, strat.criterion)
        picks = select_batch(scores.score, strat.sampler, state.rng)
    positions = unlabeled[picks]
    batch = [stack.ids[i] for i in positions.tolist()]

    answers = oracle.query(batch)
    selected = np.zeros(len(stack), dtype=bool)
    selected[positions] = True
    train = build_training_set(strat.training_set_policy, selected, hard, labeled)
    state.labels[positions] = [answers[cid] for cid in batch]
    if state.queued is not None:
        state.queued.append(queued_fit(stack, train, state.train_cfg, state.rng))
    elif train.any():
        data = training_rows(stack, train, state.labels[train])
        warm = strat.model_start == CONTINUE_PREVIOUS
        base = state.model if warm else state.model_zero
        state.model = fit(base, data, state.train_cfg, warm, state.rng)

    # A queued step's AUC is filled in after its fit, by _fit_queued.
    test_auc = evaluator(state.model) if state.queued is None else float("nan")
    pos_frac = float(np.mean(state.labels[positions] == state.positive_class)) if batch else 0.0
    labeled_count = len(members) + len(positions)
    record = ExperimentRecord(
        step=len(state.records),
        queries_cum=labeled_count,
        labeled_count=labeled_count,
        test_auc=test_auc,
        selected_positive_fraction=pos_frac,
        misclassified_count_pre_fit=int(np.count_nonzero(hard)),
    )
    state.records.append(record)
    if not audit:
        return None
    entries = [{"id": cid, "label": answers[cid]} for cid in batch]
    if scores is not None:
        # A term the criterion does not weight is computed for the batch only.
        entropies, diversities = scores.terms(picks)
        for entry, i, e, d in zip(entries, picks, entropies.tolist(), diversities.tolist()):
            dominant = int(scores.dominant[i])
            q = predictions[i, : counts[i], dominant]
            entry.update(
                dominant=dominant,
                entropy=e,
                diversity=d,
                score=float(scores.score[i]),
                pattern=dominant_pattern(q) if predictions.shape[2] == 2 else None,
            )
    return {
        "step": record.step,
        "selected": entries,
        "misclassified_pre_fit": record.misclassified_count_pre_fit,
    }


def make_evaluator(
    test: CandidateStack, num_classes: int, positive_class: int
) -> Callable[[LearnerModel], float]:
    """Candidate-level test AUC: average patch predictions per candidate,
    then rank. Binary runs rank the positive-class probability;
    multiclass runs use macro one-vs-rest."""

    def evaluate(model: LearnerModel) -> float:
        probs = stacked_probabilities(predicted_rows(model, test), test)
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


def _fit_queued(
    state: ExperimentState, evaluator: Callable[[LearnerModel], float], lines: list
) -> None:
    """Fit every step's queued fit in one stacked pass, then, step by step,
    mine the step's H with the model before it, over the L before it, and
    evaluate the step's model, into the step's record and audit line, as
    the step would have. ``state.model`` ends as the last step's model."""
    stack = state.stack
    # A candidate's label, once annotated, stays: each fit's labels are
    # those it was queued with.
    models = fit_stacked(state.model_zero, stack, state.labels, state.queued, state.train_cfg)
    labeled = np.zeros(len(stack), dtype=bool)
    for step, ((train, _), model, line) in enumerate(zip(state.queued, models, lines), start=1):
        members = np.flatnonzero(labeled)
        hard = 0
        if len(members):
            hard = len(misclassified_set(state.model, members, stack, state.labels[members]))
        state.records[step] = dataclasses.replace(
            state.records[step], test_auc=evaluator(model), misclassified_count_pre_fit=hard)
        if line is not None:
            line["misclassified_pre_fit"] = hard
        labeled |= train  # each training set holds its step's batch
        state.model = model
    state.queued = None


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
    # No step of RFT (uniform picks, L u Q or Q from M0) reads an earlier
    # model, unless an AUC target reads each step's model to stop on.
    queues = (strat.criterion is None and strat.training_set_policy != H_UNION_Q
              and strat.model_start == RESTART_FROM_M0 and stop.auc_target is None)
    state = ExperimentState(
        stack=stack,
        model=model_zero,
        model_zero=model_zero,
        records=[baseline],
        rng=rng,
        labels=np.full(len(stack), -1),
        train_cfg=train_cfg,
        positive_class=positive_class,
        queued=[] if queues else None,
    )

    audit_file = replacing(audit_path) if audit_path is not None else contextlib.nullcontext()
    with audit_file as audit:
        lines = []
        while not stop.stops(state.records[-1], len(stack)):
            step_strat = strat
            if stop.query_budget is not None:
                remaining = stop.query_budget - state.records[-1].queries_cum
                if remaining < strat.sampler.batch_size:
                    step_strat = dataclasses.replace(
                        strat,
                        sampler=dataclasses.replace(strat.sampler, batch_size=remaining),
                    )
            lines.append(run_step(state, step_strat, oracle, evaluator, audit is not None))
        if state.queued:
            _fit_queued(state, evaluator, lines)
        if audit is not None and lines:
            # A step's H after its fit is the H the next step starts from;
            # after the last step it is mined once, for the audit alone.
            members = np.flatnonzero(state.labels >= 0)
            last = misclassified_set(state.model, members, stack, state.labels[members])
            mined = [r.misclassified_count_pre_fit for r in state.records[2:]] + [len(last)]
            for line, count in zip(lines, mined):
                line["misclassified_post_fit"] = count
                audit.write(json.dumps(line, sort_keys=True) + "\n")
    return state.records
