"""Independent reference implementations used as test oracles.

The formula oracles are written as literal direct summation with scalar
math, deliberately sharing no code with the package implementations. The
scorer references at the end are array code: the full sorts that the
package's dominant class and majority subset must equal to the bit.
Two helpers make test data: random prediction matrices, and spread
values, whose sums round differently in different orders. The stack
references build candidate stacks with the constructor and predict each
candidate on its own. The whole-loop reference at the end runs an
experiment one candidate at a time, through the per-candidate public API
alone.
"""

import dataclasses
import json
import math

import numpy as np

from aftstar.criteria import CandidateScore, classify_pattern, score_candidate
from aftstar.learner import collect_patches, fit, predict, predict_features, pretrain_m0
from aftstar.metrics import ExperimentRecord, auc, macro_auc
from aftstar.oracle import Oracle, OracleConfig
from aftstar.pool import CandidateStack
from aftstar.sampler import select_batch


def entropy_direct(P, eps=1e-12):
    m = len(P)
    total = 0.0
    for k in range(len(P[0])):
        for j in range(m):
            p = min(max(P[j][k], eps), 1.0)
            total += p * math.log(p)
    return -total / m


def diversity_direct(P, eps=1e-12):
    m = len(P)
    total = 0.0
    for k in range(len(P[0])):
        for j in range(m):
            for l in range(j, m):
                pj = min(max(P[j][k], eps), 1.0)
                pl = min(max(P[l][k], eps), 1.0)
                total += (pj - pl) * math.log(pj / pl)
    return total


def auc_pairwise(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def random_prediction_matrix(rng, max_m=8, max_classes=4):
    m = int(rng.integers(1, max_m + 1))
    k = int(rng.integers(2, max_classes + 1))
    raw = rng.random((m, k)) + 1e-6
    return raw / raw.sum(axis=1, keepdims=True)


def spread_values(rng, shape):
    """Non-negative values over 9 orders of magnitude, whose sums round
    differently in different orders."""
    return rng.random(shape) * 10.0 ** rng.integers(-8, 1, size=shape)


# The scorer's dominant class and majority subset by full sorts: a sort of
# every candidate's class sums and a lexsort of every candidate's rows on
# k + 1 keys. The package's ``criteria._dominant`` and ``criteria._majority``
# must give their results to the bit.

def dominant_by_sort(P, counts):
    sums = P.sum(axis=1)
    dominant = sums.argmax(axis=1)
    top2 = np.sort(sums, axis=1)[:, -2:]
    near = top2[:, 1] - top2[:, 0] <= 4 * counts * np.finfo(float).eps * top2[:, 1]
    for i in np.flatnonzero(near).tolist():
        exact = [math.fsum(column) for column in P[i].T]
        dominant[i] = exact.index(max(exact))
    return dominant


def majority_by_lexsort(P, counts, alpha, dominant):
    M, k = P.shape[1:]
    keep = np.maximum(np.ceil(alpha * counts), 1).astype(np.intp)
    key = -np.take_along_axis(P, dominant[:, None, None], axis=2)[:, :, 0]
    if counts.min(initial=M) < M:
        key[np.arange(M) >= counts[:, None]] = np.inf
    width = keep.max(initial=0)
    order = np.lexsort([*(P[:, :, j] for j in reversed(range(k))), key], axis=1)[:, :width]
    if keep.min(initial=width) < width:
        order = np.where(np.arange(width) < keep[:, None], order, order[:, :1])
    return np.take_along_axis(P, order[:, :, None], axis=1), keep


def kept_stack(stack, keep):
    """The candidates of ``stack`` that ``keep`` (a mask or positions)
    selects, in their order, over the same rows."""
    ids = tuple(np.array(stack.ids, dtype=object)[keep])
    labels = stack.true_labels[keep]
    return CandidateStack(ids, stack.rows, stack.first[keep], stack.counts[keep], labels)


def own_rows(stack):
    """The same candidates over a copy of their own rows only, in stack
    order, so that a prediction of it gathers nothing."""
    spans = zip(stack.first.tolist(), stack.counts.tolist())
    rows = stack.rows[np.array([r for f, m in spans for r in range(f, f + m)], dtype=np.intp)]
    rows.flags.writeable = False
    first = np.cumsum(stack.counts) - stack.counts
    return CandidateStack(stack.ids, rows, first, stack.counts, stack.true_labels)


def predicted_one_by_one(model, stack, keep):
    """The padded ``(n, M, k)`` prediction matrices of the candidates that
    ``keep`` selects, each predicted on its own by ``predict_features``:
    what ``stacked_predictions(model, stack, keep)`` must equal."""
    first, counts = stack.first[keep], stack.counts[keep]
    out = np.zeros((len(counts), int(counts.max(initial=0)), model.num_classes))
    for block, f, m in zip(out, first.tolist(), counts.tolist()):
        block[:m] = predict_features(model, stack.rows[f : f + m, :-1])
    return out


def reference_run(train, test, strategy, train_cfg, stop, seed, positive_class=0, noise=0.0):
    """``run_experiment`` on candidate lists as a plain per-candidate loop:
    its records, and its audit file's text. Each step scores U one
    candidate at a time in id order, lets ``select_batch`` pick, queries
    the oracle in pick order, fits on the training candidates in id order,
    evaluates each test candidate's mean prediction and mines H, the
    labeled candidates whose mean prediction's argmax is not their label,
    with the model it has just fitted, for the next step."""
    pool = sorted(train, key=lambda c: c.id)
    num_classes = max(max(c.true_label for c in [*train, *test]) + 1, 2)
    rng = np.random.default_rng(seed)
    start = pretrain_m0(None, train_cfg, rng, feature_dim=pool[0].features.shape[1],
                        num_classes=num_classes)
    oracle = Oracle({c.id: c.true_label for c in train}, OracleConfig(noise), rng, num_classes)
    truth = np.array([c.true_label for c in test])

    def evaluate(model):
        probs = np.array([predict(model, c).mean(axis=0) for c in test])
        if num_classes == 2:
            return auc(probs[:, positive_class], (truth == positive_class).astype(int))
        return macro_auc(probs, truth)

    def mined(model, labels):
        return {c.id for c in pool
                if c.id in labels and predict(model, c).mean(axis=0).argmax() != labels[c.id]}

    model, labels, hard, lines = start, {}, set(), []
    records = [ExperimentRecord(0, 0, 0, evaluate(start), 0.0, 0)]
    budget, target = stop.query_budget, stop.auc_target
    while len(labels) < len(pool) and (budget is None or len(labels) < budget) and not (
        target is not None and len(records) > 1 and records[-1].test_auc >= target
    ):
        size = strategy.sampler.batch_size
        sampler = dataclasses.replace(strategy.sampler, batch_size=min(
            size, size if budget is None else budget - len(labels)))
        unlabeled = [c for c in pool if c.id not in labels]
        if strategy.criterion is None:
            scores = {c.id: CandidateScore(c.id, 0, 0.0, 0.0, 0.0, 1) for c in unlabeled}
        else:
            scores = {c.id: score_candidate(predict(model, c), strategy.criterion, c.id)
                      for c in unlabeled}
        picks = select_batch(list(scores.values()), sampler, rng)
        entries = [{"id": cid} for cid in picks]
        if strategy.criterion is not None:
            by_id = {c.id: c for c in unlabeled}
            for entry in entries:
                s, P = scores[entry["id"]], predict(model, by_id[entry["id"]])
                entry.update(dominant=s.dominant, entropy=s.entropy, diversity=s.diversity,
                             score=s.score, pattern=classify_pattern(P) if num_classes == 2 else None)
        answers = oracle.query(picks)
        kept = {"Q_only": set(), "H_union_Q": hard, "L_union_Q": set(labels)}
        chosen = kept[strategy.training_set_policy] | set(picks)
        labels.update(answers)
        X, y = collect_patches([c for c in pool if c.id in chosen], labels)
        warm = strategy.model_start == "continue_previous"
        data = (np.arange(len(X)), y, np.hstack([X, np.ones((len(X), 1))]))
        model = fit(model if warm else start, data, train_cfg, warm, rng)
        positive = float(np.mean([answers[cid] == positive_class for cid in picks]))
        records.append(ExperimentRecord(
            len(records), len(labels), len(labels), evaluate(model), positive, len(hard)))
        pre, hard = len(hard), mined(model, labels)
        for entry in entries:
            entry["label"] = answers[entry["id"]]
        lines.append(json.dumps({"step": len(records) - 1, "selected": entries,
                                 "misclassified_pre_fit": pre,
                                 "misclassified_post_fit": len(hard)}, sort_keys=True) + "\n")
    return records, "".join(lines)
