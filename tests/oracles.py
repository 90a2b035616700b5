"""Independent reference implementations used as test oracles.

The formula oracles are written as literal direct summation with scalar
math, deliberately sharing no code with the package implementations. The
scorer references at the end are array code: the full sorts that the
package's dominant class and majority subset must equal to the bit.
Two helpers make test data: random prediction matrices, and spread
values, whose sums round differently in different orders. The stack
references at the end build candidate stacks with the constructor and
predict each candidate on its own.
"""

import math

import numpy as np

from aftstar.learner import predict_features
from aftstar.pool import CandidateStack


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
