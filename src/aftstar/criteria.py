"""Per-candidate selection criteria computed from patch-level predictions.

Given the current model's prediction matrix ``P`` for one candidate
(rows = patches, columns = classes, row-stochastic), a candidate's
worthiness for annotation combines two signals:

* entropy ``e``: mean per-patch prediction uncertainty,
  ``e = -(1/m) * sum_k sum_j p[j,k] * ln p[j,k]``;
* diversity ``d``: summed pairwise prediction inconsistency,
  ``d = sum_k sum_{j<l} (p[j,k] - p[l,k]) * ln(p[j,k] / p[l,k])``
  (each pair term is non-negative).

The combined score is ``A = lambda1 * e + lambda2 * d``. Majority
selection computes both quantities on only the ``ceil(alpha * m)``
patches most confidently predicted as the candidate's dominant class,
which suppresses patches whose inherited label is effectively noisy.

All probabilities are clamped to ``[EPSILON, 1]`` before any log; rows
are not re-normalized after clamping.

:func:`score_candidates` scores a whole list of candidates at once, from
one ``(n, M, k)`` array of their prediction matrices padded with zero
rows to the largest patch count M, as ``learner.stacked_predictions``
gives it, and their patch counts. It checks the array once; its core,
which a run calls on its own predictions with no check at all, takes
the dominant class, the majority subset (one ``argsort`` of the keys, a
``lexsort`` of tied candidates' rows only) and the terms as array operations
over all candidates, with no loop over patch counts but one: entropy.
The padding keeps every bit. The middle axis of an ``(n, M, k)`` array
is summed by ``learner.patch_sum``, row after row, left to right from
+0.0, in numpy's own order for ``sum(axis=1)`` but without its per-row
inner loops, so the zero pad rows leave the class sums, and so the
dominant class, as they are. The kept subsets, gathered with
``np.take``, are padded with copies of their first row, whose
differences against the first row are +0.0 and so add nothing to
diversity's middle-axis sums. Entropy sums the last two axes, which
numpy adds pairwise, as one row of ``s * k`` numbers: padding would
change that order, so it is summed once per distinct subset size s. It
computes a term only when its weight is above 0: entropy when
``lambda1 > 0``, diversity when ``lambda2 > 0``, so the four ``entropy``
presets never compute diversity to rank. It returns one
:class:`CandidateScores` of arrays, one entry per candidate, and builds
no per-candidate object. Its :meth:`CandidateScores.terms` reads both
terms of the candidates at given positions: a term that was skipped is
computed for those candidates only, from the kept majority subsets, with
the bits of the eager computation. The single-matrix functions check
their one matrix and are the ``n = 1`` case of the same private helpers,
which check nothing; :func:`score_candidate` returns its one result,
terms read through :meth:`CandidateScores.terms`, as a
:class:`CandidateScore`.

The dominant class and the majority subset do not depend on the order
of a matrix's rows: near-ties in the column sums are summed again
exactly, and rows tied on the dominant-class probability are ordered
by the whole row.

Diversity is computed in O(m k), not over the m (m - 1) / 2 pairs. For
one class with clamped column ``a`` and ``D_j = a_j - a_1``,
``E_j = ln a_j - ln a_1`` (differences against the first row):

    sum_{j<l} (a_j - a_l) * (ln a_j - ln a_l)
        = m * sum_j D_j E_j - (sum_j D_j) * (sum_j E_j).

The identity holds for any anchor; taking differences against the
first row keeps the terms small and makes identical rows and one-row
matrices give exactly ``0.0``. Each class term is then clamped at 0
before the classes are summed, so diversity stays >= 0 like the pair
sum it stands for. The two products round separately and their
difference can fall below zero: with the anchor at 0 (the plain
``m * sum a ln a - sum a * sum ln a``), most near-identical matrices in
a probe gave small negatives, down to -5.7e-13. The anchored form gave
none in that probe, but nothing in its rounding rules them out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DiagnosticError, ShapeError
from .learner import patch_sum, row_sum

ROW_SUM_TOL = 1e-9
EPSILON = 1e-12
FLOAT_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CriteriaConfig:
    """Weights and majority ratio for candidate scoring.

    ``alpha = 1`` disables majority selection (score the full matrix).
    """

    lambda1: float = 1.0
    lambda2: float = 0.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be finite and >= 0")
        if not (self.lambda1 + self.lambda2 > 0):
            raise ConfigError("lambda1 + lambda2 must be > 0")
        if not (0 < self.alpha <= 1):
            raise ConfigError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class CandidateScore:
    """Scoring result for one candidate under a :class:`CriteriaConfig`."""

    candidate_id: str
    dominant: int
    entropy: float
    diversity: float
    score: float
    subset_size: int


class CandidateScores:
    """Scoring results for a list of candidates, as arrays in position
    order: entry ``i`` of each array belongs to the ``i``-th candidate.

    ``dominant``, ``score`` and ``subset_size`` are computed by
    :func:`score_candidates`. The entropy and diversity terms are read
    through :meth:`terms`. :func:`score_candidates` computes a term for
    every candidate when its weight is above 0; a term that it did not
    compute is computed by :meth:`terms` from the majority subsets, for
    the candidates asked for only. Either way it has the bits of the
    eager computation: a term of one candidate does not depend on the
    others scored with it.
    """

    def __init__(self, dominant, subset_size, score, subsets, entropy=None, diversity=None):
        self.dominant = dominant
        self.subset_size = subset_size
        self.score = score
        # The padded majority subsets, as _majority gives them.
        self._subsets = subsets
        self._full = {"entropy": entropy, "diversity": diversity}

    def terms(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Entropy and diversity of the candidates at ``positions``. A term
        that :func:`score_candidates` did not compute is computed for
        these candidates only. A position outside the scored candidates is
        a :class:`ShapeError`."""
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size and not (0 <= positions.min() <= positions.max() < len(self.score)):
            raise ShapeError(f"positions must lie in [0, {len(self.score)})")
        return tuple(
            self._full[name][positions]
            if self._full[name] is not None
            else term(self._subsets[positions], self.subset_size[positions])
            for name, term in (("entropy", _entropy), ("diversity", _diversity))
        )


def check_prediction_matrix(P, real=None) -> np.ndarray:
    """Validate and return P as an (m, |Y|) row-stochastic float array.

    With ``real``, one flag per row, only the flagged rows must sum to 1;
    the others are padding and must be all zero."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2:
        raise ShapeError(f"prediction matrix must be 2-d, got shape {P.shape}")
    m, k = P.shape
    if m < 1 or k < 2:
        raise ShapeError(f"prediction matrix needs m >= 1 rows and >= 2 columns, got {P.shape}")
    if not np.isfinite(P).all():
        raise ShapeError("prediction matrix contains non-finite entries")
    if (P < 0).any() or (P > 1).any():
        raise ShapeError("prediction matrix entries must lie in [0, 1]")
    sums = row_sum(P)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    if real is not None:
        off = np.where(real, off, sums != 0)
    if off.any():
        raise ShapeError(
            f"prediction matrix rows must sum to 1 within {ROW_SUM_TOL}, and pad rows to 0"
        )
    return P


def _dominant(P: np.ndarray, counts) -> np.ndarray:
    """The dominant class of each of the padded matrices ``P``, candidate
    ``i`` having ``counts[i]`` rows (or every one ``counts`` rows)."""
    sums = patch_sum(P)
    # The first-index argmax and the top two sums (entries of ``sums``, so
    # the values a sort gives), column by column.
    top, second = sums[:, 0], np.full(len(sums), -np.inf)
    dominant = np.zeros(len(sums), dtype=np.intp)
    for j in range(1, sums.shape[1]):
        above = sums[:, j] > top
        second = np.where(above, top, np.maximum(second, sums[:, j]))
        top = np.where(above, sums[:, j], top)
        dominant[above] = j
    # A sum of m entries in [0, 1], added in any order, is off by at most
    # about (m - 1) * eps / 2 times the sum. Where the top two sums differ by
    # more than 4 * m * eps times the larger, the exact sums are in the
    # same order and round apart, so every row order picks the class that
    # the exactly rounded sums pick. Closer candidates are summed again
    # with math.fsum, which rounds the exact sum (the zero pad rows add
    # nothing to it): ties go to the smaller index whatever the row order.
    near = top - second <= 4 * counts * FLOAT_EPS * top
    for i in np.flatnonzero(near).tolist():
        exact = [math.fsum(column) for column in P[i].T]
        dominant[i] = exact.index(max(exact))
    return dominant


def _majority(
    P: np.ndarray, counts: np.ndarray, alpha: float, dominant: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The majority subsets of the padded matrices ``P``, padded to the
    largest, and their sizes."""
    n, M, k = P.shape
    keep = np.maximum(np.ceil(alpha * counts), 1).astype(np.intp)
    # Descending q, the dominant-class probability; rows with equal q in
    # whole-row order, so the subset and its order ignore the row order.
    key = np.empty((n, M))
    for j in range(k):
        np.negative(P[:, :, j], out=key, where=(dominant == j)[:, None])
    if counts.min(initial=M) < M:
        key[np.arange(M) >= counts[:, None]] = np.inf  # pad rows after every real row
    width = keep.max(initial=0)
    order = key.argsort(axis=1)
    base = M * np.arange(n)[:, None]  # flat row of each candidate's first row
    # Without two equal keys (-0.0 == +0.0 too) among a candidate's first
    # min(keep + 1, count) sorted rows, any sort gives its first keep rows
    # in the whole-row order; only the others are sorted by the whole row.
    head = key.ravel()[order[:, : min(width + 1, M)] + base]
    inside = np.arange(head.shape[1] - 1) < np.minimum(keep, counts - 1)[:, None]
    tied = ((head[:, 1:] == head[:, :-1]) & inside).any(axis=1)
    order[tied] = np.lexsort([*np.moveaxis(P[tied], 2, 0)[::-1], key[tied]], axis=1)
    # A subset's slots past its size repeat its first row, so that their
    # diversity differences are +0.0.
    order = np.where(np.arange(width) < keep[:, None], order[:, :width], order[:, :1])
    return np.take(P.reshape(n * M, k), order + base, axis=0), keep


def _entropy(S: np.ndarray, keep: np.ndarray) -> np.ndarray:
    T = np.clip(S, EPSILON, 1.0)
    T *= np.log(T)
    out = np.empty(len(keep))
    # A sum over the last two axes adds each candidate's (s, k) block
    # pairwise, as one row of s * k numbers: padding would change that
    # order, so each subset size s is summed on its own, over its first s
    # slots only (S may be wider than every subset it holds).
    for s in np.flatnonzero(np.bincount(keep)).tolist():
        at = np.flatnonzero(keep == s)
        block = T[at, :s] if len(at) < len(keep) else T[:, :s]  # one size: a view
        out[at] = -block.sum(axis=(1, 2)) / s
    return out


def _diversity(S: np.ndarray, keep: np.ndarray) -> np.ndarray:
    pt = np.clip(S, EPSILON, 1.0)
    logs = np.log(pt)
    D = pt - pt[:, :1]
    E = logs - logs[:, :1]
    # The patch-axis sums add row after row, left to right, so the +0.0
    # of the slots that repeat the first row change none of them.
    per_class = keep[:, None] * patch_sum(D * E) - patch_sum(D) * patch_sum(E)
    return row_sum(np.maximum(per_class, 0.0))


def dominant_class(P) -> int:
    """Class with the largest column sum (ties go to the smaller index).

    Where two column sums come within rounding of each other, the sums
    are taken exactly rounded (``math.fsum``), so the class does not
    depend on the row order.
    """
    P = check_prediction_matrix(P)
    return int(_dominant(P[None], len(P))[0])


def majority_subset(P, alpha: float) -> np.ndarray:
    """Rows with the highest probability on the dominant class.

    Keeps ``ceil(alpha * m)`` rows (at least one), ordered by descending
    probability on the dominant class; rows with equal probability are
    ordered by their whole row, ascending, first column first. The
    subset, and its row order, do not depend on the order of the rows
    of ``P``.
    """
    P = check_prediction_matrix(P)
    if not (0 < alpha <= 1):
        raise ConfigError("alpha must lie in (0, 1]")
    return _majority(P[None], np.array([len(P)]), alpha, _dominant(P[None], len(P)))[0][0]


def entropy(P) -> float:
    """Mean per-patch prediction entropy in nats; lies in [0, ln |Y|]."""
    P = check_prediction_matrix(P)
    return float(_entropy(P[None], np.array([len(P)]))[0])


def diversity(P) -> float:
    """Summed pairwise symmetric divergence between patch predictions.

    Zero when all rows are identical or there is a single row; always
    non-negative because each pair term has the form
    ``(a - b) * (ln a - ln b)``.
    """
    P = check_prediction_matrix(P)
    return float(_diversity(P[None], np.array([len(P)]))[0])


def score_candidates(P, counts, cfg: CriteriaConfig) -> CandidateScores:
    """Score many candidates: majority subset, then weighted entropy + diversity.

    ``P`` is an ``(n, M, k)`` array of prediction matrices padded to M
    rows, as ``learner.stacked_predictions`` gives it: candidate ``i``'s
    matrix is ``P[i, :counts[i]]``, ``1 <= counts[i] <= M``, and its rows
    past ``counts[i]`` are zero. ``P`` is checked once, here, and scored
    by the unchecked core. Returns the scores in candidate order.

    Entropy is computed here only when ``lambda1 > 0``, and diversity
    only when ``lambda2 > 0``; the other term is left to
    :meth:`CandidateScores.terms`. The score is ``lambda1 * e + lambda2 *
    d`` with a skipped term as ``0.0``, which keeps the bits of the full
    sum: entropy is > 0 and diversity >= +0.0, so a zero weight's
    product, ``0.0`` or ``-0.0`` times a term or ``0.0``, is a zero that
    adds nothing to the other, weighted product.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 3 or np.shape(counts) != P.shape[:1]:
        raise ShapeError(f"{np.shape(counts)} patch counts but predictions of shape {P.shape}")
    n, M, k = P.shape
    counts = np.asarray(counts, dtype=np.intp)
    if not (1 <= counts.min(initial=1) and counts.max(initial=0) <= M):
        raise ShapeError(f"patch counts must lie in [1, {M}]")
    if n:
        real = (np.arange(M) < counts[:, None]).ravel() if counts.min() < M else None
        check_prediction_matrix(P.reshape(n * M, k), real)
    return _score_candidates(P, counts, cfg)


def _score_candidates(P: np.ndarray, counts: np.ndarray, cfg: CriteriaConfig) -> CandidateScores:
    """:func:`score_candidates` without its checks, for the float array
    and intp counts of a run's own prediction."""
    dominant = _dominant(P, counts)
    subsets, subset_sizes = _majority(P, counts, cfg.alpha, dominant)
    entropies = _entropy(subsets, subset_sizes) if cfg.lambda1 > 0 else None
    diversities = _diversity(subsets, subset_sizes) if cfg.lambda2 > 0 else None
    e = 0.0 if entropies is None else entropies
    d = 0.0 if diversities is None else diversities
    score = cfg.lambda1 * e + cfg.lambda2 * d
    return CandidateScores(
        dominant=dominant,
        subset_size=subset_sizes,
        score=score,
        subsets=subsets,
        entropy=entropies,
        diversity=diversities,
    )


def score_candidate(P, cfg: CriteriaConfig, candidate_id: str = "") -> CandidateScore:
    """Score one candidate: the one-matrix case of :func:`score_candidates`."""
    P = np.asarray(P, dtype=float)
    s = score_candidates(P[None], np.shape(P)[:1], cfg)
    (e,), (d,) = s.terms([0])
    return CandidateScore(
        candidate_id=candidate_id,
        dominant=int(s.dominant[0]),
        entropy=float(e),
        diversity=float(d),
        score=float(s.score[0]),
        subset_size=int(s.subset_size[0]),
    )


def classify_pattern(P) -> str:
    """Diagnostic histogram shape of the dominant-class probabilities.

    Binary problems only. Labels: A = concentrated near 0.5;
    B = spread; C = clustered at both ends; D/E = clustered at one end;
    F/G = one confident cluster plus outliers. Never used by selection.
    """
    P = check_prediction_matrix(P)
    if P.shape[1] != 2:
        raise DiagnosticError("pattern diagnostic requires exactly 2 classes")
    return dominant_pattern(P[:, _dominant(P[None], len(P))[0]])


def dominant_pattern(q: np.ndarray) -> str:
    """:func:`classify_pattern`'s label from ``q``, the dominant-class
    column of a checked two-class matrix, for a caller that holds its
    dominant class already (a step's audit takes it from the scores)."""
    m = q.shape[0]
    f_mid = float(((q >= 0.4) & (q <= 0.6)).sum()) / m
    f_hi = float((q > 0.9).sum()) / m
    f_lo = float((q < 0.1).sum()) / m
    if f_hi >= 0.3 and f_lo >= 0.3:
        return "C"
    if f_hi >= 0.8:
        return "E"
    if f_lo >= 0.8:
        return "D"
    if f_hi >= 0.5:
        return "F"
    if f_lo >= 0.5:
        return "G"
    if f_mid >= 0.6:
        return "A"
    return "B"
