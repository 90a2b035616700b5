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
their prediction matrices grouped by shape as
``learner.stacked_predictions`` gives them: it checks each group's
``(n, m, k)`` array once and takes the dominant class and the majority
subset (a per-row sort) as array operations over the group. It computes
a term only when its weight is above 0: entropy when ``lambda1 > 0``,
diversity when ``lambda2 > 0``, so the four ``entropy`` presets never
compute diversity to rank. It returns one :class:`CandidateScores` of
arrays, one entry per candidate, and builds no per-candidate object; a
term it skipped is computed from the kept majority subsets when it is
read, for all candidates or for a few, with the bits of the eager
computation. The single-matrix functions check their one matrix and are
the ``n = 1`` case of the same private helpers, which check nothing;
:func:`score_candidate` returns its one result as a
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
from .learner import row_sum

ROW_SUM_TOL = 1e-9
EPSILON = 1e-12


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
    :func:`score_candidates`. So are ``entropy`` and ``diversity`` when
    their weight is above 0; a term that was not is computed from the
    majority subsets on first read of the attribute, or by :meth:`terms`
    for a few candidates only. Either way it has the bits of the eager
    computation: a term of one candidate does not depend on the others
    in its group.
    """

    def __init__(self, dominant, subset_size, score, subsets, entropy=None, diversity=None):
        self.dominant = dominant
        self.subset_size = subset_size
        self.score = score
        # (positions, majority subsets) of each patch-count group.
        self._subsets = subsets
        self._full = {"entropy": entropy, "diversity": diversity}

    @property
    def entropy(self) -> np.ndarray:
        return self._term("entropy", _entropy)

    @property
    def diversity(self) -> np.ndarray:
        return self._term("diversity", _diversity)

    def _term(self, name: str, term) -> np.ndarray:
        if self._full[name] is None:
            self._full[name] = _per_group(term, self._subsets, len(self.score))
        return self._full[name]

    def terms(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Entropy and diversity of the candidates at ``positions``. A term
        not computed yet is computed for these candidates only."""
        positions = np.asarray(positions, dtype=np.intp)
        return (
            self._term_at("entropy", _entropy, positions),
            self._term_at("diversity", _diversity, positions),
        )

    def _term_at(self, name: str, term, positions: np.ndarray) -> np.ndarray:
        full = self._full[name]
        if full is not None:
            return full[positions]
        out = np.empty(len(positions))
        for group_positions, subset in self._subsets:
            rows = np.searchsorted(group_positions, positions).clip(max=len(group_positions) - 1)
            here = group_positions[rows] == positions
            if here.any():
                out[here] = term(subset[rows[here]])
        return out


def check_prediction_matrix(P) -> np.ndarray:
    """Validate and return P as an (m, |Y|) row-stochastic float array."""
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
    if np.abs(row_sum(P) - 1.0).max() > ROW_SUM_TOL:
        raise ShapeError(f"prediction matrix rows must sum to 1 within {ROW_SUM_TOL}")
    return P


def _dominant(P: np.ndarray) -> np.ndarray:
    m, k = P.shape[1:]
    sums = P.sum(axis=1)
    dominant = sums.argmax(axis=1)
    # A sum of m entries in [0, 1], added in any order, is off by at most
    # about (m - 1) * eps / 2 times the sum. Where the top two sums differ by
    # more than 4 * m * eps times the larger, the exact sums are in the
    # same order and round apart, so every row order picks the class that
    # the exactly rounded sums pick. Closer candidates are summed again
    # with math.fsum, which rounds the exact sum: ties go to the smaller
    # index whatever the row order.
    top2 = np.sort(sums, axis=1)[:, -2:]
    near = top2[:, 1] - top2[:, 0] <= 4 * m * np.finfo(float).eps * top2[:, 1]
    for i in np.flatnonzero(near).tolist():
        exact = [math.fsum(P[i, :, j]) for j in range(k)]
        dominant[i] = exact.index(max(exact))
    return dominant


def _majority(P: np.ndarray, alpha: float, dominant: np.ndarray) -> np.ndarray:
    m, k = P.shape[1:]
    keep = max(1, math.ceil(alpha * m))
    q = np.take_along_axis(P, dominant[:, None, None], axis=2)[:, :, 0]
    # Descending q; rows with equal q are ordered by the whole row, column
    # by column, so the subset and its order do not depend on the row order.
    order = np.lexsort([*(P[:, :, j] for j in reversed(range(k))), -q], axis=1)[:, :keep]
    return np.take_along_axis(P, order[:, :, None], axis=1)


def _entropy(P: np.ndarray) -> np.ndarray:
    pt = np.clip(P, EPSILON, 1.0)
    return -(pt * np.log(pt)).sum(axis=(1, 2)) / P.shape[1]


def _diversity(P: np.ndarray) -> np.ndarray:
    pt = np.clip(P, EPSILON, 1.0)
    logs = np.log(pt)
    D = pt - pt[:, :1]
    E = logs - logs[:, :1]
    per_class = P.shape[1] * (D * E).sum(axis=1) - D.sum(axis=1) * E.sum(axis=1)
    return row_sum(np.maximum(per_class, 0.0))


def _per_group(term, subsets, count: int) -> np.ndarray:
    """``term`` of every candidate, in position order, from ``(positions,
    subset)`` pairs that cover ``range(count)``."""
    out = np.empty(count)
    for positions, subset in subsets:
        out[positions] = term(subset)
    return out


def dominant_class(P) -> int:
    """Class with the largest column sum (ties go to the smaller index).

    Where two column sums come within rounding of each other, the sums
    are taken exactly rounded (``math.fsum``), so the class does not
    depend on the row order.
    """
    return int(_dominant(check_prediction_matrix(P)[None])[0])


def majority_subset(P, alpha: float) -> np.ndarray:
    """Rows with the highest probability on the dominant class.

    Keeps ``ceil(alpha * m)`` rows (at least one), ordered by descending
    probability on the dominant class; rows with equal probability are
    ordered by their whole row, ascending, first column first. The
    subset, and its row order, do not depend on the order of the rows
    of ``P``.
    """
    P = check_prediction_matrix(P)[None]
    if not (0 < alpha <= 1):
        raise ConfigError("alpha must lie in (0, 1]")
    return _majority(P, alpha, _dominant(P))[0]


def entropy(P) -> float:
    """Mean per-patch prediction entropy in nats; lies in [0, ln |Y|]."""
    return float(_entropy(check_prediction_matrix(P)[None])[0])


def diversity(P) -> float:
    """Summed pairwise symmetric divergence between patch predictions.

    Zero when all rows are identical or there is a single row; always
    non-negative because each pair term has the form
    ``(a - b) * (ln a - ln b)``.
    """
    return float(_diversity(check_prediction_matrix(P)[None])[0])


def score_candidates(groups, cfg: CriteriaConfig, count: int) -> CandidateScores:
    """Score many candidates: majority subset, then weighted entropy + diversity.

    ``groups`` holds ``(positions, P)`` pairs, as from
    ``learner.stacked_predictions``: ``P`` is an ``(n, m, k)`` array and
    ``P[j]`` the prediction matrix of the candidate at position
    ``positions[j]``. The positions must cover ``range(count)`` exactly
    once. Returns the scores in position order.

    Entropy is computed here only when ``lambda1 > 0``, and diversity
    only when ``lambda2 > 0``; the other term is left to the returned
    :class:`CandidateScores`. The score keeps the bits of
    ``lambda1 * e + lambda2 * d``: entropy is > 0 and diversity >= +0.0,
    so a zero weight's product is a zero that adds as ``0.0``.
    """
    covered = np.sort(np.concatenate([positions for positions, _ in groups] or [[]]))
    if not np.array_equal(covered, np.arange(count)):
        raise ShapeError(f"group positions must cover each of the {count} positions once")
    dominant = np.empty(count, dtype=np.intp)
    subset_sizes = np.empty(count, dtype=np.intp)
    subsets = []
    for positions, P in groups:
        P = np.asarray(P, dtype=float)
        if P.ndim != 3 or P.shape[0] != len(positions):
            raise ShapeError(f"{len(positions)} positions but predictions of shape {P.shape}")
        n, m, k = P.shape
        check_prediction_matrix(P.reshape(n * m, k))
        group_dominant = _dominant(P)
        subset = _majority(P, cfg.alpha, group_dominant)
        dominant[positions] = group_dominant
        subset_sizes[positions] = subset.shape[1]
        subsets.append((positions, subset))
    entropies = _per_group(_entropy, subsets, count) if cfg.lambda1 > 0 else None
    diversities = _per_group(_diversity, subsets, count) if cfg.lambda2 > 0 else None
    if diversities is None:
        score = cfg.lambda1 * entropies + 0.0
    elif entropies is None:
        score = 0.0 + cfg.lambda2 * diversities
    else:
        score = cfg.lambda1 * entropies + cfg.lambda2 * diversities
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
    s = score_candidates([([0], np.asarray(P, dtype=float)[None])], cfg, 1)
    return CandidateScore(
        candidate_id=candidate_id,
        dominant=int(s.dominant[0]),
        entropy=float(s.entropy[0]),
        diversity=float(s.diversity[0]),
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
    q = P[:, _dominant(P[None])[0]]
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
