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
Each public function checks its prediction matrix once; the private
helpers it calls check nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DiagnosticError, ShapeError

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
        if not (self.lambda1 >= 0 and self.lambda2 >= 0):
            raise ConfigError("lambda1 and lambda2 must be >= 0")
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
    if np.abs(P.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise ShapeError(f"prediction matrix rows must sum to 1 within {ROW_SUM_TOL}")
    return P


def _dominant(P: np.ndarray) -> int:
    return int(np.argmax(P.sum(axis=0)))


def _majority(P: np.ndarray, alpha: float, dominant: int) -> np.ndarray:
    keep = max(1, math.ceil(alpha * P.shape[0]))
    order = np.argsort(-P[:, dominant], kind="stable")
    return P[order[:keep]]


def _entropy(P: np.ndarray) -> float:
    pt = np.clip(P, EPSILON, 1.0)
    return float(-(pt * np.log(pt)).sum() / P.shape[0])


def _diversity(P: np.ndarray) -> float:
    pt = np.clip(P, EPSILON, 1.0)
    logs = np.log(pt)
    ju, jl = np.triu_indices(P.shape[0], k=1)
    terms = (pt[ju] - pt[jl]) * (logs[ju] - logs[jl])
    return float(terms.sum())


def dominant_class(P) -> int:
    """Class with the largest column sum (ties go to the smaller index)."""
    return _dominant(check_prediction_matrix(P))


def majority_subset(P, alpha: float) -> np.ndarray:
    """Rows with the highest probability on the dominant class.

    Keeps ``ceil(alpha * m)`` rows (at least one), ordered by descending
    probability on the dominant class; equal probabilities keep the
    lower patch index first.
    """
    P = check_prediction_matrix(P)
    if not (0 < alpha <= 1):
        raise ConfigError("alpha must lie in (0, 1]")
    return _majority(P, alpha, _dominant(P))


def entropy(P) -> float:
    """Mean per-patch prediction entropy in nats; lies in [0, ln |Y|]."""
    return _entropy(check_prediction_matrix(P))


def diversity(P) -> float:
    """Summed pairwise symmetric divergence between patch predictions.

    Zero when all rows are identical or there is a single row; always
    non-negative because each pair term has the form
    ``(a - b) * (ln a - ln b)``.
    """
    return _diversity(check_prediction_matrix(P))


def score_candidate(P, cfg: CriteriaConfig, candidate_id: str = "") -> CandidateScore:
    """Score one candidate: majority subset, then weighted entropy + diversity."""
    P = check_prediction_matrix(P)
    dominant = _dominant(P)
    subset = _majority(P, cfg.alpha, dominant)
    e = _entropy(subset)
    d = _diversity(subset)
    return CandidateScore(
        candidate_id=candidate_id,
        dominant=dominant,
        entropy=e,
        diversity=d,
        score=cfg.lambda1 * e + cfg.lambda2 * d,
        subset_size=subset.shape[0],
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
    q = P[:, _dominant(P)]
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
