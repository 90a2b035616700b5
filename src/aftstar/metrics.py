"""Candidate-level evaluation: AUC, learning curves and ALC.

AUC uses the rank (Mann-Whitney) formulation with midranks for ties,
equivalent to ``(wins + 0.5 * ties) / (positives * negatives)`` over all
positive-negative score pairs. ALC is the trapezoidal integral of test
AUC over the fraction of the pool queried, extended flat to both axis
ends, so curves stopped early remain comparable on a [0, 1] x-axis.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MetricError

FLOAT_FMT = "%.17g"
CURVE_HEADER = [
    "step",
    "queries_cum",
    "labeled_count",
    "test_auc",
    "selected_positive_fraction",
    "misclassified_pre_fit",
]


@dataclass(frozen=True)
class ExperimentRecord:
    """One learning-curve point. The step-0 row is the untrained baseline
    (no batch => selected_positive_fraction 0.0)."""

    step: int
    queries_cum: int
    labeled_count: int
    test_auc: float
    selected_positive_fraction: float
    misclassified_count_pre_fit: int


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of tied values i..j (sorted positions) gets
    the midrank ``0.5 * (i + j) + 1``. A run starts where a sorted value
    differs from the one before it."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(first, append=values.shape[0])
    ranks = np.empty(values.shape[0], dtype=float)
    ranks[order] = np.repeat(0.5 * (2 * first + counts - 1) + 1.0, counts)
    return ranks


def _integer_labels(labels: Sequence[int]) -> np.ndarray:
    """``labels`` as an int array; a label that is not an integer (a float
    with a fraction, or not finite) is a MetricError, not truncated."""
    values = np.asarray(labels)
    if values.dtype.kind == "f":
        bad = ~np.isfinite(values) | (values != np.trunc(values))
        if bad.any():
            raise MetricError(f"labels must be integers, got {values[bad][0].item()!r}")
    return values.astype(int)


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outscores a random negative
    (ties count one half)."""
    scores = np.asarray(scores, dtype=float)
    labels = _integer_labels(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be 1-d and equal length")
    if not np.isin(labels, (0, 1)).all():
        raise MetricError("labels must be binary 0/1")
    if not np.isfinite(scores).all():
        raise MetricError("scores must be finite")
    return _ranked_auc(scores, labels == 1)


def macro_auc(prob_matrix, labels: Sequence[int]) -> float:
    """Macro-averaged one-vs-rest AUC for multiclass runs: the matrix and
    the labels are checked once, then each class column is ranked."""
    prob_matrix = np.asarray(prob_matrix, dtype=float)
    labels = _integer_labels(labels)
    if prob_matrix.ndim != 2 or labels.ndim != 1 or prob_matrix.shape[0] != labels.shape[0]:
        raise MetricError("probability matrix rows must match labels")
    if not np.isfinite(prob_matrix).all():
        raise MetricError("scores must be finite")
    columns = range(prob_matrix.shape[1])
    return float(np.mean([_ranked_auc(prob_matrix[:, k], labels == k) for k in columns]))


def _ranked_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """The AUC of checked 1-d ``scores`` against the boolean ``positive``."""
    n_pos = int(np.count_nonzero(positive))
    n_neg = positive.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined without both a positive and a negative")
    rank_sum = float(_midranks(scores)[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def alc(curve: Sequence[tuple[int, float]], total_pool: int) -> float:
    """Area under (queries / total_pool, auc), flat-extended to x=0 and x=1."""
    if len(curve) < 2:
        raise MetricError("a learning curve needs at least 2 points")
    queries = np.asarray([q for q, _ in curve], dtype=float)
    aucs = np.asarray([a for _, a in curve], dtype=float)
    if total_pool < 1:
        raise MetricError("total_pool must be >= 1")
    if (np.diff(queries) <= 0).any():
        raise MetricError("queries must be strictly increasing")
    if queries[-1] > total_pool:
        raise MetricError("curve extends past the pool size")
    x = queries / total_pool
    area = float(np.trapezoid(aucs, x))
    area += float(x[0] * aucs[0])
    area += float((1.0 - x[-1]) * aucs[-1])
    return area


@dataclass(frozen=True)
class LearningCurve:
    records: tuple[ExperimentRecord, ...]
    alc: float

    @classmethod
    def from_records(
        cls, records: Sequence[ExperimentRecord], total_pool: int
    ) -> "LearningCurve":
        value = alc([(r.queries_cum, r.test_auc) for r in records], total_pool)
        return cls(records=tuple(records), alc=value)


@contextlib.contextmanager
def replacing(path: str | Path, newline: str | None = None):
    """Write text to a temporary file beside ``path`` and move it onto
    ``path`` when the block ends; remove it when the block raises. So an
    artifact is either complete or absent, never truncated."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_curve_csv(records: Sequence[ExperimentRecord], path: str | Path) -> None:
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.step,
                    r.queries_cum,
                    r.labeled_count,
                    FLOAT_FMT % r.test_auc,
                    FLOAT_FMT % r.selected_positive_fraction,
                    r.misclassified_count_pre_fit,
                ]
            )


def write_summary_json(summary: dict, path: str | Path) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
