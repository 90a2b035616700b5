"""The candidate data model.

A *candidate* is the unit of annotation: an immutable ``(m, d)`` block of
patch feature vectors that all inherit the candidate's label once
annotated. A candidate never holds its annotation: a run keeps the
labeled set ``L`` as one label array over its pool's stack
(:class:`aftstar.loop.ExperimentState` ``labels``), so any number of runs
can share one split.

Dataset CSV format (written/read by :mod:`aftstar.datagen`):
UTF-8, header ``candidate_id,label,f0,...,f{d-1}``, one row per patch.
Rows of one candidate need not be contiguous; the label column repeats the
candidate's class index identically on every row of that candidate.

A run takes each split as one :class:`CandidateStack`, which the CSV
loader builds through :func:`stack_rows` with no per-candidate object,
and :func:`stack_candidates` from the :class:`Candidate` list that
``datagen.generate`` returns. ``true_label``/``true_labels`` is
oracle-side ground truth: only the oracle's queries and the evaluator's
test labels read it, never the selection path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError, shown


@dataclass(frozen=True, eq=False)
class Candidate:
    """An annotation unit: ``m >= 1`` patches of dimension ``d``, stored as
    one read-only ``(m, d)`` float array of finite values."""

    id: str
    features: np.ndarray
    true_label: int = field(repr=False, default=0)

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=float)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ShapeError(
                f"candidate {shown(self.id)}: features must be (m >= 1, d), "
                f"got shape {features.shape}"
            )
        if not np.isfinite(features).all():
            raise ShapeError(f"candidate {shown(self.id)}: features must be finite")
        features.flags.writeable = False
        object.__setattr__(self, "features", features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class CandidateStack:
    """Candidates whose patches are stacked once as augmented rows.

    ``rows`` is a read-only ``(R, d + 1)`` array of patch features with
    the bias column appended. Candidate ``i`` (id ``ids[i]``, true label
    ``true_labels[i]``) has ``counts[i]`` patches, in
    ``rows[first[i]:first[i] + counts[i]]``. A :meth:`subset` and
    :meth:`sorted_by_id` share their parent's rows.
    """

    ids: tuple[str, ...]
    rows: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    true_labels: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.rows.flags.writeable = False  # which pickle protocols below 5 drop

    @property
    def feature_dim(self) -> int:
        return self.rows.shape[1] - 1

    def subset(self, keep: np.ndarray) -> CandidateStack:
        """The candidates at the true positions of ``keep``, in stack order,
        over the same rows."""
        return self._take(tuple(compress(self.ids, keep)), keep)

    def sorted_by_id(self) -> CandidateStack:
        """The same candidates in sorted-id order, over the same rows."""
        order = sorted(range(len(self)), key=self.ids.__getitem__)
        return self._take(tuple(map(self.ids.__getitem__, order)), order)

    def _take(self, ids: tuple[str, ...], index) -> CandidateStack:
        """The candidates ``ids``, at ``index`` (a mask or positions)."""
        return CandidateStack(
            ids, self.rows, self.first[index], self.counts[index], self.true_labels[index]
        )


def stack_rows(
    ids: Sequence[str], true_labels: Sequence[int], counts: Sequence[int], blocks: list, d: int
) -> CandidateStack:
    """The stack of candidates ``ids`` of ``counts`` patches each, whose
    rows are ``blocks`` (checked ``(r, d)`` arrays) concatenated, copied
    once: each candidate's rows in one run, the candidates in order."""
    counts = np.array(counts, dtype=np.intp)
    rows = np.empty((int(counts.sum()), d + 1))
    rows[:, -1] = 1.0
    if blocks:
        np.concatenate(blocks, out=rows[:, :-1])
    rows.flags.writeable = False  # subsets share it
    try:
        labels = np.array(true_labels, dtype=np.int64)
    except OverflowError:  # kept, so that check_splits reports the classes it implies
        labels = np.array(true_labels, dtype=object)
    return CandidateStack(tuple(ids), rows, np.cumsum(counts) - counts, counts, labels)


def dim_mismatch(odd_id: str, odd_dim: int, first_id: str, first_dim: int) -> ShapeError:
    """The error for candidates of one run whose feature dims differ."""
    return ShapeError(
        f"candidate {shown(odd_id)} has {odd_dim} features, "
        f"candidate {shown(first_id)} has {first_dim}"
    )


def stack_candidates(candidates: Iterable[Candidate]) -> CandidateStack:
    """Stack a candidate list once, in its order, for repeated predictions
    and training-row lookups."""
    candidates = list(candidates)
    d = candidates[0].feature_dim if candidates else 0
    for c in candidates:
        if c.feature_dim != d:
            raise dim_mismatch(c.id, c.feature_dim, candidates[0].id, d)
    return stack_rows(
        [c.id for c in candidates],
        [c.true_label for c in candidates],
        [len(c.features) for c in candidates],
        [c.features for c in candidates],
        d,
    )
