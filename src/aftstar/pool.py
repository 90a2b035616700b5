"""Candidate data model and the labeled/unlabeled pool partition.

A *candidate* is the unit of annotation: an immutable ``(m, d)`` block of
patch feature vectors that all inherit the candidate's label once
annotated. The pool partitions candidate ids into a disjoint unlabeled
set ``U`` and labeled set ``L`` and owns the annotations: ``L`` is the
key set of its id -> label map, and every query step moves a batch from
``U`` to ``L``. Building or advancing a pool never modifies the
candidates, so any number of pools can share one candidate list.

Dataset CSV format (written/read by :mod:`aftstar.datagen`):
UTF-8, header ``candidate_id,label,f0,...,f{d-1}``, one row per patch.
Rows of one candidate need not be contiguous; the label column repeats the
candidate's class index identically on every row of that candidate.

``true_label`` is oracle-side ground truth: it is read only by
:mod:`aftstar.oracle` (annotation queries, evaluation labels), never by
the selection path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, KeysView, Mapping

import numpy as np

from .errors import LabelDomainError, PartitionError, ShapeError


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
                f"candidate {self.id!r}: features must be (m >= 1, d), got shape {features.shape}"
            )
        if not np.isfinite(features).all():
            raise ShapeError(f"candidate {self.id!r}: features must be finite")
        features.flags.writeable = False
        object.__setattr__(self, "features", features)

    @property
    def num_patches(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class PoolState:
    """Disjoint partition of candidate ids into unlabeled U and labeled L.

    ``labels`` maps each labeled id to its annotation and ``labeled`` is
    its key set. Invariants: ``unlabeled & labeled == set()`` and
    ``unlabeled | labeled`` equals the initial candidate set; ``step``
    counts completed query steps and ``len(labeled)`` never decreases.
    """

    candidates: Mapping[str, Candidate]
    unlabeled: frozenset[str]
    labels: Mapping[str, int]
    step: int = 0
    num_classes: int = 2

    @property
    def labeled(self) -> KeysView[str]:
        return self.labels.keys()


def make_pool(candidates: Iterable[Candidate], num_classes: int) -> PoolState:
    """Build an all-unlabeled pool over the given candidates."""
    if num_classes < 2:
        raise LabelDomainError("num_classes must be >= 2")
    by_id: dict[str, Candidate] = {}
    for c in candidates:
        if c.id in by_id:
            raise PartitionError(f"duplicate candidate id {c.id!r}")
        by_id[c.id] = c
    return PoolState(
        candidates=by_id,
        unlabeled=frozenset(by_id),
        labels={},
        step=0,
        num_classes=num_classes,
    )


def move_to_labeled(
    pool: PoolState, ids: Iterable[str], labels: Mapping[str, int]
) -> PoolState:
    """A new pool with ``ids`` moved from U to L under their annotated labels.

    An empty move is legal and still advances ``step`` by one.
    """
    ids = list(ids)
    id_set = set(ids)
    if len(id_set) != len(ids):
        raise PartitionError("duplicate ids in move")
    stray = id_set - pool.unlabeled
    if stray:
        raise PartitionError(f"ids not in unlabeled set: {sorted(stray)}")
    for cid in ids:
        if cid not in labels:
            raise LabelDomainError(f"no label supplied for {cid!r}")
        label = labels[cid]
        if not (0 <= int(label) < pool.num_classes):
            raise LabelDomainError(
                f"label {label!r} for {cid!r} outside [0, {pool.num_classes})"
            )
    return PoolState(
        candidates=pool.candidates,
        unlabeled=pool.unlabeled - id_set,
        labels={**pool.labels, **{cid: int(labels[cid]) for cid in ids}},
        step=pool.step + 1,
        num_classes=pool.num_classes,
    )
