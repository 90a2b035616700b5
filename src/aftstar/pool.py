"""The candidate data model.

A *candidate* is the unit of annotation: an immutable ``(m, d)`` block of
patch feature vectors that all inherit the candidate's label once
annotated. A candidate never holds its annotation: a run keeps the
labeled set ``L`` as one id -> label map
(:class:`aftstar.loop.ExperimentState` ``labels``), so any number of runs
can share one candidate list.

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

import numpy as np

from .errors import ShapeError


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
    def feature_dim(self) -> int:
        return self.features.shape[1]
