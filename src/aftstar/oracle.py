"""Simulated annotator: the only component that reads true labels.

The oracle answers label queries for unlabeled candidates, counts the
annotation cost, optionally flips labels with a configurable noise rate,
and keeps an ordered access log so tests can audit exactly which ground
truth the selection loop ever saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DoubleAnnotationError, PartitionError
from .pool import Candidate


@dataclass(frozen=True)
class OracleConfig:
    label_noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.label_noise_rate < 1):
            raise ConfigError("label_noise_rate must lie in [0, 1)")


@dataclass
class Oracle:
    """Answers annotation queries against candidate ground truth."""

    candidates: dict[str, Candidate]
    config: OracleConfig = field(default_factory=OracleConfig)
    rng: np.random.Generator | None = None
    num_classes: int = 2
    queries: int = 0
    access_log: list[str] = field(default_factory=list)
    _answered: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.config.label_noise_rate > 0 and self.rng is None:
            raise ConfigError("a nonzero label_noise_rate needs an rng")

    def query(self, ids: Sequence[str]) -> dict[str, int]:
        """Labels for a batch of previously unqueried candidates.

        With a nonzero noise rate, each answer is independently replaced
        by a uniformly random *other* class with that probability.
        """
        out: dict[str, int] = {}
        seen: set[str] = set()
        for cid in ids:
            if cid not in self.candidates:
                raise PartitionError(f"unknown candidate id {cid!r}")
            if cid in self._answered:
                raise DoubleAnnotationError(f"candidate {cid!r} was already annotated")
            if cid in seen:
                raise DoubleAnnotationError(f"candidate {cid!r} is repeated in the batch")
            seen.add(cid)
        rate = self.config.label_noise_rate
        for cid in ids:
            label = self.candidates[cid].true_label
            if rate > 0 and self.rng.random() < rate:
                others = [k for k in range(self.num_classes) if k != label]
                label = int(others[self.rng.integers(len(others))])
            out[cid] = int(label)
            self._answered.add(cid)
            self.access_log.append(cid)
        self.queries += len(ids)
        return out


def true_labels(candidates: Iterable[Candidate]) -> np.ndarray:
    """Ground-truth labels for evaluation on held-out candidates.

    Evaluation-side accessor: never call this on pool candidates that
    selection may still query.
    """
    return np.asarray([c.true_label for c in candidates], dtype=int)
