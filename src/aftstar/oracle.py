"""Simulated annotator: the only component that reads true labels.

The oracle answers label queries for unlabeled candidates, counts the
annotation cost, optionally flips labels with a configurable noise rate,
and keeps an ordered access log so tests can audit exactly which ground
truth the selection loop ever saw. It holds the ground truth as one
id -> true-label map, which a run builds from its pool's stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DoubleAnnotationError, PartitionError, shown


@dataclass(frozen=True)
class OracleConfig:
    label_noise_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.label_noise_rate < 1):
            raise ConfigError("label_noise_rate must lie in [0, 1)")


@dataclass
class Oracle:
    """Answers annotation queries against an id -> true-label map."""

    true_labels: Mapping[str, int]
    config: OracleConfig = field(default_factory=OracleConfig)
    rng: np.random.Generator | None = None
    num_classes: int = 2
    access_log: list[str] = field(init=False, default_factory=list)
    _answered: set[str] = field(init=False, default_factory=set)

    def __post_init__(self) -> None:
        if self.config.label_noise_rate > 0 and self.rng is None:
            raise ConfigError("a nonzero label_noise_rate needs an rng")

    @property
    def queries(self) -> int:
        """The annotation cost so far: one query per answered candidate."""
        return len(self.access_log)

    def query(self, ids: Sequence[str]) -> dict[str, int]:
        """Labels for a batch of previously unqueried candidates.

        With a nonzero noise rate, each answer is independently replaced
        by a uniformly random *other* class with that probability.
        """
        out: dict[str, int] = {}
        seen: set[str] = set()
        for cid in ids:
            if cid not in self.true_labels:
                raise PartitionError(f"unknown candidate id {shown(cid)}")
            if cid in self._answered:
                raise DoubleAnnotationError(f"candidate {shown(cid)} was already annotated")
            if cid in seen:
                raise DoubleAnnotationError(f"candidate {shown(cid)} is repeated in the batch")
            seen.add(cid)
        rate = self.config.label_noise_rate
        for cid in ids:
            label = self.true_labels[cid]
            if rate > 0 and self.rng.random() < rate:
                others = [k for k in range(self.num_classes) if k != label]
                label = int(others[self.rng.integers(len(others))])
            out[cid] = int(label)
            self._answered.add(cid)
            self.access_log.append(cid)
        return out

