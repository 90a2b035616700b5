"""Batch selection from ranked candidate scores.

Three modes:

* ``top_b``: the b highest-scoring candidates (ties broken by id);
* ``randomized``: widen the pool to the top ``omega * b`` candidates and
  sample b of them without replacement, with probabilities obtained by
  min-max normalizing the window scores and dividing by their sum — the
  window's last-ranked candidate gets probability zero on the first
  draw, and remaining probabilities are renormalized after each draw;
* ``uniform_random``: b candidates uniformly at random, ignoring scores
  (the selector used by the RFT baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .criteria import CandidateScore
from .errors import ConfigError, SamplingWindowError, check_integer

MODES = ("top_b", "randomized", "uniform_random")


@dataclass(frozen=True)
class SamplerConfig:
    batch_size: int
    omega: int = 5
    mode: str = "top_b"

    def __post_init__(self) -> None:
        check_integer("batch_size", self.batch_size, 1)
        check_integer("omega", self.omega, 1)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


def sampling_probabilities(sorted_scores: Sequence[float], window: int) -> np.ndarray:
    """Selection probabilities over the first ``window`` sorted scores.

    Scores must be sorted descending. Each window score is normalized to
    ``(a_i - a_w) / (a_1 - a_w)`` and the results are divided by their
    sum; if the window is flat (``a_1 == a_w``) the distribution is
    uniform.
    """
    scores = np.asarray(sorted_scores, dtype=float)
    if window < 2 or window > scores.shape[0]:
        raise SamplingWindowError(
            f"window must lie in [2, {scores.shape[0]}], got {window}"
        )
    head = scores[:window]
    top, last = float(head[0]), float(head[-1])
    if top == last:
        return np.full(window, 1.0 / window)
    v = (head - last) / (top - last)
    return v / math.fsum(v)


def uniform_batch(ids: Iterable[str], batch_size: int, rng: np.random.Generator) -> list[str]:
    """Uniform draw of ``min(batch_size, |ids|)`` distinct ids."""
    ordered = sorted(ids)
    take = min(batch_size, len(ordered))
    if take == 0:
        return []
    picks = rng.choice(len(ordered), size=take, replace=False)
    return [ordered[i] for i in picks]


def _draw_without_replacement(probs: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    """Draw ``count`` distinct indices, renormalizing after each draw.

    Once every remaining probability is zero, the rest of the draws are
    uniform over the not-yet-chosen window members.
    """
    p = np.array(probs, dtype=float)
    chosen: list[int] = []
    available = np.ones(p.shape[0], dtype=bool)
    for _ in range(count):
        total = p.sum()
        if total > 0:
            j = int(rng.choice(p.shape[0], p=p / total))
        else:
            j = int(rng.choice(np.flatnonzero(available)))
        chosen.append(j)
        available[j] = False
        p[j] = 0.0
    return chosen


def select_batch(
    scores: Sequence[CandidateScore], cfg: SamplerConfig, rng: np.random.Generator
) -> list[str]:
    """Turn scored candidates into a query batch of distinct ids.

    An empty score list yields an empty batch. The batch size is
    ``min(cfg.batch_size, len(scores))``.
    """
    if not scores:
        return []
    take = min(cfg.batch_size, len(scores))
    if cfg.mode == "uniform_random":
        return uniform_batch((s.candidate_id for s in scores), cfg.batch_size, rng)
    ranked = sorted(scores, key=lambda s: (-s.score, s.candidate_id))
    if cfg.mode == "top_b":
        return [s.candidate_id for s in ranked[:take]]
    window = min(cfg.omega * cfg.batch_size, len(ranked))
    if window == 1:
        return [ranked[0].candidate_id]
    probs = sampling_probabilities([s.score for s in ranked], window)
    picks = _draw_without_replacement(probs, take, rng)
    return [ranked[i].candidate_id for i in picks]
