"""Learner abstraction: a multinomial softmax classifier over patch features.

Stands in for the pre-trained network of the full-scale setting. The
model is a single weight matrix ``W`` of shape ``(num_classes, d + 1)``
(bias in the last column); predictions are ``softmax(W @ [x; 1])`` per
patch. Training is minibatch SGD with momentum, cross-entropy loss and
per-epoch learning-rate decay.

Two start policies:

* warm fit: continue from the given base model at
  ``learning_rate * finetune_lr_factor`` (continuous fine-tuning);
* cold fit: train from the base model (normally the pre-trained start)
  at the full learning rate (retraining from scratch each step).

Training data is an ``(X, y)`` pair of patch features and inherited
candidate labels. Each epoch permutes the augmented features and the
one-hot labels once and then walks contiguous minibatch slices of them.

A list of candidates is predicted in one pass over its stacked patches.
:func:`stack_candidates` groups the candidates by patch count ``m``, and
:func:`stacked_predictions` gives each group's prediction matrices as
one ``(g, m, k)`` array, the form that ``criteria.score_candidates``
scores. A candidate's class probabilities are the mean of its matrix's
rows, one mean over each group array's middle axis.

Rounding rule: a per-row reduction over the class axis (k columns) goes
through :func:`row_max` and :func:`row_sum`, which work on whole columns
and give numpy's ``max(axis=1)``/``sum(axis=1)`` to the bit. numpy runs
a separate inner loop for each short row, which is slow when k is 2 or
3. Reductions over the patch axis stay numpy's own: a loop over patch
columns keeps the bits but is slower on ragged groups of many patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvariantError, ShapeError, check_integer
from .pool import Candidate


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; defaults are the desk-scale benchmark calibration."""

    learning_rate: float = 0.02
    epochs: int = 3
    momentum: float = 0.9
    lr_decay_gamma: float = 0.95
    minibatch_size: int = 32
    finetune_lr_factor: float = 0.1

    def __post_init__(self) -> None:
        if not (0 < self.learning_rate < np.inf):
            raise ConfigError("learning_rate must be finite and > 0")
        check_integer("epochs", self.epochs, 1)
        if not (0 <= self.momentum < 1):
            raise ConfigError("momentum must lie in [0, 1)")
        if not (0 < self.lr_decay_gamma <= 1):
            raise ConfigError("lr_decay_gamma must lie in (0, 1]")
        check_integer("minibatch_size", self.minibatch_size, 1)
        if not (0 < self.finetune_lr_factor <= 1):
            raise ConfigError("finetune_lr_factor must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class LearnerModel:
    """Immutable weight state; ``fit`` always returns a new model."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.weights.shape[0] < 2:
            raise ShapeError(f"weights must be (num_classes, d + 1), got {self.weights.shape}")
        if not np.isfinite(self.weights).all():
            raise ShapeError("weights must be finite")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1] - 1


def _augment(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


_COLUMNWISE_LIMIT = 8  # from this many columns on, numpy's order differs


def row_max(Z: np.ndarray) -> np.ndarray:
    """``Z.max(axis=1)`` of a 2-d array with at least 2 columns, to the bit.

    Below 8 columns this is ``np.maximum`` over whole columns, left to
    right. From 8 columns on numpy's vector loop can return the other
    signed zero of a row holding both, so the result is numpy's own
    ``Z.max(axis=1)``.
    """
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        return Z.max(axis=1)
    out = np.maximum(Z[:, 0], Z[:, 1])
    for j in range(2, Z.shape[1]):
        np.maximum(out, Z[:, j], out=out)
    return out


def row_sum(Z: np.ndarray) -> np.ndarray:
    """``Z.sum(axis=1)`` of a 2-d array with at least 2 columns, to the bit.

    Below 8 columns numpy adds a row left to right, starting from +0.0
    (so a row of -0.0 sums to +0.0); this adds whole columns in the same
    order. From 8 columns on numpy sums pairwise, so the result is
    numpy's own ``Z.sum(axis=1)``.
    """
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        return Z.sum(axis=1)
    out = Z[:, 0] + 0.0
    for j in range(1, Z.shape[1]):
        out += Z[:, j]
    return out


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in ``Z`` (pass a fresh array)."""
    Z -= row_max(Z)[:, None]
    np.exp(Z, out=Z)
    Z /= row_sum(Z)[:, None]
    return Z


def _check_data(X, y, num_classes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2:
        raise ShapeError(f"features must be 2-d, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ShapeError("labels must be one per feature row")
    if not np.isfinite(X).all():
        raise ShapeError("features must be finite")
    if y.size and y.min() < 0:
        raise ShapeError("labels must be non-negative class indices")
    if num_classes is not None and y.size and y.max() >= num_classes:
        raise ShapeError(f"label {int(y.max())} outside [0, {num_classes})")
    return X, y


def _probs_and_gradient(
    weights: np.ndarray, X_aug: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities and the mean cross-entropy gradient for
    one-hot targets ``Y``; the residual ``probs - Y`` is a new array."""
    probs = _softmax_rows(X_aug @ weights.T)
    grad = (probs - Y).T @ X_aug / X_aug.shape[0]
    return probs, grad


def loss_and_gradient(
    weights: np.ndarray, X_aug: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the weight matrix."""
    probs, grad = _probs_and_gradient(weights, X_aug, np.eye(weights.shape[0])[y])
    eps = 1e-300
    loss = float(-np.log(probs[np.arange(X_aug.shape[0]), y] + eps).mean())
    return loss, grad


def _run_sgd(
    weights: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    lr0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    W = weights.copy()
    velocity = np.zeros_like(W)
    Xa = _augment(X)
    Y = np.eye(W.shape[0])[y]
    n = X.shape[0]
    size = cfg.minibatch_size
    for epoch in range(cfg.epochs):
        lr = lr0 * cfg.lr_decay_gamma**epoch
        order = rng.permutation(n)
        Xp, Yp = Xa[order], Y[order]
        for start in range(0, n, size):
            _, grad = _probs_and_gradient(W, Xp[start : start + size], Yp[start : start + size])
            velocity *= cfg.momentum
            velocity -= lr * grad
            W += velocity
    return W


def pretrain_m0(
    data: tuple | None,
    cfg: TrainConfig,
    rng: np.random.Generator,
    *,
    feature_dim: int | None = None,
    num_classes: int | None = None,
) -> LearnerModel:
    """Build the starting model.

    Without data: small random weights, uniform in [-0.01, 0.01], giving
    near-uniform predictions. With data: the same initialization trained
    on it at the full learning rate, simulating a model pre-trained on a
    source domain.
    """
    if data is None:
        if feature_dim is None or num_classes is None:
            raise ConfigError("feature_dim and num_classes are required without data")
        W = rng.uniform(-0.01, 0.01, size=(num_classes, feature_dim + 1))
        return LearnerModel(weights=W)
    X, y = _check_data(*data, num_classes)
    if X.shape[0] == 0:
        raise InvariantError("pretraining data must be non-empty")
    if num_classes is None:
        num_classes = int(y.max()) + 1
    W = rng.uniform(-0.01, 0.01, size=(num_classes, X.shape[1] + 1))
    W = _run_sgd(W, X, y, cfg, cfg.learning_rate, rng)
    return LearnerModel(weights=W)


def fit(
    base: LearnerModel,
    data: tuple,
    cfg: TrainConfig,
    warm: bool,
    rng: np.random.Generator,
) -> LearnerModel:
    """Train from ``base``: warm continues at the reduced fine-tuning rate,
    cold trains at the full rate (pass the pre-trained model as ``base``
    to restart from it)."""
    X, y = _check_data(*data, base.num_classes)
    if X.shape[0] == 0:
        raise InvariantError("fit requires non-empty training data")
    if X.shape[1] != base.feature_dim:
        raise ShapeError(f"feature dim {X.shape[1]} != model dim {base.feature_dim}")
    lr0 = cfg.learning_rate * (cfg.finetune_lr_factor if warm else 1.0)
    W = _run_sgd(base.weights, X, y, cfg, lr0, rng)
    return LearnerModel(weights=W)


def predict_features(model: LearnerModel, X) -> np.ndarray:
    """Row-stochastic class probabilities for a feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ShapeError(f"expected (m, {model.feature_dim}) features, got {X.shape}")
    probs = _softmax_rows(_augment(X) @ model.weights.T)
    # Not a no-op: with three or more classes this second division moves
    # probabilities, and so the audit's scores, in their last bits.
    return probs / row_sum(probs)[:, None]


def predict(model: LearnerModel, candidate: Candidate) -> np.ndarray:
    """Prediction matrix over a candidate's patches."""
    return predict_features(model, candidate.features)


@dataclass(frozen=True, eq=False)
class CandidateStack:
    """A candidate list's stacked patches, grouped by patch count.

    ``groups`` holds one ``(positions, rows)`` pair per patch count m:
    the positions of those candidates in the list, and their ``(g, m)``
    row indices into ``features``.
    """

    features: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    count: int


def stack_candidates(candidates: Sequence[Candidate]) -> CandidateStack:
    """Stack the candidates' patches once, for repeated
    :func:`stacked_predictions` calls."""
    counts = np.array([len(c.features) for c in candidates], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    groups = []
    for m in np.unique(counts):
        positions = np.flatnonzero(counts == m)
        groups.append((positions, starts[positions, None] + np.arange(m)))
    features = (
        np.concatenate([c.features for c in candidates]) if candidates else np.zeros((0, 0))
    )
    return CandidateStack(features=features, groups=tuple(groups), count=len(candidates))


def stacked_predictions(
    model: LearnerModel, stack: CandidateStack
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Prediction matrices of a stack's candidates from one pass over its
    patches: one ``(positions, P)`` pair per patch-count group, where
    ``P[j]`` equals ``predict(model, candidates[positions[j]])``."""
    if not stack.groups:
        return []
    P = predict_features(model, stack.features)
    out = []
    for positions, rows in stack.groups:
        if rows.shape[1] == 1:
            # numpy multiplies a single row through a matrix-vector routine
            # that rounds differently from the matrix product, so a
            # one-patch candidate is predicted alone to match predict().
            block = np.stack(
                [predict_features(model, stack.features[r : r + 1]) for r in rows[:, 0]]
            )
        else:
            block = P[rows]
        out.append((positions, block))
    return out


def stacked_probabilities(model: LearnerModel, stack: CandidateStack) -> np.ndarray:
    """Candidate-level class probabilities, one row per candidate of the
    stack: the column means of its prediction matrix."""
    out = np.empty((stack.count, model.num_classes))
    for positions, P in stacked_predictions(model, stack):
        # A mean over each (m, k) matrix, not np.add.reduceat: reduceat
        # sums in another order.
        out[positions] = P.mean(axis=1)
    return out


def candidate_probabilities(model: LearnerModel, candidates: Sequence[Candidate]) -> np.ndarray:
    """Candidate-level class probabilities, one row per candidate: the
    column means of its prediction matrix."""
    return stacked_probabilities(model, stack_candidates(candidates))


def collect_patches(
    candidates: Iterable[Candidate], labels: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack all patches of the candidates with their inherited labels:
    every patch of a candidate gets ``labels[candidate.id]``."""
    candidates = list(candidates)
    for c in candidates:
        if c.id not in labels:
            raise InvariantError(f"candidate {c.id!r} has no label for training")
    if not candidates:
        return np.zeros((0, 0)), np.zeros((0,), dtype=int)
    counts = [len(c.features) for c in candidates]
    y = np.repeat(np.array([labels[c.id] for c in candidates], dtype=int), counts)
    return np.concatenate([c.features for c in candidates]), y
