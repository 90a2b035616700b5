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
candidate labels. Prediction over a list of candidates is one pass over
their stacked patches, split back into one block per candidate; a
candidate's class probabilities are the mean of its block's rows.
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
        if not (self.learning_rate > 0):
            raise ConfigError("learning_rate must be > 0")
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


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=1, keepdims=True)


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


def loss_and_gradient(
    weights: np.ndarray, X_aug: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the weight matrix."""
    probs = _softmax_rows(X_aug @ weights.T)
    n = X_aug.shape[0]
    eps = 1e-300
    loss = float(-np.log(probs[np.arange(n), y] + eps).mean())
    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad = delta.T @ X_aug / n
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
    n = X.shape[0]
    for epoch in range(cfg.epochs):
        lr = lr0 * cfg.lr_decay_gamma**epoch
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start : start + cfg.minibatch_size]
            _, grad = loss_and_gradient(W, Xa[idx], y[idx])
            velocity = cfg.momentum * velocity - lr * grad
            W = W + velocity
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
    return probs / probs.sum(axis=1, keepdims=True)


def predict(model: LearnerModel, candidate: Candidate) -> np.ndarray:
    """Prediction matrix over a candidate's patches."""
    return predict_features(model, candidate.features)


def predict_all(model: LearnerModel, candidates: Sequence[Candidate]) -> list[np.ndarray]:
    """Prediction matrices of many candidates from one pass over their
    stacked patches; block ``i`` equals ``predict(model, candidates[i])``."""
    if not candidates:
        return []
    P = predict_features(model, np.vstack([c.features for c in candidates]))
    blocks = np.split(P, np.cumsum([c.num_patches for c in candidates])[:-1])
    # numpy multiplies a single row through a matrix-vector routine that
    # rounds differently from the matrix product, so a one-patch candidate
    # is predicted alone to match predict() bit for bit.
    return [
        predict(model, c) if c.num_patches == 1 else block
        for c, block in zip(candidates, blocks)
    ]


def candidate_probabilities(model: LearnerModel, candidates: Sequence[Candidate]) -> np.ndarray:
    """Candidate-level class probabilities, one row per candidate: the
    column means of its prediction matrix."""
    # A mean per block, not np.add.reduceat: reduceat sums in another order.
    means = [P.mean(axis=0) for P in predict_all(model, candidates)]
    return np.array(means).reshape(len(means), model.num_classes)


def collect_patches(
    candidates: Iterable[Candidate], labels: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack all patches of the candidates with their inherited labels:
    every patch of a candidate gets ``labels[candidate.id]``."""
    blocks: list[np.ndarray] = []
    ys: list[int] = []
    for c in candidates:
        if c.id not in labels:
            raise InvariantError(f"candidate {c.id!r} has no label for training")
        blocks.append(c.features)
        ys.extend([int(labels[c.id])] * c.num_patches)
    if not blocks:
        return np.zeros((0, 0)), np.zeros((0,), dtype=int)
    return np.vstack(blocks), np.asarray(ys, dtype=int)
