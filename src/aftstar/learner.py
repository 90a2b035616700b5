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

Training data is a ``(rows, y)`` pair as :func:`training_rows` gives
it: augmented patch rows (bias column appended) and their inherited
candidate labels. Each epoch permutes the rows and the one-hot labels
once and then walks contiguous minibatch slices of them. The SGD is
buffered: every minibatch computes into work arrays made once per fit,
in the same order of operations, so the weights are those of the
unbuffered loop to the bit.

A candidate list is stacked once. :func:`stack_candidates` copies its
patches into one array of augmented rows (bias column appended) and
groups the candidates by patch count ``m``. A :meth:`CandidateStack.subset`
takes candidates by position: it filters the groups' positions in one
pass over their concatenation, slices the result per group and shares
the rows, so a run stacks its pool once and takes each step's unlabeled
and labeled sets from that stack. :func:`training_rows` takes the rows of
the candidates at given positions in one gather, and
:func:`stacked_predictions` predicts the rows of every group in one
pass and gives each group's prediction matrices as one ``(g, m, k)``
array, the form that ``criteria.score_candidates`` scores. A
candidate's class probabilities are the mean of its matrix's rows, one
mean over each group array's middle axis.

Rounding rule: a per-row reduction over the class axis (k columns) goes
through :func:`row_max` and :func:`row_sum`, which work on whole columns
and give numpy's ``max(axis=1)``/``sum(axis=1)`` to the bit; the
softmax sums its columns the same way. numpy runs a separate inner loop
for each short row, which is slow when k is 2 or 3. Reductions over the
patch axis stay numpy's own: a loop over patch columns keeps the bits
but is slower on ragged groups of many patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Collection, Iterable, Mapping

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


def row_max(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``Z.max(axis=1)`` of a 2-d array with at least 2 columns, to the bit,
    written into ``out`` when one is given.

    Below 8 columns this is ``np.maximum`` over whole columns, left to
    right. From 8 columns on numpy's vector loop can return the other
    signed zero of a row holding both, so the result is numpy's own
    ``Z.max(axis=1)``.
    """
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        return Z.max(axis=1, out=out)
    out = np.maximum(Z[:, 0], Z[:, 1], out=out)
    for j in range(2, Z.shape[1]):
        np.maximum(out, Z[:, j], out=out)
    return out


def row_sum(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``Z.sum(axis=1)`` of a 2-d array with at least 2 columns, to the bit,
    written into ``out`` when one is given.

    Below 8 columns numpy adds a row left to right, starting from +0.0
    (so a row of -0.0 sums to +0.0); this adds whole columns in the same
    order. From 8 columns on numpy sums pairwise, so the result is
    numpy's own ``Z.sum(axis=1)``.
    """
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        return Z.sum(axis=1, out=out)
    out = np.add(Z[:, 0], 0.0, out=out)
    for j in range(1, Z.shape[1]):
        out += Z[:, j]
    return out


def _softmax_rows(
    Z: np.ndarray, columns: list[np.ndarray] | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax, computed in place in ``Z`` (a fresh or a work array).

    Below 8 classes the subtraction of the row maximum, the row sum and
    the division run over whole columns: ``columns``, Z's column views,
    made here unless given. The sum adds them left to right as
    :func:`row_sum` does, but without its +0.0 start, which changes
    nothing here: exp gives no -0.0. ``work``, one entry per row, takes
    the maxima and then the sums.
    """
    top = row_max(Z, work)
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        Z -= top[:, None]
        np.exp(Z, out=Z)
        Z /= row_sum(Z, top)[:, None]
        return Z
    if columns is None:
        columns = [Z[:, j] for j in range(Z.shape[1])]
    for column in columns:
        column -= top
    np.exp(Z, out=Z)
    total = np.add(columns[0], columns[1], out=top)
    for column in columns[2:]:
        total += column
    for column in columns:
        column /= total
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


def loss_and_gradient(
    weights: np.ndarray, X_aug: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the weight matrix."""
    probs = _softmax_rows(X_aug @ weights.T)
    grad = (probs - np.eye(weights.shape[0])[y]).T @ X_aug / X_aug.shape[0]
    eps = 1e-300
    loss = float(-np.log(probs[np.arange(X_aug.shape[0]), y] + eps).mean())
    return loss, grad


def _run_sgd(
    weights: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    lr0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Minibatch SGD with momentum over augmented rows ``rows``.

    Each epoch permutes the rows and the one-hot labels into two arrays
    and walks contiguous minibatch slices of them. Each minibatch runs
    the softmax, the residual ``probs - Y``, the mean gradient and the
    momentum update, always in that order, in work arrays made once per
    call: one set for the full minibatches and one for the shorter last
    one.
    """
    W = weights.copy()
    velocity = np.zeros_like(W)
    grad = np.empty_like(W)
    Y = np.eye(W.shape[0])[y]
    n = rows.shape[0]
    size = cfg.minibatch_size
    Xp, Yp = np.empty_like(rows), np.empty_like(Y)
    work = {}
    for b in {min(size, n), n % size} - {0}:
        Z = np.empty((b, W.shape[0]))
        work[b] = (Z, [Z[:, j] for j in range(Z.shape[1])], np.empty(b))
    for epoch in range(cfg.epochs):
        lr = lr0 * cfg.lr_decay_gamma**epoch
        order = rng.permutation(n)
        np.take(rows, order, axis=0, out=Xp)
        np.take(Y, order, axis=0, out=Yp)
        for start in range(0, n, size):
            Xb = Xp[start : start + size]
            Z, columns, row_work = work[len(Xb)]
            # np.dot makes the BLAS call of the @ product, with less overhead.
            np.dot(Xb, W.T, out=Z)
            _softmax_rows(Z, columns, row_work)
            Z -= Yp[start : start + size]
            np.dot(Z.T, Xb, out=grad)
            grad /= len(Xb)
            velocity *= cfg.momentum
            grad *= lr
            velocity -= grad
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
    W = _run_sgd(W, _augment(X), y, cfg, cfg.learning_rate, rng)
    return LearnerModel(weights=W)


def fit(
    base: LearnerModel,
    data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    warm: bool,
    rng: np.random.Generator,
) -> LearnerModel:
    """Train from ``base``: warm continues at the reduced fine-tuning rate,
    cold trains at the full rate (pass the pre-trained model as ``base``
    to restart from it). ``data`` is ``(rows, y)`` as :func:`training_rows`
    gives it: augmented ``(n, d + 1)`` rows of checked candidates,
    ``n >= 1``, and their labels, which are not checked again."""
    rows, y = data
    lr0 = cfg.learning_rate * (cfg.finetune_lr_factor if warm else 1.0)
    return LearnerModel(weights=_run_sgd(base.weights, rows, y, cfg, lr0, rng))


def _predict_rows(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    probs = _softmax_rows(rows @ weights.T)
    # Not a no-op: with three or more classes this second division moves
    # probabilities, and so the audit's scores, in their last bits.
    return probs / row_sum(probs)[:, None]


def predict_features(model: LearnerModel, X) -> np.ndarray:
    """Row-stochastic class probabilities for a feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ShapeError(f"expected (m, {model.feature_dim}) features, got {X.shape}")
    return _predict_rows(model.weights, _augment(X))


def predict(model: LearnerModel, candidate: Candidate) -> np.ndarray:
    """Prediction matrix over a candidate's patches."""
    return predict_features(model, candidate.features)


@dataclass(frozen=True, eq=False)
class CandidateStack:
    """A candidate list's patches, stacked once as augmented rows and
    grouped by patch count.

    ``rows`` is an ``(R, d + 1)`` array of patch features with the bias
    column appended. Candidate ``i`` (id ``ids[i]``) has ``counts[i]``
    patches, in ``rows[first[i]:first[i] + counts[i]]``. ``groups``
    holds one ``(positions, index)`` pair per patch count m: the
    ascending positions of those candidates, and their ``(g, m)`` row
    indices into ``rows``. A :meth:`subset` shares its parent's rows.
    """

    ids: tuple[str, ...]
    rows: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def _position(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    def mask(self, ids: Collection[str]) -> np.ndarray:
        """Which of the stack's candidates have an id in ``ids``, all of
        which must be the stack's."""
        keep = np.zeros(len(self.ids), dtype=bool)
        keep[np.fromiter(map(self._position.__getitem__, ids), np.intp, len(ids))] = True
        return keep

    @cached_property
    def _grouped(self) -> tuple[np.ndarray, np.ndarray]:
        """The groups' positions, concatenated in group order, and where
        each group starts in that array."""
        sizes = [len(positions) for positions, _ in self.groups]
        starts = np.cumsum([0, *sizes[:-1]])
        return np.concatenate([positions for positions, _ in self.groups]), starts

    def subset(self, keep: np.ndarray) -> CandidateStack:
        """The candidates at the true positions of ``keep``, in stack order:
        the groups filtered, not regrouped, over the same rows. The groups'
        positions are filtered in one pass over their concatenation, then
        sliced per group."""
        groups = []
        if self.groups:
            order, starts = self._grouped
            kept = keep[order]
            sizes = np.add.reduceat(kept, starts, dtype=np.intp).tolist()
            positions = (np.cumsum(keep) - 1)[order[kept]]
            taken = 0
            for (_, index), start, size in zip(self.groups, starts.tolist(), sizes):
                if size:
                    kept_index = index[kept[start : start + len(index)]]
                    groups.append((positions[taken : taken + size], kept_index))
                    taken += size
        return CandidateStack(
            ids=tuple(compress(self.ids, keep)),
            rows=self.rows,
            first=self.first[keep],
            counts=self.counts[keep],
            groups=tuple(groups),
        )


def dim_mismatch(odd: Candidate, first: Candidate) -> ShapeError:
    """The error for candidates of one run whose feature dims differ."""
    return ShapeError(
        f"candidate {odd.id!r} has {odd.feature_dim} features, "
        f"candidate {first.id!r} has {first.feature_dim}"
    )


def stack_candidates(candidates: Iterable[Candidate]) -> CandidateStack:
    """Stack the candidates' patches once, for repeated
    :func:`stacked_predictions` and :func:`training_rows` calls."""
    candidates = list(candidates)
    counts = np.array([len(c.features) for c in candidates], dtype=np.intp)
    first = np.cumsum(counts) - counts
    groups = []
    for m in np.unique(counts):
        positions = np.flatnonzero(counts == m)
        groups.append((positions, first[positions, None] + np.arange(m)))
    d = candidates[0].features.shape[1] if candidates else 0
    rows = np.empty((int(counts.sum()), d + 1))
    rows[:, -1] = 1.0
    if candidates:
        try:
            np.concatenate([c.features for c in candidates], out=rows[:, :-1])
        except ValueError:
            odd = next(c for c in candidates if c.feature_dim != d)
            raise dim_mismatch(odd, candidates[0]) from None
    rows.flags.writeable = False  # subsets share it
    return CandidateStack(
        ids=tuple(c.id for c in candidates),
        rows=rows,
        first=first,
        counts=counts,
        groups=tuple(groups),
    )


def stacked_predictions(
    model: LearnerModel, stack: CandidateStack
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Prediction matrices of a stack's candidates from one pass over its
    patches: one ``(positions, P)`` pair per patch-count group, where
    ``P[j]`` equals ``predict(model, candidates[positions[j]])``."""
    if not stack.groups:
        return []
    if stack.rows.shape[1] != model.weights.shape[1]:
        d = stack.rows.shape[1] - 1
        raise ShapeError(f"expected (m, {model.feature_dim}) features, got (m, {d})")
    # The rows of every group of two or more patches are gathered, group
    # after group, and predicted in one pass; each such group's matrices
    # are then a reshaped slice of the result.
    multi = [index.ravel() for _, index in stack.groups if index.shape[1] > 1]
    if multi:
        P = _predict_rows(model.weights, stack.rows[np.concatenate(multi)])
    out, start = [], 0
    for positions, index in stack.groups:
        g, m = index.shape
        if m == 1:
            # numpy multiplies a single row through a matrix-vector routine
            # that rounds differently from the matrix product, so a
            # one-patch candidate is predicted alone to match predict().
            block = np.stack(
                [_predict_rows(model.weights, stack.rows[r : r + 1]) for r in index[:, 0]]
            )
        else:
            block = P[start : start + g * m].reshape(g, m, -1)
            start += g * m
        out.append((positions, block))
    return out


def stacked_probabilities(model: LearnerModel, stack: CandidateStack) -> np.ndarray:
    """Candidate-level class probabilities, one row per candidate of the
    stack: the column means of its prediction matrix."""
    out = np.empty((len(stack), model.num_classes))
    for positions, P in stacked_predictions(model, stack):
        # A mean over each (m, k) matrix, not np.add.reduceat: reduceat
        # sums in another order.
        out[positions] = P.mean(axis=1)
    return out


def training_rows(
    stack: CandidateStack, keep: np.ndarray, labels: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The patch rows of the stack's candidates at the true positions of
    ``keep``, in stack order, gathered into a new ``(R, d + 1)`` array,
    and ``(R,)`` labels: every patch of a candidate gets ``labels[id]``."""
    try:
        y = np.array([labels[i] for i in compress(stack.ids, keep)], dtype=int)
    except KeyError as err:
        raise InvariantError(f"candidate {err.args[0]!r} has no label for training") from None
    first, counts = stack.first[keep], stack.counts[keep]
    # Row r of the result is row (first + r - offset) of its candidate's
    # run, where offset is where that candidate starts in the result.
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return stack.rows[shift + np.arange(len(shift))], np.repeat(y, counts)


def collect_patches(
    candidates: Iterable[Candidate], labels: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack all patches of the candidates with their inherited labels:
    every patch of a candidate gets ``labels[candidate.id]``."""
    stack = stack_candidates(candidates)
    rows, y = training_rows(stack, np.ones(len(stack), dtype=bool), labels)
    return rows[:, :-1], y
