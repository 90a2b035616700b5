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

Training data is an ``(index, y, rows)`` triple as :func:`training_rows`
gives it: ``rows`` is an ``(R, d + 1)`` array of augmented patch rows
(bias column appended), normally a stack's, which the fit reads and
never writes; ``index`` holds the positions of the training rows in it,
one entry per training row; and ``y`` their inherited candidate labels.
No training row is copied before the fit: each epoch gathers the rows at
the permuted positions straight into one array, and the permuted one-hot
labels into another, and then walks contiguous minibatch slices of them.
The SGD is buffered: the minibatch slices, the work arrays, their
transposes and their column views are made once per fit, and the
momentum and the learning rate scale the velocity and the gradient in
one multiply of the two stacked in one array. Every operation runs in
the same order, so the weights are those of the unbuffered loop to the
bit.

A candidate list is stacked once. :func:`stack_candidates` copies its
patches into one array of augmented rows (bias column appended), each
candidate's rows in one run, and keeps each candidate's first row and
patch count. A :meth:`CandidateStack.subset` takes candidates by
position and shares the rows, so a run stacks its pool once and takes
each step's unlabeled and labeled sets from that stack.
:func:`training_rows` gives the positions of the rows of the candidates
at given positions, and :func:`stacked_predictions` predicts the rows
of a stack in one pass, in stack order, and gives the prediction
matrices as one ``(n, M, k)`` array, M the largest patch count, the
form that ``criteria.score_candidates`` scores: a candidate's slots past
its own count are +0.0, and when every count is M the array is the
predicted rows reshaped, with no copy. A candidate's class
probabilities are the mean of its matrix's rows: the padded array
summed over its middle axis, divided by the counts. numpy sums that
axis row after row, left to right, so the trailing +0.0 slots leave
every sum, and so every mean, with the bits of the candidate's own
``(m, k)`` matrix's.

Rounding rule: a per-row reduction over the class axis (k columns) goes
through :func:`row_max` and :func:`row_sum`, which work on whole columns
and give numpy's ``max(axis=1)``/``sum(axis=1)`` to the bit; the
softmax takes the maxima and the sums of its columns the same way, and
is the one statement of that order for predictions and fits alike.
numpy runs a separate inner loop for each short row, which is slow when
k is 2 or 3. Reductions over the patch axis stay numpy's own: a loop
over patch columns keeps the bits but is slower on candidates of many
patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Collection, Iterable, Mapping

import numpy as np

from .errors import ConfigError, InvariantError, ShapeError, check_integer, shown
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

    Below 8 classes the row maximum, its subtraction, the row sum and
    the division run over whole columns: ``columns``, Z's column views,
    made here unless given. The maximum takes ``np.maximum`` over them
    left to right, as :func:`row_max` does. The sum adds them left to
    right as :func:`row_sum` does, but without its +0.0 start, which
    changes nothing here: exp gives no -0.0. ``work``, one entry per row,
    takes the maxima and then the sums. From 8 classes on, the maximum
    and the sum are numpy's own reductions. Two columns take the same
    operations in the same order, written out without the loops, for the
    fit's two-class minibatches.
    """
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        top = row_max(Z, work)
        Z -= top[:, None]
        np.exp(Z, out=Z)
        Z /= row_sum(Z, top)[:, None]
        return Z
    if columns is None:
        columns = [Z[:, j] for j in range(Z.shape[1])]
    if len(columns) == 2:
        # The lines below for two columns, written out without their loops.
        first, second = columns
        top = np.maximum(first, second, out=work)
        first -= top
        second -= top
        np.exp(Z, out=Z)
        total = np.add(first, second, out=top)
        first /= total
        second /= total
        return Z
    top = np.maximum(columns[0], columns[1], out=work)
    for column in columns[2:]:
        np.maximum(top, column, out=top)
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
    index: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    cfg: TrainConfig,
    lr0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Minibatch SGD with momentum over the augmented rows ``rows[index]``
    and their labels ``y``, one per entry of ``index``.

    Each epoch gathers the permuted rows straight from ``rows`` and the
    permuted one-hot labels into two arrays, and walks contiguous
    minibatch slices of them. Each minibatch runs the softmax, the
    residual ``probs - Y``, the mean gradient and the momentum update,
    always in that order. Every view, work array and transpose the
    minibatches use is made once per call: one set for the full
    minibatches and one for the shorter last one. The momentum and the
    learning rate scale the velocity and the gradient in one multiply of
    the stacked ``[velocity; grad]`` by ``[momentum; lr]``.
    """
    W = weights.copy()
    W_T = W.T
    k = W.shape[0]
    scaled = np.zeros((2, *W.shape))  # [velocity; grad]
    velocity, grad = scaled
    # A float array whatever the config's number types: an int momentum
    # would make an int array, which truncates the learning rate to 0.
    factor = np.full((2, 1, 1), cfg.momentum, dtype=float)
    Y = np.eye(k)[y]
    n = len(index)
    size = cfg.minibatch_size
    Xp, Yp = np.empty((n, rows.shape[1])), np.empty_like(Y)
    work = {}
    for b in {min(size, n), n % size} - {0}:
        Z = np.empty((b, k))
        # The row count as a float: numpy divides by it faster than by an int.
        work[b] = (float(b), Z, Z.T, [Z[:, j] for j in range(k)], np.empty(b))
    batches = [
        (Xp[start : start + size], Yp[start : start + size], *work[min(size, n - start)])
        for start in range(0, n, size)
    ]
    for epoch in range(cfg.epochs):
        factor[1] = lr0 * cfg.lr_decay_gamma**epoch
        order = rng.permutation(n)
        # mode="clip" leaves the gathers unbuffered; every index is in range.
        np.take(rows, index[order], axis=0, out=Xp, mode="clip")
        np.take(Y, order, axis=0, out=Yp, mode="clip")
        for Xb, Yb, b, Z, Z_T, columns, row_work in batches:
            # np.dot makes the BLAS call of the @ product, with less overhead.
            np.dot(Xb, W_T, out=Z)
            _softmax_rows(Z, columns, row_work)
            Z -= Yb
            np.dot(Z_T, Xb, out=grad)
            grad /= b
            scaled *= factor
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
    W = _run_sgd(W, np.arange(len(X)), y, _augment(X), cfg, cfg.learning_rate, rng)
    return LearnerModel(weights=W)


def fit(
    base: LearnerModel,
    data: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: TrainConfig,
    warm: bool,
    rng: np.random.Generator,
) -> LearnerModel:
    """Train from ``base``: warm continues at the reduced fine-tuning rate,
    cold trains at the full rate (pass the pre-trained model as ``base``
    to restart from it). ``data`` is ``(index, y, rows)`` as
    :func:`training_rows` gives it: the training rows are
    ``rows[index]``, ``n >= 1`` augmented rows of checked candidates out
    of an ``(R, d + 1)`` array, which is read, never written, and ``y``
    holds their ``n`` labels, which are not checked again."""
    index, y, rows = data
    lr0 = cfg.learning_rate * (cfg.finetune_lr_factor if warm else 1.0)
    return LearnerModel(weights=_run_sgd(base.weights, index, y, rows, cfg, lr0, rng))


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
    """A candidate list's patches, stacked once as augmented rows.

    ``rows`` is an ``(R, d + 1)`` array of patch features with the bias
    column appended. Candidate ``i`` (id ``ids[i]``) has ``counts[i]``
    patches, in ``rows[first[i]:first[i] + counts[i]]``. A :meth:`subset`
    shares its parent's rows.
    """

    ids: tuple[str, ...]
    rows: np.ndarray
    first: np.ndarray
    counts: np.ndarray

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

    def subset(self, keep: np.ndarray) -> CandidateStack:
        """The candidates at the true positions of ``keep``, in stack order,
        over the same rows."""
        return CandidateStack(
            ids=tuple(compress(self.ids, keep)),
            rows=self.rows,
            first=self.first[keep],
            counts=self.counts[keep],
        )


def _row_positions(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions of runs of rows, run after run: run i is ``counts[i]``
    rows from position ``first[i]`` on."""
    # Row r is row (first + r - offset) of its run, where offset is where
    # that run starts among the rows.
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return shift + np.arange(len(shift))


def dim_mismatch(odd: Candidate, first: Candidate) -> ShapeError:
    """The error for candidates of one run whose feature dims differ."""
    return ShapeError(
        f"candidate {shown(odd.id)} has {odd.feature_dim} features, "
        f"candidate {shown(first.id)} has {first.feature_dim}"
    )


def stack_candidates(candidates: Iterable[Candidate]) -> CandidateStack:
    """Stack the candidates' patches once, for repeated
    :func:`stacked_predictions` and :func:`training_rows` calls."""
    candidates = list(candidates)
    counts = np.array([len(c.features) for c in candidates], dtype=np.intp)
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
        first=np.cumsum(counts) - counts,
        counts=counts,
    )


def stacked_predictions(model: LearnerModel, stack: CandidateStack) -> np.ndarray:
    """Prediction matrices of a stack's candidates from one pass over its
    patches, as one ``(n, M, k)`` array, where M is the largest patch
    count: ``P[i, :counts[i]]`` equals ``predict(model, candidates[i])``,
    and the slots past a candidate's count are +0.0. When every candidate
    has M patches, the array is the predicted rows reshaped."""
    counts = stack.counts
    if not len(stack):
        return np.zeros((0, 0, model.num_classes))
    if stack.rows.shape[1] != model.weights.shape[1]:
        d = stack.rows.shape[1] - 1
        raise ShapeError(f"expected (m, {model.feature_dim}) features, got (m, {d})")
    # numpy multiplies a single row through a matrix-vector routine that
    # rounds differently from the matrix product, so a one-patch candidate
    # is predicted alone to match predict(). The rows of the others are
    # predicted in one pass, in stack order.
    multi = counts > 1
    alone = [
        _predict_rows(model.weights, stack.rows[r : r + 1]) for r in stack.first[~multi].tolist()
    ]
    n, M = len(counts), int(counts.max())
    if M == 1:
        return np.stack(alone)
    P = _predict_rows(model.weights, stack.rows[_row_positions(stack.first[multi], counts[multi])])
    if counts.min() == M:
        return P.reshape(n, M, -1)
    out = np.zeros((n, M, P.shape[1]))
    # Candidate i's slots start at row i * M of the array's (n * M, k) view.
    out.reshape(n * M, -1)[_row_positions(np.flatnonzero(multi) * M, counts[multi])] = P
    if alone:
        out[~multi, 0] = np.concatenate(alone)
    return out


def stacked_probabilities(model: LearnerModel, stack: CandidateStack) -> np.ndarray:
    """Candidate-level class probabilities, one row per candidate of the
    stack: the column means of its prediction matrix."""
    # numpy sums the middle axis of an (n, M, k) array row after row, left
    # to right, so the +0.0 slots past a candidate's count leave its sum the
    # sum of its own rows, and the quotient its mean(axis=0) to the bit.
    return stacked_predictions(model, stack).sum(axis=1) / stack.counts[:, None]


def training_rows(
    stack: CandidateStack, keep: np.ndarray, labels: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training data of the stack's candidates at the true positions of
    ``keep``, in the form :func:`fit` takes: ``(index, y, stack.rows)``.
    ``index`` holds the positions in ``stack.rows`` of those candidates'
    ``R`` patch rows, in stack order, and ``y`` their ``(R,)`` labels:
    every patch of a candidate gets ``labels[id]``. No row is copied."""
    try:
        y = np.array([labels[i] for i in compress(stack.ids, keep)], dtype=int)
    except KeyError as err:
        raise InvariantError(f"candidate {err.args[0]!r} has no label for training") from None
    counts = stack.counts[keep]
    return _row_positions(stack.first[keep], counts), np.repeat(y, counts), stack.rows


def collect_patches(
    candidates: Iterable[Candidate], labels: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack all patches of the candidates with their inherited labels:
    every patch of a candidate gets ``labels[candidate.id]``."""
    stack = stack_candidates(candidates)
    index, y, rows = training_rows(stack, np.ones(len(stack), dtype=bool), labels)
    return rows[index, :-1], y
