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
The SGD is bound by numpy's per-call cost, not by its arithmetic, so
each minibatch makes its calls through the cheapest entry points, into
views and work arrays made once per fit (see :func:`_run_sgd`). Every
operation runs in the same order, so the weights are those of the
unbuffered loop to the bit.

Cold fits from one base that no other fit reads can run together:
:func:`queued_fit` takes a fit's draws from the run's generator where
:func:`fit` takes them, and :func:`fit_stacked` runs the queued fits in
lockstep, epoch by epoch, each tick one minibatch of every fit that has
a full one left, stacked along a leading fit axis. The same minibatch
body, :func:`_descend`, serves one fit (``ndarray.dot``) and stacked
fits (``np.matmul``, which multiplies each fit's minibatch by the same
gemm), so every fit keeps :func:`fit`'s weights to the bit. On one Xeon
core with numpy 2.4.6, a tick of about 25 two-class fits of 32 rows
costs about 55 us, about 2 us a fit, where one fit's minibatch alone
costs about 8 us: the 50 restarts of an RFT run of 50 steps of 50
twelve-patch candidates (765,000 rows an epoch) took 582-650 ms one by
one and 202-236 ms stacked.

The learner works on a split as one :class:`aftstar.pool.CandidateStack`
(augmented rows, each candidate's first row and patch count), and a run
picks each step's unlabeled and labeled sets out of its pool's stack by
a mask or by positions. :func:`training_rows` gives the positions of the
rows of the candidates it keeps. :func:`predicted_rows`, the one place
that predicts them, decides how by the share of ``stack.rows`` the kept
candidates hold: from 3/4 on it predicts every row where it lies, into
an ``(R, k)`` array that serves any kept set of the stack (a scoring
step's U and L alike), so the ``(R, d + 1)`` feature rows are not
copied; below that it gathers the kept rows and predicts only those.
Each row has ``predict``'s bits either way: a one-patch candidate's row,
which the matrix product rounds unlike numpy's one-row routine, is
multiplied again in one stack of single rows (6,000 at k = 2: 0.6 ms on
one Xeon core, 85 ms one by one). :func:`stacked_predictions`
gathers the kept candidates' prediction matrices from either form, in
stack order, as one ``(n, M, k)`` array, M the largest patch count
among them, the form that ``criteria.score_candidates`` scores: a
candidate's slots past its own count are +0.0. When every count is M,
the array is the rows reshaped, with no copy. A candidate's class
probabilities are the mean of its matrix's rows: the padded array
summed over its middle axis by :func:`patch_sum`, divided by the
counts. That sum adds the rows left to right, so the trailing +0.0
slots leave every sum, and so every mean, with the bits of the
candidate's own ``(m, k)`` matrix's.

Rounding rule: a per-row sum over the class axis (k columns) goes
through :func:`row_sum`, which works on whole columns and gives numpy's
``sum(axis=1)`` to the bit. Below 8 classes the softmax takes the
maxima and the sums of its columns the same way, left to right, and
from 8 on numpy's own row reductions; it is the one statement of that
order for predictions and fits alike. A sum over the patch axis of an
``(n, M, k)`` array goes through :func:`patch_sum`, which adds the
patch slots in numpy's order, class column by class column, and gives
a C-ordered array's ``sum(axis=1)`` to the bit. numpy runs a separate
inner loop for each short row in both reductions, which is slow when k
is 2 or 3. On one Xeon core with numpy 2.4.6, numpy's middle-axis sum
took 1.2 ms on ``(5800, 12, 2)`` and :func:`patch_sum` 0.12 ms; on a
ragged ``(500, 40, 3)``, 0.30 and 0.10 ms; on ``(500, 40, 9)`` both
0.44 ms. On few candidates numpy's sum is the faster (1.2 against
24 us on one ``(12, 2)`` matrix, 8 against 32 us on ``(20, 20, 3)``),
a cost paid by the one-matrix functions of ``criteria`` and a step's
audit terms, not by scoring. Rows are gathered with ``np.take`` for
the same reason: 69,600 of 72,000 ``(R, 11)`` rows took 0.66 ms, where
fancy indexing took 2.29 ms. Where the two ways of predicting a kept set
cross: on one such core, out of a 6,000 candidate, 12-patch pool, in
place took 1.28-1.38 ms whatever the share and gathering took 0.61,
1.01, 1.39, 1.64 and 1.89 ms at 30, 51, 69, 80 and 96% of the rows.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .datagen import infer_num_classes
from .errors import ConfigError, DivergenceError, InvariantError, ShapeError, check_integer, shown
from .pool import Candidate, CandidateStack, stack_candidates


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


def patch_sum(P: np.ndarray) -> np.ndarray:
    """The sum over the middle axis of an ``(n, M, k)`` array, as a new
    ``(n, k)`` array: each class column's M patch slots added left to
    right into zeros, one add of an n-vector per slot.

    The zeros are numpy's +0.0 start, so a column of -0.0 sums to +0.0.
    In any layout whose middle axis is not the contiguous one, as in a
    C-ordered array, numpy's ``P.sum(axis=1)`` adds in this order, so the
    result is that sum to the bit. Where the middle axis is the
    contiguous one numpy sums it with several accumulators; this sum
    still adds left to right, the bits of the array's C-ordered copy.
    """
    n, M, k = P.shape
    out = np.zeros((n, k))
    for j in range(k):
        total, part = out[:, j], P[:, :, j]
        for r in range(M):
            total += part[:, r]
    return out


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in ``Z``, a fresh array.

    Below 8 classes the row maximum, its subtraction, the row sum and
    the division run over whole columns, Z's column views. The maximum
    takes ``np.maximum`` over them left to right. The sum adds them left
    to right as :func:`row_sum` does, but without its +0.0 start, which
    changes nothing here: exp gives no -0.0. One entry per row takes the
    maxima and then the sums. The column operations write into
    positional outputs, but ``np.maximum``'s (numpy 2.4 deprecates it).
    From 8 classes on, the maximum and the sum are numpy's own
    reductions. A fit runs these operations, in the same order, in
    :func:`_descend`'s loop body.
    """
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        top = Z.max(axis=1)
        Z -= top[:, None]
        np.exp(Z, out=Z)
        Z /= row_sum(Z, top)[:, None]
        return Z
    columns = [Z[:, j] for j in range(Z.shape[1])]
    top = np.maximum(columns[0], columns[1])
    for column in columns[2:]:
        np.maximum(top, column, out=top)
    for column in columns:
        np.subtract(column, top, column)
    np.exp(Z, Z)
    total = np.add(columns[0], columns[1], top)
    for column in columns[2:]:
        np.add(total, column, total)
    for column in columns:
        np.divide(column, total, column)
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


_dot = np.ndarray.dot  # the 2-D product; np.matmul is the stacked one


def _minibatch_work(b: int, k: int, lead: tuple = ()) -> tuple:
    """The work arrays of :func:`_descend`'s minibatch body for ``b`` rows
    of ``k`` classes, with the leading axes ``lead`` (one per stacked fit),
    in the order the body unpacks them after the minibatch's rows and
    labels: the row count as a 0-d float array, which numpy divides by
    without converting a Python number on every call; the logits ``Z``
    and their transpose; Z's first, second and other class columns; and
    one entry per row for the maxima and the sums, and its view as a
    column."""
    Z = np.empty((*lead, b, k))
    top = np.empty((*lead, b))
    columns = [Z[..., j] for j in range(k)]
    return (np.array(float(b)), Z, np.swapaxes(Z, -1, -2), columns[0], columns[1], columns[2:],
            top, top[..., None])


def _descend(batches, dot, state) -> None:
    """Run the minibatches ``batches`` of one fit, or of fits stacked along
    a leading axis, in turn: each one's rows, one-hot labels and
    :func:`_minibatch_work` arrays. ``state`` holds the weights, their
    transpose, the stacked ``[velocity; grad]``, its factor and its two
    halves, which the body updates in place; ``dot`` is ``ndarray.dot``
    for one fit and ``np.matmul`` for stacked ones, and every other
    operation is a ufunc or a reduction over the last axis, so one body
    serves both, in the same order.

    The softmax runs below 8 classes over whole columns, as
    :func:`_softmax_rows` does, with no call: the maxima and the sums
    left to right, and, from three classes on, the subtraction and the
    division each one broadcast call over ``top``'s column view (for two,
    two calls on the columns are the faster); from 8 classes on, numpy's
    own reductions over the last axis.
    """
    W, W_T, scaled, factor, velocity, grad = state
    add, subtract, multiply, divide, maximum, exp = (
        np.add, np.subtract, np.multiply, np.divide, np.maximum, np.exp)
    k = W.shape[-2]
    for Xb, Yb, count, Z, Z_T, first, second, rest, top, top_col in batches:
        dot(Xb, W_T, out=Z)
        if k == 2:
            maximum(first, second, out=top)
            subtract(first, top, first)
            subtract(second, top, second)
            exp(Z, Z)
            add(first, second, top)
            divide(first, top, first)
            divide(second, top, second)
        elif k < _COLUMNWISE_LIMIT:
            maximum(first, second, out=top)
            for column in rest:
                maximum(top, column, out=top)
            subtract(Z, top_col, Z)
            exp(Z, Z)
            add(first, second, top)
            for column in rest:
                add(top, column, top)
            divide(Z, top_col, Z)
        else:
            Z.max(axis=-1, out=top)
            subtract(Z, top_col, Z)
            exp(Z, Z)
            Z.sum(axis=-1, out=top)
            divide(Z, top_col, Z)
        subtract(Z, Yb, Z)
        dot(Z_T, Xb, out=grad)
        divide(grad, count, grad)
        multiply(scaled, factor, scaled)
        subtract(velocity, grad, velocity)
        add(W, velocity, W)


@np.errstate(over="ignore", invalid="ignore")
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
    minibatch slices of them through :func:`_descend`. Each minibatch
    runs the softmax, the residual ``probs - Y``, the mean gradient and
    the momentum update, always in that order. Every view, work array
    and transpose the minibatches use is made once per call: one set for
    the full minibatches and one for the shorter last one. The momentum
    and the learning rate scale the velocity and the gradient in one
    multiply of the stacked ``[velocity; grad]`` by ``[momentum; lr]``, a
    float array of the same ``(2, k, d + 1)`` shape whose lr half is set
    once per epoch. The gradient is divided by its minibatch's row count
    held as a 0-d float64 array. Both products go through ``ndarray.dot``,
    every ufunc through a local name with its output positional, and the
    softmax's operations run in the loop body, with no call. On one Xeon
    core with numpy 2.4.6, on a two-class minibatch of 32 rows, the
    full-shape factor took 0.28 us a multiply where a ``(2, 1, 1)`` one,
    broadcast, took 0.77-0.80 us, and the 0-d divisor 0.27 us a division
    where a Python float took 0.45-0.48 us; ``Xb.dot(W_T, out=Z)`` took
    0.63 us where ``np.dot`` took 0.85 us (0.42 against 0.59 us for the
    gradient's product), and ``subtract(a, b, a)`` 0.31 us where
    ``np.subtract(a, b, a)`` took 0.35 us and ``a -= b`` 0.33 us.
    It runs with numpy's overflow and invalid warnings off: a fit whose
    weights end up non-finite raises one :class:`DivergenceError`.
    """
    W = weights.copy()
    k = W.shape[0]
    scaled = np.zeros((2, *W.shape))  # [velocity; grad]
    # A float array whatever the config's number types: an int momentum
    # would make an int array, which truncates the learning rate to 0.
    factor = np.full(scaled.shape, cfg.momentum, dtype=float)
    state = (W, W.T, scaled, factor, *scaled)
    Y = np.take(np.eye(k), y, axis=0)
    n = len(index)
    size = cfg.minibatch_size
    Xp, Yp = np.empty((n, rows.shape[1])), np.empty_like(Y)
    work = {b: _minibatch_work(b, k) for b in {min(size, n), n % size} - {0}}
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
        _descend(batches, _dot, state)
    if not np.isfinite(W).all():
        raise DivergenceError("the fit diverged to non-finite weights: lower learning_rate")
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
    source domain. The labels imply ``num_classes`` when it is None (at
    least 2); one below 2, or without data a ``feature_dim`` that is not
    an integer of at least 0, raises :class:`ConfigError` before any draw.
    """
    if num_classes is not None:
        check_integer("num_classes", num_classes, 2)
    if data is None:
        if feature_dim is None or num_classes is None:
            raise ConfigError("feature_dim and num_classes are required without data")
        check_integer("feature_dim", feature_dim, 0)
        W = rng.uniform(-0.01, 0.01, size=(num_classes, feature_dim + 1))
        return LearnerModel(weights=W)
    X, y = _check_data(*data, num_classes)
    if X.shape[0] == 0:
        raise InvariantError("pretraining data must be non-empty")
    if num_classes is None:
        num_classes = infer_num_classes(y)
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


def queued_fit(
    stack: CandidateStack, keep: np.ndarray, cfg: TrainConfig, rng: np.random.Generator
) -> tuple:
    """A fit for :func:`fit_stacked` on the stack's candidates that ``keep``
    selects: ``(keep, fork)``, ``fork`` a copy of ``rng`` as the fit would
    start drawing from it. Then it draws from ``rng`` the epoch orders the
    fit draws, so ``rng`` goes on as it would after :func:`fit`. Neither
    the fit's rows nor its orders are held: the stacked pass draws the
    orders again from ``fork``."""
    fork = copy.deepcopy(rng)
    n = int(stack.counts[keep].sum())
    for _ in range(cfg.epochs):
        rng.permutation(n)
    return keep, fork


@np.errstate(over="ignore", invalid="ignore")
def fit_stacked(
    base: LearnerModel,
    stack: CandidateStack,
    labels: np.ndarray,
    fits: list[tuple],
    cfg: TrainConfig,
) -> list[LearnerModel]:
    """One model per fit of ``fits``, in their order, each with the bits of
    a cold :func:`fit` from ``base`` on its ``(keep, rng)``, as
    :func:`queued_fit` gives it: the training data ``training_rows(stack,
    keep, labels[keep])``, ``labels`` holding one label per candidate of
    the stack, and the generator its epoch orders come from. A warm fit
    starts from the model before it, so it cannot wait to run stacked.

    The fits run in lockstep, epoch by epoch. Ranked by size, largest
    first, the fits with a full minibatch at a tick are a prefix of them,
    so each tick gathers their minibatches into one ``(A, b, d + 1)``
    array, and their one-hot labels from a table of the stack's rows by
    the same positions, and runs :func:`_descend` once over the leading
    fit axis, with ``np.matmul``, which multiplies each fit's minibatch by
    the same gemm as ``ndarray.dot``. A fit's shorter last minibatch, and
    a single fit, keep the 2-D body: one fit of 2,400 rows took 3.9 ms
    through the stacked body and 1.8 ms through the 2-D one. An epoch
    holds the permuted row positions of every fit, laid out tick by tick,
    not their rows, and not the other epochs' orders: each fit's
    generator draws them again, epoch by epoch.
    """
    if len(fits) < 2:  # no fit, or one through the 2-D body
        return [fit(base, training_rows(stack, keep, labels[keep]), cfg, False, rng)
                for keep, rng in fits]
    kept = [(stack.first[keep], stack.counts[keep]) for keep, _ in fits]
    sizes = [int(counts.sum()) for _, counts in kept]
    ranked = sorted(range(len(fits)), key=lambda i: -sizes[i])
    size = cfg.minibatch_size
    full = np.array([sizes[i] for i in ranked]) // size  # full minibatches per fit
    active = (full > np.arange(full[0])[:, None]).sum(axis=1).tolist()  # fits per tick
    starts = size * np.concatenate([[0], np.cumsum(active, dtype=np.intp)])  # each tick's rows
    k, D = base.weights.shape
    W = np.repeat(base.weights[None], len(fits), axis=0)
    scaled = np.zeros((len(fits), 2, k, D))  # each fit's [velocity; grad]
    factor = np.full(scaled.shape, cfg.momentum, dtype=float)
    rows = stack.rows
    # Held as int32 where they fit, half of intp's memory; each tick copies
    # its own into an intp array, which numpy's gathers take as it is.
    narrow = np.int32 if len(rows) <= np.iinfo(np.int32).max else np.intp
    positions = np.empty(starts[-1], dtype=narrow)
    # One one-hot row per row of the stack, set on the rows of some fit.
    onehot = np.zeros((len(rows), k))
    used = np.zeros(len(stack), dtype=bool)
    for keep, _ in fits:
        used[keep] = True
    index, y, _ = training_rows(stack, used, labels[used])
    onehot[index] = np.take(np.eye(k), y, axis=0)
    X, Y = np.empty((len(fits), size, D)), np.empty((len(fits), size, k))
    tick_positions = np.empty((len(fits), size), dtype=np.intp)

    def state(at) -> tuple:
        return (W[at], np.swapaxes(W[at], -1, -2), scaled[at], factor[at],
                scaled[at][..., 0, :, :], scaled[at][..., 1, :, :])

    by_count = {A: (tick_positions[:A], ((X[:A], Y[:A], *_minibatch_work(size, k, (A,))),),
                    state(slice(A))) for A in set(active)}  # the views of a tick of A fits
    ticks = [(positions[s:e].reshape(A, size), *by_count[A])
             for s, e, A in zip(starts[:-1].tolist(), starts[1:].tolist(), active)]
    short = {}  # the arrays of a last minibatch of r rows
    take_rows, take_onehot, matmul, copyto = rows.take, onehot.take, np.matmul, np.copyto
    for epoch in range(cfg.epochs):
        factor[:, 1] = cfg.learning_rate * cfg.lr_decay_gamma**epoch
        tails = []
        for j, i in enumerate(ranked):
            index = _row_positions(*kept[i])
            order = fits[i][1].permutation(len(index))
            cut = int(full[j]) * size
            at = (starts[: int(full[j])] + j * size)[:, None] + np.arange(size)
            positions[at.ravel()] = index[order[:cut]]
            if cut < len(index):
                tails.append((j, index[order[cut:]]))
        for held, P, batch, views in ticks:
            copyto(P, held)
            take_rows(P, axis=0, out=batch[0][0], mode="clip")
            take_onehot(P, axis=0, out=batch[0][1], mode="clip")
            _descend(batch, matmul, views)
        for j, P in tails:
            if len(P) not in short:
                short[len(P)] = (np.empty((len(P), D)), np.empty((len(P), k)),
                                 *_minibatch_work(len(P), k))
            Xs, Ys, *work = short[len(P)]
            take_rows(P, axis=0, out=Xs, mode="clip")
            take_onehot(P, axis=0, out=Ys, mode="clip")
            _descend([(Xs, Ys, *work)], _dot, state(j))
    if not np.isfinite(W).all():
        raise DivergenceError("the fit diverged to non-finite weights: lower learning_rate")
    models = [None] * len(fits)
    for j, i in enumerate(ranked):
        models[i] = LearnerModel(weights=W[j].copy())
    return models


@np.errstate(over="ignore", invalid="ignore")
def _predict_rows(weights: np.ndarray, rows: np.ndarray, alone=None) -> np.ndarray:
    """The predictions of ``rows``, those at the positions ``alone`` each
    multiplied as a single row. Overflow and invalid warnings are off:
    finite weights whose logits overflow predict NaN, which raises one
    :class:`DivergenceError`."""
    Z = rows @ weights.T
    if alone is not None and len(alone):
        Z[alone] = np.matmul(rows[alone][:, None, :], weights.T)[:, 0]
    probs = _softmax_rows(Z)
    total = row_sum(probs)
    if not np.isfinite(total).all():
        raise DivergenceError("the fit diverged to weights that predict no finite probability: "
                              "lower learning_rate")
    # Not a no-op: with three or more classes this second division moves
    # probabilities, and so the audit's scores, in their last bits.
    probs /= total[:, None]
    return probs


def predict_features(model: LearnerModel, X) -> np.ndarray:
    """Row-stochastic class probabilities for a feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ShapeError(f"expected (m, {model.feature_dim}) features, got {X.shape}")
    return _predict_rows(model.weights, _augment(X))


def predict(model: LearnerModel, candidate: Candidate) -> np.ndarray:
    """Prediction matrix over a candidate's patches."""
    return predict_features(model, candidate.features)


def _row_positions(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions of runs of rows, run after run: run i is ``counts[i]``
    rows from position ``first[i]`` on."""
    # Row r is row (first + r - offset) of its run, where offset is where
    # that run starts among the rows.
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return shift + np.arange(len(shift))


def predicted_rows(
    model: LearnerModel, stack: CandidateStack, keep: np.ndarray | None = None
) -> np.ndarray:
    """The predictions of the patch rows of the candidates that ``keep``
    selects (a mask or positions; all when None), each row with the bits
    ``predict`` gives it. With no ``keep``, or from 3/4 of ``stack.rows``
    on, an ``(R, k)`` array of every row, predicted where it lies, which
    serves any kept set; below that, an ``(r, k)`` array of the kept
    candidates' gathered rows, candidate after candidate, which serves
    that kept set alone."""
    first, counts = stack.first, stack.counts
    if keep is not None:
        first, counts = first[keep], counts[keep]
    if not len(counts):
        return np.zeros((0, model.num_classes))
    if stack.rows.shape[1] != model.weights.shape[1]:
        d = stack.rows.shape[1] - 1
        raise ShapeError(f"expected (m, {model.feature_dim}) features, got (m, {d})")
    if keep is None or 4 * counts.sum() >= 3 * len(stack.rows):
        rows, at, counts = stack.rows, stack.first, stack.counts
    else:
        rows = np.take(stack.rows, _row_positions(first, counts), axis=0)
        at = np.cumsum(counts) - counts  # where each kept candidate's rows start in rows
    return _predict_rows(model.weights, rows, at[counts == 1])


def stacked_predictions(
    predicted: np.ndarray, stack: CandidateStack, keep: np.ndarray | None = None
) -> np.ndarray:
    """Prediction matrices of the candidates that ``keep`` selects, in
    their order, gathered (nothing is predicted) from ``predicted``, as
    :func:`predicted_rows` gives it for this kept set or in its ``(R, k)``
    form: one ``(n, M, k)`` array, M the largest patch count among them,
    whose ``P[i, :counts[i]]`` is ``predict(model, candidates[i])`` and
    whose slots past a count are +0.0. Rows that are all of ``predicted``
    in order are not gathered, and equal counts reshape them."""
    first, counts = stack.first, stack.counts
    if keep is not None:
        first, counts = first[keep], counts[keep]
    if not len(counts):
        return np.zeros((0, 0, predicted.shape[1]))
    runs = np.cumsum(counts) - counts
    first = runs if len(predicted) != len(stack.rows) else first  # the kept rows alone, or all
    n, M = len(counts), int(counts.max())
    P = predicted
    if counts.sum() < len(P) or not np.array_equal(first, runs):
        P = np.take(P, _row_positions(first, counts), axis=0)
    if counts.min() == M:
        return P.reshape(n, M, -1)
    out = np.zeros((n, M, P.shape[1]))
    # Candidate i's slots start at row i * M of the array's (n * M, k) view.
    out.reshape(n * M, -1)[_row_positions(np.arange(n) * M, counts)] = P
    return out


def stacked_probabilities(
    predicted: np.ndarray, stack: CandidateStack, keep: np.ndarray | None = None
) -> np.ndarray:
    """Candidate-level class probabilities, one row per candidate that
    ``keep`` selects, gathered as :func:`stacked_predictions` gathers
    them: the column means of each candidate's prediction matrix."""
    counts = stack.counts if keep is None else stack.counts[keep]
    # The patch axis is summed left to right, so the +0.0 slots past a
    # candidate's count leave its sum the sum of its own rows, and the
    # quotient its mean(axis=0) to the bit.
    return patch_sum(stacked_predictions(predicted, stack, keep)) / counts[:, None]


def training_rows(
    stack: CandidateStack, keep: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training data of the stack's candidates at the true positions of
    ``keep``, labeled ``y``, one int label per kept candidate in stack
    order, in the form :func:`fit` takes: ``(index, y_rows, stack.rows)``.
    ``index`` holds the positions in ``stack.rows`` of those candidates'
    ``R`` patch rows, in stack order, and ``y_rows`` their ``(R,)``
    labels: every patch of a candidate gets its label. No row is
    copied."""
    counts = stack.counts[keep]
    return _row_positions(stack.first[keep], counts), np.repeat(y, counts), stack.rows


def collect_patches(
    candidates: Iterable[Candidate], labels: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack all patches of the candidates with their inherited labels:
    every patch of a candidate gets ``labels[candidate.id]``."""
    stack = stack_candidates(candidates)
    try:
        y = np.array([labels[cid] for cid in stack.ids], dtype=int)
    except KeyError as err:
        raise InvariantError(f"candidate {shown(err.args[0])} has no label for training") from None
    index, y, rows = training_rows(stack, np.ones(len(stack), dtype=bool), y)
    return rows[index, :-1], y
