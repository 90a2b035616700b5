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
one multiply of the two stacked in one array, by a factor array of
that same full shape, so the multiply broadcasts nothing. Each
minibatch's row count is a 0-d float array, so dividing the gradient by
it converts no Python number. Every operation runs in the same order,
so the weights are those of the unbuffered loop to the bit.

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

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

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


def _softmax_rows(
    Z: np.ndarray, columns: list[np.ndarray] | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax, computed in place in ``Z`` (a fresh or a work array).

    Below 8 classes the row maximum, its subtraction, the row sum and
    the division run over whole columns: ``columns``, Z's column views,
    made here unless given. The maximum takes ``np.maximum`` over them
    left to right. The sum adds them left to
    right as :func:`row_sum` does, but without its +0.0 start, which
    changes nothing here: exp gives no -0.0. ``work``, one entry per row,
    takes the maxima and then the sums. From 8 classes on, the maximum
    and the sum are numpy's own reductions. Two columns take the same
    operations in the same order, written out without the loops, for the
    fit's two-class minibatches.
    """
    if Z.shape[1] >= _COLUMNWISE_LIMIT:
        top = Z.max(axis=1, out=work)
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
    minibatch slices of them. Each minibatch runs the softmax, the
    residual ``probs - Y``, the mean gradient and the momentum update,
    always in that order. Every view, work array and transpose the
    minibatches use is made once per call: one set for the full
    minibatches and one for the shorter last one. The momentum and the
    learning rate scale the velocity and the gradient in one multiply of
    the stacked ``[velocity; grad]`` by ``[momentum; lr]``, a float array
    of the same ``(2, k, d + 1)`` shape whose lr half is set once per
    epoch. The gradient is divided by its minibatch's row count held as a
    0-d float64 array. On one Xeon core with numpy 2.4.6, on a two-class
    minibatch of 32 rows, the full-shape factor took 0.28 us a multiply
    where a ``(2, 1, 1)`` one, broadcast, took 0.77-0.80 us, and the 0-d
    divisor 0.27 us a division where a Python float took 0.45-0.48 us.
    It runs with numpy's overflow and invalid warnings off: a fit whose
    weights end up non-finite raises one :class:`DivergenceError`.
    """
    W = weights.copy()
    W_T = W.T
    k = W.shape[0]
    scaled = np.zeros((2, *W.shape))  # [velocity; grad]
    velocity, grad = scaled
    # A float array whatever the config's number types: an int momentum
    # would make an int array, which truncates the learning rate to 0.
    factor = np.full(scaled.shape, cfg.momentum, dtype=float)
    Y = np.take(np.eye(k), y, axis=0)
    n = len(index)
    size = cfg.minibatch_size
    Xp, Yp = np.empty((n, rows.shape[1])), np.empty_like(Y)
    work = {}
    for b in {min(size, n), n % size} - {0}:
        Z = np.empty((b, k))
        # The row count as a 0-d float array, which numpy divides by
        # without converting a Python number on every call.
        work[b] = (np.array(float(b)), Z, Z.T, [Z[:, j] for j in range(k)], np.empty(b))
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
