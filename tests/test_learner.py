import numpy as np
import pytest

import aftstar.learner as learner_mod
from aftstar.datagen import load_csv, write_csv
from aftstar.errors import ConfigError, InvariantError, ShapeError
from aftstar.learner import (
    LearnerModel,
    TrainConfig,
    _augment,
    collect_patches,
    fit,
    loss_and_gradient,
    patch_sum,
    predict,
    predict_features,
    predicted_rows,
    pretrain_m0,
    row_sum,
    stacked_predictions,
    stacked_probabilities,
    training_rows,
)
from aftstar.pool import Candidate, CandidateStack, stack_candidates

from oracles import kept_stack, predicted_one_by_one, spread_values


def blob_data(rng, n_per_class=40, d=4, separation=4.0):
    """Two linearly separable clusters."""
    X0 = rng.normal(0.0, 0.5, size=(n_per_class, d))
    X1 = rng.normal(0.0, 0.5, size=(n_per_class, d))
    X0[:, 0] -= separation / 2
    X1[:, 0] += separation / 2
    X = np.vstack([X0, X1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def fit_data(X, y):
    """``fit``'s data form for a plain feature matrix: every row, in order."""
    return np.arange(len(X)), y, _augment(X)


def make_candidate(cid="c", m=3, d=4, seed=0, label=0):
    rng = np.random.default_rng(seed)
    return Candidate(id=cid, features=rng.random((m, d)), true_label=label)


# --- pretraining ------------------------------------------------------------

def test_pretrain_without_data_is_near_uniform():
    cfg = TrainConfig()
    rng = np.random.default_rng(0)
    model = pretrain_m0(None, cfg, rng, feature_dim=6, num_classes=3)
    P = predict_features(model, np.random.default_rng(1).normal(size=(20, 6)))
    assert np.abs(P - 1.0 / 3.0).max() < 0.15


def test_pretrain_requires_dims_without_data():
    with pytest.raises(ConfigError):
        pretrain_m0(None, TrainConfig(), np.random.default_rng(0))


def test_pretrain_on_separable_blobs_fits_them():
    rng = np.random.default_rng(5)
    X, y = blob_data(rng)
    model = pretrain_m0((X, y), TrainConfig(), np.random.default_rng(7))
    pred = predict_features(model, X).argmax(axis=1)
    assert (pred == y).mean() >= 0.99


def test_pretrain_deterministic_under_seed():
    a = pretrain_m0(None, TrainConfig(), np.random.default_rng(3), feature_dim=4, num_classes=2)
    b = pretrain_m0(None, TrainConfig(), np.random.default_rng(3), feature_dim=4, num_classes=2)
    assert np.array_equal(a.weights, b.weights)


def test_pretrain_rejects_non_finite():
    X = np.array([[1.0, np.inf]])
    with pytest.raises(ShapeError):
        pretrain_m0((X, np.array([0])), TrainConfig(), np.random.default_rng(0))


# --- fit --------------------------------------------------------------------

def test_fit_moves_predictions_toward_labels():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 4))
    y = np.zeros(30, dtype=int)
    base = pretrain_m0(None, TrainConfig(), np.random.default_rng(0), feature_dim=4, num_classes=2)
    before = predict_features(base, X)[:, 0].mean()
    model = fit(base, fit_data(X, y), TrainConfig(), warm=False, rng=np.random.default_rng(1))
    after = predict_features(model, X)[:, 0].mean()
    assert after > before


def test_cold_fit_deterministic():
    rng = np.random.default_rng(2)
    X, y = blob_data(rng, n_per_class=20)
    base = pretrain_m0(None, TrainConfig(), np.random.default_rng(0), feature_dim=4, num_classes=2)
    data = fit_data(X, y)
    m1 = fit(base, data, TrainConfig(), warm=False, rng=np.random.default_rng(5))
    m2 = fit(base, data, TrainConfig(), warm=False, rng=np.random.default_rng(5))
    assert np.array_equal(m1.weights, m2.weights)


def test_warm_factor_one_equals_cold_fit_from_same_base():
    rng = np.random.default_rng(2)
    X, y = blob_data(rng, n_per_class=15)
    cfg = TrainConfig(finetune_lr_factor=1.0)
    base = pretrain_m0(None, cfg, np.random.default_rng(0), feature_dim=4, num_classes=2)
    data = fit_data(X, y)
    warm = fit(base, data, cfg, warm=True, rng=np.random.default_rng(9))
    cold = fit(base, data, cfg, warm=False, rng=np.random.default_rng(9))
    assert np.abs(warm.weights - cold.weights).max() < 1e-12


def sgd_reference(weights, X, y, cfg, lr0, rng):
    """The SGD loop that fancy-indexed every minibatch out of the unpermuted
    data and applied the residual by index; ``fit`` must match it bit for bit."""
    W = weights.copy()
    velocity = np.zeros_like(W)
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    n = X.shape[0]
    for epoch in range(cfg.epochs):
        lr = lr0 * cfg.lr_decay_gamma**epoch
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start : start + cfg.minibatch_size]
            Xb, yb = Xa[idx], y[idx]
            Z = Xb @ W.T
            expz = np.exp(Z - Z.max(axis=1, keepdims=True))
            delta = expz / expz.sum(axis=1, keepdims=True)
            delta[np.arange(len(idx)), yb] -= 1.0
            grad = delta.T @ Xb / len(idx)
            velocity = cfg.momentum * velocity - lr * grad
            W = W + velocity
    return W


@pytest.mark.parametrize("num_classes", [2, 3, 9])
@pytest.mark.parametrize("warm", [True, False])
# One row; below, equal to, multiple of, and not a multiple of 32; and a last
# minibatch of one row, which numpy multiplies as a matrix-vector product.
@pytest.mark.parametrize("n", [1, 20, 32, 96, 75, 33])
def test_fit_weights_equal_the_fancy_indexing_reference(num_classes, warm, n):
    rng = np.random.default_rng(100 * num_classes + n)
    d = 6
    X = rng.normal(scale=2.0, size=(n, d))
    y = rng.integers(0, num_classes, size=n)
    cfg = TrainConfig(minibatch_size=32)
    base = LearnerModel(weights=rng.normal(scale=0.3, size=(num_classes, d + 1)))
    model = fit(base, fit_data(X, y), cfg, warm, np.random.default_rng(n))
    lr0 = cfg.learning_rate * (cfg.finetune_lr_factor if warm else 1.0)
    expected = sgd_reference(base.weights, X, y, cfg, lr0, np.random.default_rng(n))
    assert np.array_equal(model.weights, expected)


# Whole-number settings given as ints, as a JSON config may give them.
INT_CONFIGS = [
    TrainConfig(momentum=0),
    TrainConfig(momentum=0, lr_decay_gamma=1, finetune_lr_factor=1, minibatch_size=7),
]


@pytest.mark.parametrize("cfg", INT_CONFIGS)
@pytest.mark.parametrize("warm", [True, False])
def test_fit_with_int_settings_equals_the_reference(cfg, warm):
    rng = np.random.default_rng(7)
    X = rng.normal(scale=2.0, size=(75, 6))
    y = rng.integers(0, 3, size=75)
    base = LearnerModel(weights=rng.normal(scale=0.3, size=(3, 7)))
    model = fit(base, fit_data(X, y), cfg, warm, np.random.default_rng(3))
    lr0 = cfg.learning_rate * (cfg.finetune_lr_factor if warm else 1.0)
    expected = sgd_reference(base.weights, X, y, cfg, lr0, np.random.default_rng(3))
    assert not np.array_equal(model.weights, base.weights)
    assert np.array_equal(model.weights, expected)


def assert_pretrain_equals_the_reference(X, y, cfg, num_classes):
    model = pretrain_m0((X, y), cfg, np.random.default_rng(6), num_classes=num_classes)
    rng = np.random.default_rng(6)
    start = rng.uniform(-0.01, 0.01, size=(num_classes, X.shape[1] + 1))
    expected = sgd_reference(start, X, y, cfg, cfg.learning_rate, rng)
    assert not np.array_equal(model.weights, start)
    assert np.array_equal(model.weights, expected)


@pytest.mark.parametrize("cfg", INT_CONFIGS)
def test_pretrain_with_int_settings_equals_the_reference(cfg):
    X, y = blob_data(np.random.default_rng(5), n_per_class=20)
    assert_pretrain_equals_the_reference(X, y, cfg, 2)


@pytest.mark.parametrize("num_classes", [3, 9])
@pytest.mark.parametrize("cfg", [TrainConfig(), *INT_CONFIGS])
def test_pretrain_on_more_classes_equals_the_reference(cfg, num_classes):
    # 75 rows: a shorter last minibatch at both minibatch sizes.
    rng = np.random.default_rng(num_classes)
    X = rng.normal(scale=2.0, size=(75, 6))
    y = rng.integers(0, num_classes, size=75)
    assert_pretrain_equals_the_reference(X, y, cfg, num_classes)


def ragged_training_subset(n, num_classes, seed, d=6):
    """A stack of ragged candidates and a non-contiguous ``keep`` of them
    holding exactly ``n`` patch rows: each kept candidate (1 to 5 patches,
    the last one cut to fit) follows an unkept one (1 to 4 patches), and
    every candidate's label, in stack order."""
    rng = np.random.default_rng(seed)
    candidates, keep, labels, rows = [], [], [], 0
    while rows < n:
        sizes = (int(rng.integers(1, 5)), min(int(rng.integers(1, 6)), n - rows))
        for kept, m in zip((False, True), sizes):
            cid = f"c{len(candidates)}"
            candidates.append(Candidate(id=cid, features=rng.normal(scale=2.0, size=(m, d))))
            keep.append(kept)
            labels.append(int(rng.integers(0, num_classes)))
            rows += m if kept else 0
    return stack_candidates(candidates), np.array(keep), np.array(labels)


@pytest.mark.parametrize("num_classes", [2, 3, 5, 9])
@pytest.mark.parametrize(
    "size, n",
    # n at, around and between multiples of the minibatch size, and one row.
    [(1, 1), (1, 2), (1, 3), (7, 1), (7, 6), (7, 7), (7, 8), (7, 13), (7, 14), (7, 15),
     (32, 1), (32, 31), (32, 32), (32, 33), (32, 63), (32, 64), (32, 65), (32, 75)],
)
def test_fit_over_stack_positions_equals_the_reference_on_gathered_rows(num_classes, size, n):
    stack, keep, labels = ragged_training_subset(n, num_classes, seed=1000 * num_classes + n)
    index, y, rows = training_rows(stack, keep, labels[keep])
    assert len(index) == n and index[0] > 0 and len(stack.rows) > n  # rows skipped before each run
    cfg = TrainConfig(minibatch_size=size)
    rng = np.random.default_rng(size + n)
    base = LearnerModel(weights=rng.normal(scale=0.3, size=(num_classes, rows.shape[1])))
    model = fit(base, (index, y, rows), cfg, False, np.random.default_rng(n))
    X = rows[index][:, :-1]
    expected = sgd_reference(base.weights, X, y, cfg, cfg.learning_rate, np.random.default_rng(n))
    assert np.array_equal(model.weights, expected)


def test_fit_reads_its_rows_and_never_writes_them():
    stack, keep, labels = ragged_training_subset(40, 3, seed=4)
    index, y, rows = training_rows(stack, keep, labels[keep])
    assert not rows.flags.writeable  # the stack's rows are read-only
    before = rows.copy()
    base = LearnerModel(weights=np.random.default_rng(4).normal(size=(3, rows.shape[1])))
    model = fit(base, (index, y, rows), TrainConfig(), True, np.random.default_rng(4))
    assert rows.tobytes() == before.tobytes()
    writable = rows.copy()
    again = fit(base, (index, y, writable), TrainConfig(), True, np.random.default_rng(4))
    assert writable.tobytes() == before.tobytes()
    assert np.array_equal(again.weights, model.weights)


@pytest.mark.parametrize("seed", range(4))
def test_training_rows_positions_select_the_candidates_rows(seed):
    candidates = ragged_candidates(seed)
    labels = np.arange(len(candidates)) % 3
    stack = stack_candidates(candidates)
    keep = np.random.default_rng(seed).random(len(candidates)) < 0.5
    index, y, rows = training_rows(stack, keep, labels[keep])
    chosen = [c for c, k in zip(candidates, keep) if k]
    # The rows the gather into a new array gave: each chosen candidate's
    # augmented patches, in stack order.
    gathered = np.concatenate([_augment(c.features) for c in chosen])
    assert rows is stack.rows and index.dtype.kind == "i"
    assert rows[index].tobytes() == gathered.tobytes()
    assert y.tolist() == [
        label for c, label in zip(chosen, labels[keep]) for _ in range(len(c.features))
    ]


def test_loss_decreases_in_expectation():
    X, y = blob_data(np.random.default_rng(13), n_per_class=25)
    Xa = _augment(X)
    initial, final = [], []
    for seed in range(10):
        base = pretrain_m0(None, TrainConfig(), np.random.default_rng(seed), feature_dim=4, num_classes=2)
        model = fit(
            base, fit_data(X, y), TrainConfig(), warm=False, rng=np.random.default_rng(seed + 100)
        )
        initial.append(loss_and_gradient(base.weights, Xa, y)[0])
        final.append(loss_and_gradient(model.weights, Xa, y)[0])
    assert np.mean(final) < np.mean(initial)


# --- gradient check ---------------------------------------------------------

def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(20):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 21))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        W = rng.normal(scale=0.5, size=(k, d + 1))
        Xa = _augment(X)
        _, grad = loss_and_gradient(W, Xa, y)
        numeric = np.zeros_like(W)
        for i in range(k):
            for j in range(d + 1):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                lp, _ = loss_and_gradient(Wp, Xa, y)
                lm, _ = loss_and_gradient(Wm, Xa, y)
                numeric[i, j] = (lp - lm) / (2 * h)
        denom = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(grad - numeric).max() / denom < 1e-4


# --- predict ----------------------------------------------------------------

def test_predict_zero_weights_uniform():
    model = LearnerModel(weights=np.zeros((3, 5)))
    P = predict(model, make_candidate(d=4))
    assert np.abs(P - 1.0 / 3.0).max() == 0.0


def test_predict_rows_sum_to_one():
    rng = np.random.default_rng(3)
    model = LearnerModel(weights=rng.normal(scale=5.0, size=(4, 7)))
    P = predict_features(model, rng.normal(scale=10.0, size=(50, 6)))
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    assert (P >= 0).all()


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 1000])
def test_row_reductions_equal_numpy_to_the_bit(k, n):
    rng = np.random.default_rng(100 * k + n)
    Z = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-8, 9, size=(n, k))
    Z[rng.random((n, k)) < 0.2] = -0.0
    Z[rng.random((n, k)) < 0.1] = 0.0
    Z[0] = -0.0  # numpy sums a row of -0.0 to +0.0
    if n > 1:
        Z[1, ::2] = 0.0
        Z[1, 1::2] = -0.0
    for A in (Z, np.asfortranarray(Z), Z[::-1], Z[:, ::-1]):
        assert row_sum(A).tobytes() == A.sum(axis=1).tobytes()


def layouts(A):
    """A 3-d array in the memory layouts numpy may iterate differently,
    the last a copy whose middle axis is the contiguous one."""
    patch_contiguous = np.ascontiguousarray(A.transpose(0, 2, 1)).transpose(0, 2, 1)
    return (A, np.asfortranarray(A), A[::-1], A[:, ::-1], A[:, :, ::-1], patch_contiguous)


def assert_patch_sum_bits(B, note):
    """patch_sum(B) adds left to right from +0.0: numpy's sum of B's
    C-ordered copy, and numpy's sum of B itself unless B's middle axis is
    the contiguous one, which numpy sums with several accumulators."""
    got = patch_sum(B).tobytes()
    assert got == np.ascontiguousarray(B).sum(axis=1).tobytes(), note
    if abs(B.strides[1]) != B.itemsize:
        assert got == B.sum(axis=1).tobytes(), note


@pytest.mark.parametrize("k", [2, 3, 9, 32, 64])  # 32 and 64: many classes (ROADMAP item 8)
@pytest.mark.parametrize("n", [1, 5, 70])
def test_patch_sum_equals_numpy_middle_axis_sum_to_the_bit(k, n):
    rng = np.random.default_rng(200 + k + n)
    for m in range(0, 42):
        A = spread_values(rng, (n, m, k))
        for B in layouts(A):
            assert_patch_sum_bits(B, m)
        for pad in (1, 7, 40):  # trailing +0.0 rows, as the padded stacks hold
            padded = np.concatenate([A, np.zeros((n, pad, k))], axis=1)
            assert patch_sum(padded).tobytes() == padded.sum(axis=1).tobytes(), (m, pad)
            assert patch_sum(padded).tobytes() == A.sum(axis=1).tobytes(), (m, pad)
    # numpy starts from +0.0: a column of -0.0 in every row sums to +0.0,
    # among others that do not, and so does a mix of signed zeros.
    for m in (1, 2, 9, 41):
        A = spread_values(rng, (n, m, k))
        A[:, :, 1] = -0.0
        mixed = rng.choice([0.0, -0.0], size=(n, m, k))
        for B in (*layouts(A), *layouts(mixed)):
            assert_patch_sum_bits(B, m)
            assert not np.signbit(patch_sum(B)).any()
        assert not np.signbit(patch_sum(A)[:, 1]).any()


@pytest.mark.parametrize("num_classes", [2, 3, 9])
def test_predict_features_equals_the_numpy_reduction_formula(num_classes):
    rng = np.random.default_rng(num_classes)
    model = LearnerModel(weights=rng.normal(scale=3.0, size=(num_classes, 7)))
    X = rng.normal(scale=5.0, size=(500, 6))
    Z = _augment(X) @ model.weights.T
    Z -= Z.max(axis=1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=1, keepdims=True)
    expected = Z / Z.sum(axis=1, keepdims=True)
    assert predict_features(model, X).tobytes() == expected.tobytes()


def test_predict_dimension_mismatch():
    model = LearnerModel(weights=np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        predict(model, make_candidate(d=3))


def predicted(model, stack, keep=None):
    """The kept candidates' prediction matrices, from their own prediction."""
    return stacked_predictions(predicted_rows(model, stack, keep), stack, keep)


def ragged_candidates(seed, d=5):
    """Candidates with 1 to 40 patches each."""
    rng = np.random.default_rng(seed)
    sizes = [1, 40, 2, 17, 1, 33, 8] + rng.integers(1, 41, size=10).tolist()
    return [
        Candidate(id=f"c{i}", features=rng.normal(scale=2.0, size=(m, d)))
        for i, m in enumerate(sizes)
    ]


@pytest.mark.parametrize("num_classes", [2, 3, 9])
def test_stacked_predictions_equal_per_candidate_predict(num_classes):
    rng = np.random.default_rng(num_classes)
    model = LearnerModel(weights=rng.normal(size=(num_classes, 6)))
    candidates = ragged_candidates(num_classes)
    labels = {c.id: i % num_classes for i, c in enumerate(candidates)}
    y_all = np.arange(len(candidates)) % num_classes  # the labels in stack order
    stack = stack_candidates(candidates)
    assert not stack.rows.flags.writeable  # kept stacks share the rows
    n = len(candidates)
    subsets = {
        "none": np.zeros(n, dtype=bool),
        "one": np.arange(n) == 4,  # a one-patch candidate
        "every other": np.arange(n) % 2 == 1,
        "all": np.ones(n, dtype=bool),
    }
    for name, keep in subsets.items():
        chosen = [c for c, k in zip(candidates, keep) if k]
        sub = kept_stack(stack, keep)
        assert sub.ids == tuple(c.id for c in chosen), name
        P = predicted(model, sub)
        width = max((len(c.features) for c in chosen), default=0)
        assert P.shape == (len(chosen), width, num_classes), name
        for block, c in zip(P, chosen):
            m = len(c.features)
            assert block[:m].tobytes() == predict(model, c).tobytes(), name
            assert block[m:].tobytes() == np.zeros((width - m, num_classes)).tobytes(), name
        index, y, stack_rows = training_rows(stack, keep, y_all[keep])
        sub_index, y_of_subset, sub_rows = training_rows(
            sub, np.ones(len(sub), dtype=bool), y_all[keep]
        )
        assert stack_rows is stack.rows and sub_rows is stack.rows, name  # no row is copied
        rows, rows_of_subset = stack_rows[index], sub_rows[sub_index]
        assert np.array_equal(rows_of_subset, rows) and np.array_equal(y_of_subset, y), name
        assert rows.shape == (sum(len(c.features) for c in chosen), 6), name
        if chosen:
            X, y_collected = collect_patches(chosen, labels)
            assert np.array_equal(rows, _augment(X)), name
            assert np.array_equal(y, y_collected), name
            assert np.array_equal(X, np.concatenate([c.features for c in chosen])), name
        else:
            assert y.shape == (0,), name


def test_stacked_predictions_of_no_candidates_are_empty():
    model = LearnerModel(weights=np.zeros((2, 5)))
    assert predicted(model, stack_candidates([])).shape == (0, 0, 2)


def test_stacked_predictions_of_equal_patch_counts_reshape_the_predicted_rows():
    rng = np.random.default_rng(4)
    model = LearnerModel(weights=rng.normal(size=(2, 6)))
    candidates = [
        Candidate(id=f"c{i}", features=rng.normal(size=(12, 5))) for i in range(30)
    ]
    sub = kept_stack(stack_candidates(candidates), np.arange(30) % 3 > 0)
    P = predicted(model, sub)
    assert P.shape == (20, 12, 2) and P.base is not None  # a view, not a padded copy
    for block, i in zip(P, np.flatnonzero(np.arange(30) % 3 > 0)):
        assert block.tobytes() == predict(model, candidates[i]).tobytes()


def gathered(stack):
    """The same candidates over their rows and one row that no candidate
    has, so that their predictions gather the candidates' rows."""
    rows = np.vstack([stack.rows, np.ones((1, stack.rows.shape[1]))])
    rows.flags.writeable = False
    return CandidateStack(stack.ids, rows, stack.first, stack.counts, stack.true_labels)


def equal_candidates(seed, n=30, m=12, d=5):
    rng = np.random.default_rng(seed)
    return [Candidate(id=f"c{i:02d}", features=rng.normal(size=(m, d))) for i in range(n)]


def descending_pool(candidates, path):
    """The candidates written in descending id order, read back, in id
    order: a split's stack whose rows lie in the reverse candidate order."""
    write_csv(sorted(candidates, key=lambda c: c.id, reverse=True), path)
    return load_csv(path).sorted_by_id()


@pytest.mark.parametrize(
    "shape, num_classes",
    [("in order, equal counts", 2), ("descending file, equal counts", 2),
     ("descending file, ragged", 3), ("ragged with one-patch candidates", 2),
     ("ragged with one-patch candidates", 3), ("ragged with one-patch candidates", 9)],
)
def test_in_place_predictions_equal_the_gathered_ones_to_the_bit(shape, num_classes, tmp_path):
    rng = np.random.default_rng(num_classes)
    model = LearnerModel(weights=rng.normal(size=(num_classes, 6)))
    ragged = "ragged" in shape
    candidates = ragged_candidates(num_classes) if ragged else equal_candidates(num_classes)
    if "descending" in shape:
        stack = descending_pool(candidates, tmp_path / "train.csv")
        assert stack.first.tolist() != sorted(stack.first.tolist())  # the rows are permuted
    else:
        stack = stack_candidates(candidates)
    by_id = {c.id: c for c in candidates}
    P = predicted(model, stack)
    assert P.tobytes() == predicted(model, gathered(stack)).tobytes()
    assert P.shape == (len(candidates), stack.counts.max(), num_classes)
    for block, cid, m in zip(P, stack.ids, stack.counts.tolist()):
        assert block[:m].tobytes() == predict(model, by_id[cid]).tobytes()
        assert not block[m:].any()
    if not ragged and "descending" not in shape:
        assert P.base is not None  # the predicted rows reshaped, with no gather
    n = len(stack)
    widest = stack.counts == stack.counts.max()
    for whole in (stack, gathered(stack)):
        pool = predicted_rows(model, whole)  # every row of whole.rows, where it lies
        assert pool.shape == (len(whole.rows), num_classes)
        for keep in (np.ones(n, dtype=bool), np.zeros(n, dtype=bool), np.arange(n) % 3 == 0,
                     ~widest, stack.counts == 1):
            expected = predicted_one_by_one(model, whole, keep)
            for index in (keep, np.flatnonzero(keep)):  # a mask, or positions
                own = predicted(model, whole, index)
                for got in (own, stacked_predictions(pool, whole, index)):
                    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def spy_on_predicted_rows(monkeypatch):
    """The row arrays that ``_predict_rows`` is called on from then on."""
    calls = []
    real = learner_mod._predict_rows

    def spy(weights, rows, *alone):
        calls.append(rows)
        return real(weights, rows, *alone)

    monkeypatch.setattr(learner_mod, "_predict_rows", spy)
    return calls


def keep_row_share(stack, share, seed):
    """A mask of candidates, drawn in a random order, that hold about
    ``share`` of ``stack.rows``."""
    order = np.random.default_rng(seed).permutation(len(stack))
    held = np.cumsum(stack.counts[order]) <= share * len(stack.rows)
    keep = np.zeros(len(stack), dtype=bool)
    keep[order[held]] = True
    return keep


def test_an_in_order_split_is_predicted_where_its_rows_lie(monkeypatch):
    calls = spy_on_predicted_rows(monkeypatch)
    model = LearnerModel(weights=np.random.default_rng(1).normal(size=(2, 6)))
    for candidates in (equal_candidates(1), ragged_candidates(1)):
        stack = stack_candidates(candidates)
        calls.clear()
        predicted_rows(model, stack)
        assert len(calls) == 1 and calls[0] is stack.rows
        # Kept candidates that hold at least 3/4 of the rows: predicted in place.
        most = keep_row_share(stack, 0.9, seed=1)
        assert 4 * stack.counts[most].sum() >= 3 * len(stack.rows)
        for other, mask in ((stack, most), (kept_stack(stack, most), None), (gathered(stack), most)):
            calls.clear()
            predicted_rows(model, other, mask)
            assert len(calls) == 1 and calls[0] is other.rows
        # Less than that: only the kept rows are gathered and predicted.
        keep = np.arange(len(stack)) % 2 == 0
        assert 4 * stack.counts[keep].sum() < 3 * len(stack.rows)
        for other, mask in ((stack, keep), (gathered(stack), keep)):
            calls.clear()
            predicted_rows(model, other, mask)
            assert len(calls) == 1 and not np.shares_memory(calls[0], other.rows)
            assert len(calls[0]) == stack.counts[keep].sum()
        # With no mask, every row, those no candidate holds included: the
        # (R, k) form, which any kept set of the stack gathers from.
        calls.clear()
        predicted_rows(model, kept_stack(stack, keep))
        assert len(calls) == 1 and calls[0] is stack.rows


def test_three_quarters_of_the_rows_are_predicted_in_place(monkeypatch):
    calls = spy_on_predicted_rows(monkeypatch)
    model = LearnerModel(weights=np.random.default_rng(2).normal(size=(2, 6)))
    stack = stack_candidates(equal_candidates(2, n=4))  # 48 rows
    three = np.array([True, True, False, True])  # 36 rows: 3/4 of 48, not of 49
    for other, in_place in ((stack, True), (gathered(stack), False)):
        calls.clear()
        P = predicted(model, other, three)
        assert len(calls) == 1 and (calls[0] is other.rows) == in_place
        assert P.tobytes() == predicted_one_by_one(model, other, three).tobytes()


@pytest.mark.parametrize("num_classes", [2, 3])
@pytest.mark.parametrize("order", ["in order", "descending ids"])
@pytest.mark.parametrize("share", [0.1, 0.9])
def test_both_sides_of_the_row_share_rule_equal_per_candidate_predict(
    monkeypatch, tmp_path, num_classes, order, share
):
    rng = np.random.default_rng(num_classes)
    model = LearnerModel(weights=rng.normal(size=(num_classes, 6)))
    sizes = [1, 1, 40, 2] + rng.integers(1, 41, size=150).tolist()  # some of one patch
    candidates = [
        Candidate(id=f"c{i:03d}", features=rng.normal(scale=2.0, size=(m, 5)))
        for i, m in enumerate(sizes)
    ]
    if order == "descending ids":
        stack = descending_pool(candidates, tmp_path / "train.csv")
    else:
        stack = stack_candidates(candidates)
    keep = keep_row_share(stack, share, seed=num_classes)
    keep[[0, 1]] = True  # the one-patch candidates c000 and c001
    kept_rows = stack.counts[keep].sum() / len(stack.rows)
    assert abs(kept_rows - share) < 0.05
    calls = spy_on_predicted_rows(monkeypatch)
    expected = predicted_one_by_one(model, stack, keep)
    for index in (keep, np.flatnonzero(keep)):  # a mask, or positions
        calls.clear()
        got = predicted(model, stack, index)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert len(calls) == 1 and (calls[0] is stack.rows) == (share > 0.75)
    by_id = {c.id: c for c in candidates}
    for block, i in zip(got, np.flatnonzero(keep).tolist()):
        m = stack.counts[i]
        assert block[:m].tobytes() == predict(model, by_id[stack.ids[i]]).tobytes()


@pytest.mark.parametrize("num_classes", [2, 3, 9])
@pytest.mark.parametrize("pool", ["one-patch", "mixed"])
def test_one_patch_candidates_keep_predicts_bits_in_one_call(monkeypatch, num_classes, pool):
    rng = np.random.default_rng(num_classes)
    model = LearnerModel(weights=rng.normal(size=(num_classes, 11)))
    sizes = [1] * 600 if pool == "one-patch" else rng.integers(1, 4, size=600).tolist()
    stack = stack_candidates(
        Candidate(id=f"c{i:03d}", features=rng.normal(scale=2.0, size=(m, 10)))
        for i, m in enumerate(sizes)
    )
    calls = spy_on_predicted_rows(monkeypatch)
    # every candidate, predicted in place; every other one, gathered
    for keep in (np.ones(len(stack), dtype=bool), np.arange(len(stack)) % 2 == 0):
        calls.clear()
        got = predicted(model, stack, keep)
        assert len(calls) == 1  # one call, whatever the count of one-patch candidates
        assert got.tobytes() == predicted_one_by_one(model, stack, keep).tobytes()


def test_candidates_of_mixed_feature_dims_are_a_shape_error():
    from aftstar.loop import StopRule, make_strategy, run_experiment

    even = [make_candidate(cid, d=4, seed=i, label=i % 2) for i, cid in enumerate("abcd")]
    odd = even[:2] + [make_candidate("x", d=3, label=0)] + even[2:]
    message = "candidate 'x' has 3 features, candidate 'a' has 4"
    calls = {
        "stack": lambda: stack_candidates(odd),
        "run train/test dims": lambda: run_experiment(
            even, [make_candidate("x", d=3)], make_strategy("RFT", batch_size=1),
            TrainConfig(epochs=1), StopRule(query_budget=1), 1,
        ),
    }
    for split in ("train", "test"):
        data = {"train": even, "test": even, split: odd}
        calls[f"run {split}"] = lambda data=data: run_experiment(
            data["train"], data["test"], make_strategy("RFT", batch_size=1),
            TrainConfig(epochs=1), StopRule(query_budget=1), 1,
        )
    for name, call in calls.items():
        with pytest.raises(ShapeError, match=message):
            call()


# --- candidate probabilities ------------------------------------------------

@pytest.mark.parametrize("num_classes", [2, 3, 9])
def test_stacked_probabilities_are_column_means(num_classes):
    rng = np.random.default_rng(10 + num_classes)
    model = LearnerModel(weights=rng.normal(size=(num_classes, 6)))
    candidates = ragged_candidates(num_classes)
    stack = stack_candidates(candidates)
    pool = predicted_rows(model, stack)
    probs = stacked_probabilities(pool, stack)
    assert probs.shape == (len(candidates), num_classes)
    for row, c in zip(probs, candidates):
        assert row.tobytes() == predict(model, c).mean(axis=0).tobytes()
    keep = np.arange(len(candidates)) % 3 != 2  # keeps both one-patch candidates
    chosen = [c for c, k in zip(candidates, keep) if k]
    for index in (keep, np.flatnonzero(keep)):  # a mask, or positions
        for own in (predicted_rows(model, stack, index), pool):
            for row, c in zip(stacked_probabilities(own, stack, index), chosen):
                assert row.tobytes() == predict(model, c).mean(axis=0).tobytes()
    zero = LearnerModel(weights=np.zeros((num_classes, 6)))
    uniform = stacked_probabilities(predicted_rows(zero, stack), stack)
    assert np.abs(uniform - 1.0 / num_classes).max() < 1e-15
    empty = stack_candidates([])
    assert stacked_probabilities(predicted_rows(model, empty), empty).shape == (0, num_classes)


# --- patch collection -------------------------------------------------------

def test_collect_patches_inherits_labels():
    c1 = make_candidate("a", m=2, d=3, seed=1)
    c2 = make_candidate("b", m=3, d=3, seed=2)
    X, y = collect_patches([c1, c2], {"a": 1, "b": 0})
    assert X.shape == (5, 3)
    assert y.tolist() == [1, 1, 0, 0, 0]


def test_collect_patches_label_map_overrides():
    c = make_candidate("a", m=2, d=3)
    X, y = collect_patches([c], labels={"a": 1})
    assert y.tolist() == [1, 1]


def test_collect_patches_requires_labels():
    c = make_candidate("a")
    with pytest.raises(InvariantError):
        collect_patches([c], {})


def test_an_over_long_unlabeled_id_is_cut_in_its_error():
    c = make_candidate("a" * 5000)
    with pytest.raises(InvariantError, match=r"\(5000 characters\) has no label") as err:
        collect_patches([c], {})
    assert len(str(err.value)) < 200


# --- config -----------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_decay_gamma=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(minibatch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(finetune_lr_factor=0.0)
