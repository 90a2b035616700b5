import numpy as np
import pytest

from aftstar.errors import ConfigError, InvariantError, ShapeError
from aftstar.learner import (
    LearnerModel,
    TrainConfig,
    _augment,
    candidate_probabilities,
    collect_patches,
    fit,
    loss_and_gradient,
    predict,
    predict_all,
    predict_features,
    pretrain_m0,
)
from aftstar.pool import Candidate


def blob_data(rng, n_per_class=40, d=4, separation=4.0):
    """Two linearly separable clusters."""
    X0 = rng.normal(0.0, 0.5, size=(n_per_class, d))
    X1 = rng.normal(0.0, 0.5, size=(n_per_class, d))
    X0[:, 0] -= separation / 2
    X1[:, 0] += separation / 2
    X = np.vstack([X0, X1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


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
    model = fit(base, (X, y), TrainConfig(), warm=False, rng=np.random.default_rng(1))
    after = predict_features(model, X)[:, 0].mean()
    assert after > before


def test_fit_empty_data_rejected():
    base = pretrain_m0(None, TrainConfig(), np.random.default_rng(0), feature_dim=4, num_classes=2)
    with pytest.raises(InvariantError):
        fit(base, (np.zeros((0, 4)), np.zeros(0, dtype=int)), TrainConfig(), True, np.random.default_rng(0))


def test_cold_fit_deterministic():
    rng = np.random.default_rng(2)
    X, y = blob_data(rng, n_per_class=20)
    base = pretrain_m0(None, TrainConfig(), np.random.default_rng(0), feature_dim=4, num_classes=2)
    m1 = fit(base, (X, y), TrainConfig(), warm=False, rng=np.random.default_rng(5))
    m2 = fit(base, (X, y), TrainConfig(), warm=False, rng=np.random.default_rng(5))
    assert np.array_equal(m1.weights, m2.weights)


def test_warm_factor_one_equals_cold_fit_from_same_base():
    rng = np.random.default_rng(2)
    X, y = blob_data(rng, n_per_class=15)
    cfg = TrainConfig(finetune_lr_factor=1.0)
    base = pretrain_m0(None, cfg, np.random.default_rng(0), feature_dim=4, num_classes=2)
    warm = fit(base, (X, y), cfg, warm=True, rng=np.random.default_rng(9))
    cold = fit(base, (X, y), cfg, warm=False, rng=np.random.default_rng(9))
    assert np.abs(warm.weights - cold.weights).max() < 1e-12


def test_loss_decreases_in_expectation():
    X, y = blob_data(np.random.default_rng(13), n_per_class=25)
    initial, final = [], []
    for seed in range(10):
        base = pretrain_m0(None, TrainConfig(), np.random.default_rng(seed), feature_dim=4, num_classes=2)
        model = fit(base, (X, y), TrainConfig(), warm=False, rng=np.random.default_rng(seed + 100))
        initial.append(loss_and_gradient(base.weights, _augment(X), y)[0])
        final.append(loss_and_gradient(model.weights, _augment(X), y)[0])
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


def test_predict_dimension_mismatch():
    model = LearnerModel(weights=np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        predict(model, make_candidate(d=3))


def ragged_candidates(seed, d=5):
    """Candidates with 1 to 40 patches each."""
    rng = np.random.default_rng(seed)
    sizes = [1, 40, 2, 17, 1, 33, 8] + rng.integers(1, 41, size=10).tolist()
    return [
        Candidate(id=f"c{i}", features=rng.normal(scale=2.0, size=(m, d)))
        for i, m in enumerate(sizes)
    ]


@pytest.mark.parametrize("num_classes", [2, 3])
def test_predict_all_equals_per_candidate_predict(num_classes):
    rng = np.random.default_rng(num_classes)
    model = LearnerModel(weights=rng.normal(size=(num_classes, 6)))
    candidates = ragged_candidates(num_classes)
    blocks = predict_all(model, candidates)
    assert len(blocks) == len(candidates)
    for P, c in zip(blocks, candidates):
        assert np.array_equal(P, predict(model, c))


def test_predict_all_of_no_candidates_is_empty():
    assert predict_all(LearnerModel(weights=np.zeros((2, 5))), []) == []


# --- candidate probabilities ------------------------------------------------

@pytest.mark.parametrize("num_classes", [2, 3])
def test_candidate_probabilities_are_column_means(num_classes):
    rng = np.random.default_rng(10 + num_classes)
    model = LearnerModel(weights=rng.normal(size=(num_classes, 6)))
    candidates = ragged_candidates(num_classes)
    probs = candidate_probabilities(model, candidates)
    assert probs.shape == (len(candidates), num_classes)
    for row, c in zip(probs, candidates):
        assert np.array_equal(row, predict(model, c).mean(axis=0))
    uniform = candidate_probabilities(LearnerModel(weights=np.zeros((num_classes, 6))), candidates)
    assert np.abs(uniform - 1.0 / num_classes).max() < 1e-15
    assert candidate_probabilities(model, []).shape == (0, num_classes)


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
