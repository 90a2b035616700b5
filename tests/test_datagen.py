import math

import numpy as np
import pytest

from aftstar.criteria import CriteriaConfig, score_candidate
from aftstar.datagen import (
    DatagenConfig,
    class_counts,
    generate,
    infer_num_classes,
    load_csv,
    load_dataset,
    standard_benchmark,
    write_csv,
    write_dataset,
)
from aftstar.errors import ConfigError, DatasetFormatError
from aftstar.learner import TrainConfig, collect_patches, predict, pretrain_m0


def small_config(**overrides):
    base = dict(
        num_classes=2,
        class_weights=(0.2, 0.8),
        train_candidates=100,
        test_candidates=20,
        patches_per_candidate=12,
        feature_dim=10,
        ambiguous_fraction=0.25,
        ambiguous_patch_fraction=0.25,
        seed=1,
    )
    base.update(overrides)
    return DatagenConfig(**base)


# --- config validation ------------------------------------------------------

def test_config_rejects_low_dimension():
    with pytest.raises(ConfigError):
        small_config(num_classes=3, class_weights=(0.3, 0.3, 0.4), feature_dim=1)


def test_config_rejects_bad_weights():
    with pytest.raises(ConfigError):
        small_config(class_weights=(0.5, 0.6))
    with pytest.raises(ConfigError):
        small_config(class_weights=(0.2,))


# --- generation -------------------------------------------------------------

def test_shapes_and_counts():
    train, test, meta = generate(small_config())
    assert len(train) == 100
    assert len(test) == 20
    for c in train + test:
        assert c.num_patches == 12
        assert c.feature_dim == 10


def test_class_counts_largest_remainder():
    assert class_counts((0.2, 0.8), 100) == [20, 80]
    assert class_counts((0.5, 0.5), 3) == [2, 1]
    assert class_counts((1 / 3, 1 / 3, 1 / 3), 10) == [4, 3, 3]
    train, _, _ = generate(small_config())
    labels = [c.true_label for c in train]
    assert labels.count(0) == 20
    assert labels.count(1) == 80


def test_ambiguity_counting():
    train, _, meta = generate(small_config())
    train_flags = {cid: v for cid, v in meta["ambiguous"].items() if cid.startswith("train")}
    assert len(train_flags) == math.floor(0.25 * 100)
    for info in train_flags.values():
        assert len(info["noisy_patch_indices"]) == 3


def test_no_ambiguity_when_fraction_zero():
    _, _, meta = generate(small_config(ambiguous_fraction=0.0))
    assert meta["ambiguous"] == {}


def test_same_seed_identical_datasets(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_dataset(small_config(), a)
    write_dataset(small_config(), b)
    for name in ("train.csv", "test.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seeds_differ(tmp_path):
    train1, _, _ = generate(small_config(seed=1))
    train2, _, _ = generate(small_config(seed=2))
    assert not np.array_equal(train1[0].features, train2[0].features)


# --- CSV round trip ---------------------------------------------------------

def test_round_trip_preserves_features(tmp_path):
    train, _, _ = generate(small_config(train_candidates=10, test_candidates=1))
    path = tmp_path / "data.csv"
    write_csv(train, path)
    loaded = load_csv(path)
    assert [c.id for c in loaded] == [c.id for c in train]
    for orig, back in zip(train, loaded):
        assert back.true_label == orig.true_label
        assert np.abs(back.features - orig.features).max() < 1e-9


def test_inconsistent_labels_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\nx,0,1.5\nx,1,2.5\n")
    with pytest.raises(DatasetFormatError):
        load_csv(path)


def test_header_only_gives_empty_set(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("candidate_id,label,f0,f1\n")
    assert load_csv(path) == []


def test_non_numeric_feature_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\nx,0,abc\n")
    with pytest.raises(DatasetFormatError):
        load_csv(path)


def test_non_finite_feature_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\nx,0,1.0\nx,0,nan\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.csv:3: non-finite feature value"):
        load_csv(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0\nx,0,1.0\n")
    with pytest.raises(DatasetFormatError):
        load_csv(path)


def test_non_contiguous_rows_grouped(tmp_path):
    path = tmp_path / "interleaved.csv"
    path.write_text(
        "candidate_id,label,f0\n"
        "a,0,1.0\n"
        "b,1,2.0\n"
        "a,0,3.0\n"
    )
    loaded = load_csv(path)
    by_id = {c.id: c for c in loaded}
    assert by_id["a"].features[:, 0].tolist() == [1.0, 3.0]
    assert by_id["b"].num_patches == 1


def test_load_dataset_and_infer_classes(tmp_path):
    write_dataset(small_config(train_candidates=20, test_candidates=5), tmp_path)
    train, test, meta = load_dataset(tmp_path)
    assert len(train) == 20 and len(test) == 5
    assert meta["config"]["num_classes"] == 2
    assert infer_num_classes(train) == 2


# --- link to selection criteria ----------------------------------------------

def test_ambiguous_candidates_have_higher_full_diversity():
    cfg = standard_benchmark(seed=1)
    train, _, meta = generate(cfg)
    model = pretrain_m0(
        (collect_patches(train, {c.id: c.true_label for c in train})),
        TrainConfig(),
        np.random.default_rng(0),
    )
    flagged = set(meta["ambiguous"])
    crit = CriteriaConfig(lambda1=0.0, lambda2=1.0, alpha=1.0)
    for label in (0, 1):
        amb, clean = [], []
        for c in train:
            if c.true_label != label:
                continue
            d = score_candidate(predict(model, c), crit).score
            (amb if c.id in flagged else clean).append(d)
        assert np.mean(amb) > np.mean(clean)
