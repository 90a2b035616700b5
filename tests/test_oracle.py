import numpy as np
import pytest

from aftstar.errors import ConfigError, DoubleAnnotationError, PartitionError
from aftstar.oracle import Oracle, OracleConfig, true_labels
from aftstar.pool import Candidate


def make_candidates(labels):
    out = {}
    for i, label in enumerate(labels):
        cid = f"c{i:04d}"
        out[cid] = Candidate(id=cid, features=np.zeros((1, 2)), true_label=label)
    return out


def test_noise_free_returns_ground_truth():
    cands = make_candidates([0, 1, 1])
    oracle = Oracle(candidates=cands, num_classes=2)
    answers = oracle.query(["c0000", "c0002"])
    assert answers == {"c0000": 0, "c0002": 1}
    assert oracle.queries == 2
    assert oracle.access_log == ["c0000", "c0002"]


def test_double_query_rejected():
    cands = make_candidates([0, 1])
    oracle = Oracle(candidates=cands, num_classes=2)
    oracle.query(["c0000"])
    with pytest.raises(DoubleAnnotationError):
        oracle.query(["c0000"])
    assert oracle.queries == 1


def test_unknown_id_rejected():
    oracle = Oracle(candidates=make_candidates([0]), num_classes=2)
    with pytest.raises(PartitionError):
        oracle.query(["nope"])


def test_noise_rate_flips_binary_labels():
    n = 10_000
    cands = make_candidates([0] * n)
    oracle = Oracle(
        candidates=cands,
        config=OracleConfig(label_noise_rate=0.5),
        rng=np.random.default_rng(99),
        num_classes=2,
    )
    answers = oracle.query(sorted(cands))
    flipped = sum(1 for v in answers.values() if v == 1)
    assert abs(flipped / n - 0.5) < 0.02


def test_noise_never_returns_true_label_on_flip():
    n = 2_000
    cands = make_candidates([2] * n)
    oracle = Oracle(
        candidates=cands,
        config=OracleConfig(label_noise_rate=1.0 - 1e-9),
        rng=np.random.default_rng(5),
        num_classes=4,
    )
    answers = oracle.query(sorted(cands))
    assert all(v in (0, 1, 3) for v in answers.values())


def test_oracle_config_validation():
    with pytest.raises(ConfigError):
        OracleConfig(label_noise_rate=1.0)
    with pytest.raises(ConfigError):
        OracleConfig(label_noise_rate=-0.1)


def test_noise_without_rng_is_config_error():
    cands = make_candidates([0] * 10)
    with pytest.raises(ConfigError):
        Oracle(candidates=cands, config=OracleConfig(label_noise_rate=0.9), num_classes=2)
    assert Oracle(candidates=cands, num_classes=2).query(sorted(cands)) == dict.fromkeys(cands, 0)


def test_true_labels_accessor():
    cands = make_candidates([0, 1, 0])
    assert true_labels(cands.values()).tolist() == [0, 1, 0]
