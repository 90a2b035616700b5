import numpy as np
import pytest

from aftstar.errors import ConfigError, DoubleAnnotationError, PartitionError
from aftstar.oracle import Oracle, OracleConfig


def make_candidates(labels):
    """An id -> true-label map."""
    return {f"c{i:04d}": label for i, label in enumerate(labels)}


def test_noise_free_returns_ground_truth():
    cands = make_candidates([0, 1, 1])
    oracle = Oracle(true_labels=cands, num_classes=2)
    answers = oracle.query(["c0000", "c0002"])
    assert answers == {"c0000": 0, "c0002": 1}
    assert oracle.queries == 2
    assert oracle.access_log == ["c0000", "c0002"]


def test_double_query_rejected():
    cands = make_candidates([0, 1])
    oracle = Oracle(true_labels=cands, num_classes=2)
    oracle.query(["c0000"])
    with pytest.raises(DoubleAnnotationError):
        oracle.query(["c0000"])
    assert oracle.queries == 1


def test_repeated_id_in_one_batch_rejected_before_any_answer():
    rng = np.random.default_rng(5)
    oracle = Oracle(
        true_labels=make_candidates([0, 1]),
        config=OracleConfig(label_noise_rate=0.3),
        rng=rng,
        num_classes=2,
    )
    before = rng.bit_generator.state
    with pytest.raises(DoubleAnnotationError):
        oracle.query(["c0001", "c0000", "c0000"])
    assert oracle.queries == 0
    assert oracle.access_log == []
    assert rng.bit_generator.state == before
    # nothing was recorded as answered, so the ids can still be queried once
    assert sorted(oracle.query(["c0000", "c0001"])) == ["c0000", "c0001"]


def test_unknown_id_rejected():
    oracle = Oracle(true_labels=make_candidates([0]), num_classes=2)
    with pytest.raises(PartitionError):
        oracle.query(["nope"])


def test_over_long_ids_are_cut_in_query_errors():
    long = "q" * 5000
    oracle = Oracle(true_labels={long: 0}, num_classes=2)
    for batch, error in (([long + "x"], PartitionError), ([long, long], DoubleAnnotationError)):
        with pytest.raises(error, match=r"'qqq.*\((5000|5001) characters\)") as err:
            oracle.query(batch)
        assert len(str(err.value)) < 200
    oracle.query([long])
    with pytest.raises(DoubleAnnotationError, match="characters") as err:
        oracle.query([long])
    assert len(str(err.value)) < 200


def test_noise_rate_flips_binary_labels():
    n = 10_000
    cands = make_candidates([0] * n)
    oracle = Oracle(
        true_labels=cands,
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
        true_labels=cands,
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
        Oracle(true_labels=cands, config=OracleConfig(label_noise_rate=0.9), num_classes=2)
    assert Oracle(true_labels=cands, num_classes=2).query(sorted(cands)) == dict.fromkeys(cands, 0)


@pytest.mark.parametrize("state", [{"queries": 3}, {"access_log": ["c0000"]}, {"_answered": set()}])
def test_query_state_is_not_a_constructor_parameter(state):
    with pytest.raises(TypeError):
        Oracle(true_labels=make_candidates([0]), **state)


def test_queries_counts_the_access_log():
    oracle = Oracle(true_labels=make_candidates([0, 1, 1]))
    assert oracle.queries == 0
    oracle.query(["c0002"])
    oracle.query(["c0000", "c0001"])
    assert oracle.queries == len(oracle.access_log) == 3
    with pytest.raises(AttributeError):
        oracle.queries = 0
