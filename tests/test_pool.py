import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar.errors import LabelDomainError, PartitionError, ShapeError
from aftstar.pool import Candidate, make_pool, move_to_labeled


def make_candidate(cid, label=0, m=2, d=3):
    rng = np.random.default_rng(abs(hash(cid)) % 2**32)
    return Candidate(id=cid, features=rng.random((m, d)), true_label=label)


def small_pool(ids=("a", "b", "c")):
    return make_pool([make_candidate(i) for i in ids], num_classes=2)


def test_move_single_candidate():
    pool = small_pool()
    out = move_to_labeled(pool, ["a"], {"a": 1})
    assert out.unlabeled == {"b", "c"}
    assert out.labeled == {"a"}
    assert out.step == 1
    assert out.labels == {"a": 1}
    assert pool.labels == {}  # the input pool is unchanged


def test_pools_over_one_candidate_list_stay_independent():
    candidates = [make_candidate(i) for i in ("a", "b", "c")]
    first = make_pool(candidates, num_classes=2)
    second = make_pool(candidates, num_classes=2)
    move_to_labeled(first, ["a"], {"a": 1})
    assert second.labels == {}
    assert second.labeled == set()
    assert second.unlabeled == {"a", "b", "c"}


def test_empty_move_only_advances_step():
    pool = small_pool()
    out = move_to_labeled(pool, [], {})
    assert out.unlabeled == pool.unlabeled
    assert out.labeled == frozenset()
    assert out.step == 1


def test_move_already_labeled_is_partition_error():
    pool = small_pool()
    pool = move_to_labeled(pool, ["a"], {"a": 0})
    with pytest.raises(PartitionError):
        move_to_labeled(pool, ["a", "b"], {"a": 0, "b": 0})


def test_label_out_of_range():
    pool = small_pool()
    with pytest.raises(LabelDomainError):
        move_to_labeled(pool, ["a"], {"a": 2})
    with pytest.raises(LabelDomainError):
        move_to_labeled(pool, ["a"], {"a": -1})


def test_missing_label():
    pool = small_pool()
    with pytest.raises(LabelDomainError):
        move_to_labeled(pool, ["a"], {})


def test_duplicate_ids_rejected():
    pool = small_pool()
    with pytest.raises(PartitionError):
        move_to_labeled(pool, ["a", "a"], {"a": 0})


def test_candidate_validation():
    with pytest.raises(ShapeError):
        Candidate(id="x", features=np.zeros(3), true_label=0)  # 1-d
    with pytest.raises(ShapeError):
        Candidate(id="x", features=np.zeros((0, 3)), true_label=0)  # no patches
    with pytest.raises(ShapeError):
        Candidate(id="x", features=[[1.0, np.nan]], true_label=0)
    with pytest.raises(ShapeError):
        Candidate(id="x", features=[[1.0, np.inf]], true_label=0)


def test_feature_matrix_shape():
    c = make_candidate("a", m=4, d=6)
    assert c.features.shape == (4, 6)
    assert c.num_patches == 4
    assert c.feature_dim == 6
    assert not c.features.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    moves=st.lists(
        st.lists(st.integers(min_value=0, max_value=9), max_size=4),
        max_size=8,
    )
)
def test_partition_invariants_hold_under_random_sequences(moves):
    ids = [f"c{i}" for i in range(10)]
    pool = small_pool(ids)
    initial = set(ids)
    prev_labeled = 0
    for move in moves:
        batch = sorted({ids[i] for i in move} & set(pool.unlabeled))
        pool = move_to_labeled(pool, batch, {cid: 0 for cid in batch})
        assert not (pool.unlabeled & pool.labeled)
        assert set(pool.unlabeled) | set(pool.labeled) == initial
        assert len(pool.labeled) >= prev_labeled
        prev_labeled = len(pool.labeled)


def test_replay_determinism():
    sequence = [(("a",), {"a": 1}), ((), {}), (("c", "b"), {"c": 0, "b": 1})]

    def run():
        pool = small_pool()
        states = []
        for ids, labels in sequence:
            pool = move_to_labeled(pool, ids, labels)
            states.append(
                (set(pool.unlabeled), set(pool.labeled), pool.step,
                 dict(pool.labels))
            )
        return states

    assert run() == run()
