import pickle

import numpy as np
import pytest

from aftstar.errors import ShapeError
from aftstar.pool import Candidate, stack_candidates


def make_candidate(cid, label=0, m=2, d=3):
    rng = np.random.default_rng(abs(hash(cid)) % 2**32)
    return Candidate(id=cid, features=rng.random((m, d)), true_label=label)


def test_candidate_validation():
    with pytest.raises(ShapeError):
        Candidate(id="x", features=np.zeros(3), true_label=0)  # 1-d
    with pytest.raises(ShapeError):
        Candidate(id="x", features=np.zeros((0, 3)), true_label=0)  # no patches
    with pytest.raises(ShapeError):
        Candidate(id="x", features=[[1.0, np.nan]], true_label=0)
    with pytest.raises(ShapeError):
        Candidate(id="x", features=[[1.0, np.inf]], true_label=0)


@pytest.mark.parametrize("features", [np.zeros((0, 3)), [[1.0, np.nan]]])
def test_candidate_errors_cut_an_over_long_id(features):
    with pytest.raises(ShapeError, match=r"candidate 'yyy.*\.\.\. \(5000 characters\)") as err:
        Candidate(id="y" * 5000, features=features, true_label=0)
    assert len(str(err.value)) < 200


def test_feature_matrix_shape():
    c = make_candidate("a", m=4, d=6)
    assert c.features.shape == (4, 6)
    assert len(c.features) == 4
    assert c.feature_dim == 6
    assert not c.features.flags.writeable


def test_candidate_copies_its_input():
    rows = np.arange(6.0).reshape(2, 3)
    c = Candidate(id="a", features=rows, true_label=0)
    rows[0, 0] = 99.0
    assert rows.flags.writeable
    assert c.features[0, 0] == 0.0
    assert not np.shares_memory(c.features, rows)


@pytest.mark.parametrize("protocol", [4, 5])
def test_a_pickled_stack_keeps_its_rows_read_only(protocol):
    """``aftstar compare`` pickles each split's stack into its worker processes."""
    stack = stack_candidates([make_candidate("a", label=1), make_candidate("b", m=3)])
    copy = pickle.loads(pickle.dumps(stack, protocol=protocol))
    assert not copy.rows.flags.writeable
    assert copy.rows.tobytes() == stack.rows.tobytes() and copy.ids == stack.ids
    for field in ("first", "counts", "true_labels"):
        assert getattr(copy, field).tolist() == getattr(stack, field).tolist()
