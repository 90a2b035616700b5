import numpy as np
import pytest

from aftstar.errors import ShapeError
from aftstar.pool import Candidate


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


def test_feature_matrix_shape():
    c = make_candidate("a", m=4, d=6)
    assert c.features.shape == (4, 6)
    assert len(c.features) == 4
    assert c.feature_dim == 6
    assert not c.features.flags.writeable
