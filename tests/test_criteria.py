import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar.criteria import (
    CriteriaConfig,
    check_prediction_matrix,
    classify_pattern,
    diversity,
    dominant_class,
    entropy,
    majority_subset,
    score_candidate,
)
from aftstar.errors import ConfigError, DiagnosticError, ShapeError

from oracles import diversity_direct, entropy_direct, random_prediction_matrix


def binary_rows(qs):
    """Rows (q, 1-q) so the dominant-class probability is controllable."""
    return np.array([[q, 1.0 - q] for q in qs])


# --- validation -------------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(ShapeError):
        check_prediction_matrix([[0.5, 0.6]])  # row sum != 1
    with pytest.raises(ShapeError):
        check_prediction_matrix([[1.2, -0.2]])
    with pytest.raises(ShapeError):
        check_prediction_matrix([0.5, 0.5])  # 1-d
    with pytest.raises(ShapeError):
        check_prediction_matrix(np.ones((0, 2)))
    with pytest.raises(ShapeError):
        check_prediction_matrix([[1.0]])  # single class
    check_prediction_matrix([[0.5, 0.5]])


@pytest.mark.parametrize(
    "fn",
    [
        entropy,
        diversity,
        dominant_class,
        classify_pattern,
        lambda P: majority_subset(P, 0.5),
        lambda P: score_candidate(P, CriteriaConfig(lambda1=1.0, lambda2=1.0, alpha=0.5)),
    ],
    ids=["entropy", "diversity", "dominant_class", "classify_pattern", "majority_subset",
         "score_candidate"],
)
def test_public_functions_reject_rows_not_summing_to_one(fn):
    with pytest.raises(ShapeError):
        fn([[0.5, 0.5], [0.7, 0.4], [0.2, 0.8]])


def test_score_candidate_checks_the_matrix_once(monkeypatch):
    import aftstar.criteria as criteria_mod

    calls = []
    real_check = criteria_mod.check_prediction_matrix

    def counting_check(P):
        calls.append(1)
        return real_check(P)

    monkeypatch.setattr(criteria_mod, "check_prediction_matrix", counting_check)
    P = make_pattern_c_candidate()
    score_candidate(P, CriteriaConfig(lambda1=1.0, lambda2=1.0, alpha=0.25))
    assert len(calls) == 1


# --- dominant class ---------------------------------------------------------

def test_dominant_class_column_sums():
    assert dominant_class([(0.9, 0.1), (0.6, 0.4)]) == 0
    assert dominant_class([(0.1, 0.2, 0.7)]) == 2


def test_dominant_class_tie_breaks_low():
    assert dominant_class([(0.5, 0.5)]) == 0


# --- majority subset --------------------------------------------------------

def test_majority_subset_quarter_of_eight():
    P = binary_rows([0.9, 0.8, 0.7, 0.6, 0.55, 0.52, 0.51, 0.5])
    sub = majority_subset(P, 0.25)
    assert sub.shape == (2, 2)
    assert list(sub[:, 0]) == [0.9, 0.8]


def test_majority_subset_alpha_one_sorts_whole_matrix():
    P = binary_rows([0.2, 0.9, 0.5])
    sub = majority_subset(P, 1.0)
    assert sub.shape == P.shape
    # dominant class is 0 (column sums 1.6 vs 1.4); descending by p[:, 0]
    assert list(sub[:, 0]) == [0.9, 0.5, 0.2]


def test_majority_subset_minimum_one_row():
    P = binary_rows([0.6, 0.5, 0.4])
    assert majority_subset(P, 0.1).shape == (1, 2)


def test_majority_subset_tie_prefers_lower_patch_index():
    P = np.array([[0.7, 0.3], [0.9, 0.1], [0.7, 0.3]])
    sub = majority_subset(P, 0.67)  # keep 3 -> all, ordering matters
    assert np.allclose(sub, [[0.9, 0.1], [0.7, 0.3], [0.7, 0.3]])
    sub2 = majority_subset(P, 0.5)  # keep 2: 0.9 then the earlier 0.7 row
    assert np.allclose(sub2, [[0.9, 0.1], [0.7, 0.3]])


def test_majority_subset_alpha_validation():
    with pytest.raises(ConfigError):
        majority_subset(binary_rows([0.5]), 0.0)
    with pytest.raises(ConfigError):
        majority_subset(binary_rows([0.5]), 1.5)


# --- entropy ----------------------------------------------------------------

def test_entropy_maximum_case():
    assert entropy([(0.5, 0.5), (0.5, 0.5)]) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_one_hot_is_near_zero():
    assert entropy([(1.0, 0.0), (0.0, 1.0)]) < 1e-10


def test_entropy_frozen_value():
    # direct evaluation: -(1/2) * sum p ln p over both rows
    assert entropy([(0.9, 0.1), (0.6, 0.4)]) == pytest.approx(
        0.4990473202003523, abs=1e-12
    )


# --- diversity --------------------------------------------------------------

def test_diversity_identical_rows_zero():
    assert diversity([(0.3, 0.7), (0.3, 0.7), (0.3, 0.7)]) == 0.0


def test_diversity_frozen_value():
    # (0.8 ln 9) per class over the single cross pair = 1.6 ln 9
    assert diversity([(0.9, 0.1), (0.1, 0.9)]) == pytest.approx(
        1.6 * math.log(9.0), abs=1e-12
    )


def test_diversity_single_row_zero():
    assert diversity([(0.2, 0.8)]) == 0.0


def test_diversity_pair_symmetry_against_full_double_sum():
    rng = np.random.default_rng(7)
    P = random_prediction_matrix(rng, max_m=6)
    pt = np.clip(P, 1e-12, 1.0)
    full = 0.0
    for k in range(P.shape[1]):
        for j in range(P.shape[0]):
            for l in range(P.shape[0]):
                if j != l:
                    full += (pt[j, k] - pt[l, k]) * math.log(pt[j, k] / pt[l, k])
    assert diversity(P) == pytest.approx(full / 2.0, rel=1e-12, abs=1e-12)


# --- oracle equivalence -----------------------------------------------------

def test_entropy_and_diversity_match_direct_oracles():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        P = random_prediction_matrix(rng)
        assert abs(entropy(P) - entropy_direct(P.tolist())) < 1e-9
        assert abs(diversity(P) - diversity_direct(P.tolist())) < 1e-9


# --- score_candidate --------------------------------------------------------

def test_score_reduces_to_entropy():
    P = binary_rows([0.9, 0.3, 0.5])
    cfg = CriteriaConfig(lambda1=1.0, lambda2=0.0, alpha=1.0)
    s = score_candidate(P, cfg, candidate_id="x")
    assert s.score == pytest.approx(entropy(P), rel=1e-12)
    assert s.score == s.entropy * 1.0 + s.diversity * 0.0
    assert s.candidate_id == "x"
    assert s.subset_size == 3


def test_score_identical_rows_zero_diversity():
    P = binary_rows([0.4, 0.4])
    cfg = CriteriaConfig(lambda1=0.0, lambda2=1.0, alpha=1.0)
    assert score_candidate(P, cfg).score == 0.0


def make_pattern_c_candidate(m=12, seed=0):
    """Mostly-confident rows plus a cluster near the other end."""
    rng = np.random.default_rng(seed)
    n_clean = math.ceil(0.75 * m)
    qs = np.concatenate(
        [
            0.9 + 0.01 * rng.random(n_clean),
            0.1 + 0.01 * rng.random(m - n_clean),
        ]
    )
    return binary_rows(qs)


def test_majority_rejects_cross_cluster_diversity():
    P = make_pattern_c_candidate()
    d_full = diversity(P)
    d_majority = diversity(majority_subset(P, 0.25))
    assert d_majority < d_full


def test_score_candidate_majority_vs_full_diversity():
    P = make_pattern_c_candidate(seed=3)
    cfg_full = CriteriaConfig(lambda1=0.0, lambda2=1.0, alpha=1.0)
    cfg_quarter = CriteriaConfig(lambda1=0.0, lambda2=1.0, alpha=0.25)
    assert score_candidate(P, cfg_quarter).score < score_candidate(P, cfg_full).score


def test_subset_size_recorded():
    P = make_pattern_c_candidate()
    s = score_candidate(P, CriteriaConfig(alpha=0.25))
    assert s.subset_size == math.ceil(0.25 * 12)
    assert s.dominant == 0


def test_score_diversity_is_direct_diversity_of_majority_subset():
    raw = np.random.default_rng(4).random((12, 3)) + 1e-6
    P = raw / raw.sum(axis=1, keepdims=True)
    for alpha in (0.25, 0.5, 1.0):
        s = score_candidate(P, CriteriaConfig(lambda1=1.0, lambda2=1.0, alpha=alpha))
        subset = majority_subset(P, alpha)
        assert subset.shape[0] == s.subset_size == math.ceil(alpha * 12)
        assert abs(s.diversity - diversity_direct(subset)) <= 1e-9


# --- config validation ------------------------------------------------------

def test_criteria_config_validation():
    with pytest.raises(ConfigError):
        CriteriaConfig(lambda1=0.0, lambda2=0.0)
    with pytest.raises(ConfigError):
        CriteriaConfig(lambda1=-1.0, lambda2=1.0)
    with pytest.raises(ConfigError):
        CriteriaConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        CriteriaConfig(alpha=1.2)


@pytest.mark.parametrize("field", ["lambda1", "lambda2", "alpha"])
def test_criteria_config_rejects_nan(field):
    with pytest.raises(ConfigError, match=field):
        CriteriaConfig(**{field: math.nan})


# --- pattern diagnostic -----------------------------------------------------

def test_pattern_a_concentrated_at_half():
    assert classify_pattern(binary_rows([0.5] * 10)) == "A"


def test_pattern_c_both_ends():
    qs = [0.05] * 5 + [0.95] * 5
    assert classify_pattern(binary_rows(qs)) == "C"


def test_pattern_e_all_confident():
    assert classify_pattern(binary_rows([0.97] * 8)) == "E"


def test_pattern_b_spread():
    qs = [0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85]
    assert classify_pattern(binary_rows(qs)) == "B"


def test_pattern_f_confident_majority_with_outliers():
    qs = [0.95] * 6 + [0.3] * 4
    assert classify_pattern(binary_rows(qs)) == "F"


def test_pattern_requires_binary():
    with pytest.raises(DiagnosticError):
        classify_pattern([(0.2, 0.3, 0.5)])


# --- properties -------------------------------------------------------------

row_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=4
)


@st.composite
def prediction_matrices(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=1, max_value=6))
    raw = draw(
        st.lists(
            st.lists(
                st.floats(min_value=1e-6, max_value=1.0),
                min_size=k,
                max_size=k,
            ),
            min_size=m,
            max_size=m,
        )
    )
    P = np.asarray(raw)
    return P / P.sum(axis=1, keepdims=True)


@settings(max_examples=80, deadline=None)
@given(P=prediction_matrices(), seed=st.integers(min_value=0, max_value=2**16))
def test_permutation_invariance(P, seed):
    perm = np.random.default_rng(seed).permutation(P.shape[0])
    Q = P[perm]
    assert dominant_class(Q) == dominant_class(P)
    assert entropy(Q) == pytest.approx(entropy(P), rel=1e-9, abs=1e-12)
    assert diversity(Q) == pytest.approx(diversity(P), rel=1e-9, abs=1e-9)
    cfg = CriteriaConfig(lambda1=0.5, lambda2=0.5, alpha=0.5)
    assert score_candidate(Q, cfg).score == pytest.approx(
        score_candidate(P, cfg).score, rel=1e-9, abs=1e-9
    )


@settings(max_examples=80, deadline=None)
@given(P=prediction_matrices())
def test_bounds(P):
    e = entropy(P)
    assert -1e-12 <= e <= math.log(P.shape[1]) + 1e-9
    assert diversity(P) >= 0.0
