import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar.criteria import (
    CandidateScore,
    CriteriaConfig,
    check_prediction_matrix,
    classify_pattern,
    diversity,
    dominant_class,
    entropy,
    majority_subset,
    score_candidate,
    score_candidates,
)
from aftstar.errors import ConfigError, DiagnosticError, ShapeError
from aftstar.loop import CRITERION_PRESETS

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
    # both columns hold the same three values; summed in row order they round apart
    P = np.array([[0.5, 0.5], [2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert P.sum(axis=0)[0] < P.sum(axis=0)[1]
    assert dominant_class(P) == 0


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


def test_majority_subset_orders_tied_rows_by_the_whole_row():
    P = np.array([[0.7, 0.3], [0.9, 0.1], [0.7, 0.3]])
    sub = majority_subset(P, 0.67)  # keep 3 -> all, ordering matters
    assert np.allclose(sub, [[0.9, 0.1], [0.7, 0.3], [0.7, 0.3]])
    sub2 = majority_subset(P, 0.5)  # keep 2: 0.9 then a 0.7 row
    assert np.allclose(sub2, [[0.9, 0.1], [0.7, 0.3]])
    # equal dominant-class probability: the row smaller in its other columns first
    P = np.array([[0.4, 0.4, 0.2], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]])
    assert majority_subset(P, 0.5).tolist() == [[0.4, 0.2, 0.4], [0.4, 0.4, 0.2]]


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


# --- score_candidates -------------------------------------------------------

def ragged_blocks(rng, n=60):
    """Stochastic matrices with 1 to 40 rows and 2 to 4 columns, in random order."""
    blocks = []
    for _ in range(n):
        m = int(rng.integers(1, 41))
        k = int(rng.integers(2, 5))
        raw = rng.random((m, k)) + 1e-6
        blocks.append(raw / raw.sum(axis=1, keepdims=True))
    return [blocks[i] for i in rng.permutation(n)]


def grouped(blocks):
    """``(positions, P)`` pairs for score_candidates: the blocks grouped by
    shape, each group stacked into an ``(n, m, k)`` array."""
    members = {}
    for i, P in enumerate(blocks):
        members.setdefault(np.shape(P), []).append(i)
    return [(np.array(pos), np.array([blocks[i] for i in pos])) for pos in members.values()]


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_score_candidates_match_direct_oracles_in_input_order(alpha):
    blocks = ragged_blocks(np.random.default_rng(11))
    ids = [f"c{i:03d}" for i in range(len(blocks))]
    cfg = CriteriaConfig(lambda1=0.7, lambda2=0.3, alpha=alpha)
    scores = score_candidates(grouped(blocks), cfg, len(blocks))
    fields = ("dominant", "entropy", "diversity", "score", "subset_size")
    assert all(getattr(scores, name).shape == (len(blocks),) for name in fields)
    for i, (cid, P) in enumerate(zip(ids, blocks)):
        s = CandidateScore(cid, *(getattr(scores, name)[i].item() for name in fields))
        subset = majority_subset(P, alpha)
        assert s.dominant == dominant_class(P)
        assert s.subset_size == subset.shape[0] == math.ceil(alpha * P.shape[0])
        assert abs(s.entropy - entropy_direct(subset.tolist())) < 1e-9
        assert abs(s.diversity - diversity_direct(subset.tolist())) < 1e-9
        assert s.score == cfg.lambda1 * s.entropy + cfg.lambda2 * s.diversity
        assert s == score_candidate(P, cfg, cid)


def test_score_candidates_of_nothing_is_empty():
    scores = score_candidates(grouped([]), CriteriaConfig(), 0)
    assert scores.dominant.shape == scores.score.shape == (0,)


@pytest.mark.parametrize(
    "positions",
    [[[0, 1], [3]], [[0, 1], [1, 2]], [[0, 1, 2], [3, 4]], [[0, 1], [2, 2]], [[-1, 0], [1, 2]]],
    ids=["missing", "repeated", "out_of_range", "repeated_in_a_group", "negative"],
)
def test_score_candidates_rejects_groups_missing_or_repeating_a_position(positions):
    groups = [(np.array(pos), np.array([binary_rows([0.5, 0.7])] * len(pos))) for pos in positions]
    with pytest.raises(ShapeError):
        score_candidates(groups, CriteriaConfig(), 4)


@pytest.mark.parametrize("n", [1, 3])
def test_score_candidates_rejects_a_group_of_another_size_than_its_positions(n):
    groups = [(np.array([0, 1]), np.array([binary_rows([0.5, 0.7])] * n))]
    with pytest.raises(ShapeError):
        score_candidates(groups, CriteriaConfig(), 2)


def test_score_candidates_checks_each_shape_group_once(monkeypatch):
    import aftstar.criteria as criteria_mod

    calls = []
    real_check = criteria_mod.check_prediction_matrix

    def counting_check(P):
        calls.append(P.shape)
        return real_check(P)

    monkeypatch.setattr(criteria_mod, "check_prediction_matrix", counting_check)
    blocks = [binary_rows([0.5] * m) for m in (3, 1, 3, 5, 1, 3)]
    score_candidates(grouped(blocks), CriteriaConfig(), 6)
    assert sorted(calls) == [(2, 2), (5, 2), (9, 2)]


def test_diversity_of_identical_rows_is_exactly_zero():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        row = rng.random(k) + 1e-6
        row /= row.sum()
        blocks = [np.tile(row, (m, 1)) for m in range(1, 41)]
        scores = score_candidates(grouped(blocks), CriteriaConfig(lambda2=1.0), 40)
        assert (scores.diversity == 0.0).all()
        assert all(diversity(P) == 0.0 for P in blocks)


def test_diversity_of_near_identical_rows_is_non_negative():
    rng = np.random.default_rng(6)
    blocks = []
    for _ in range(300):
        m = int(rng.integers(2, 41))
        k = int(rng.integers(2, 5))
        row = rng.random(k) + 1e-6
        raw = row + 1e-13 * rng.random((m, k))
        blocks.append(raw / raw.sum(axis=1, keepdims=True))
    scores = score_candidates(grouped(blocks), CriteriaConfig(lambda2=1.0), len(blocks))
    assert ((0.0 <= scores.diversity) & (scores.diversity < 1e-9)).all()


@pytest.mark.parametrize("position", [0, 17, 59])
def test_score_candidates_rejects_a_bad_row_in_any_block(position):
    blocks = ragged_blocks(np.random.default_rng(12))
    bad = blocks[position].copy()
    bad[-1] = 0.0
    bad[-1, 0] = 0.9  # a row summing to 0.9
    blocks[position] = bad
    with pytest.raises(ShapeError):
        score_candidates(grouped(blocks), CriteriaConfig(), len(blocks))


# --- which terms are computed -----------------------------------------------

def eager_terms(blocks, alpha):
    """Entropy and diversity of every block, each computed over its whole
    shape group, as score_candidates computed both terms for any weights."""
    from aftstar.criteria import _diversity, _dominant, _entropy, _majority

    entropies, diversities = np.empty(len(blocks)), np.empty(len(blocks))
    for positions, P in grouped(blocks):
        subset = _majority(P, alpha, _dominant(P))
        entropies[positions] = _entropy(subset)
        diversities[positions] = _diversity(subset)
    return entropies, diversities


def scoring_blocks(seed):
    """Ragged blocks, plus blocks of one-hot rows and blocks of 9 classes,
    whose class sums take numpy's own reductions."""
    rng = np.random.default_rng(seed)
    blocks = ragged_blocks(rng)
    for _ in range(20):
        m, k = int(rng.integers(1, 13)), int(rng.integers(2, 4))
        blocks.append(np.eye(k)[rng.integers(k, size=m)])
        raw = rng.random((m, 9)) ** 4 + 1e-9
        blocks.append(raw / raw.sum(axis=1, keepdims=True))
    return [blocks[i] for i in rng.permutation(len(blocks))]


# Every criterion preset's weights and majority ratio, and one mix of both terms.
WEIGHTINGS = [
    pytest.param(l1, l2, 0.25 if majority else 1.0, id=label)
    for label, (l1, l2, majority, _) in CRITERION_PRESETS.items()
] + [pytest.param(1.0, 0.5, 0.25, id="mixed")]


@pytest.mark.parametrize("lambda1,lambda2,alpha", WEIGHTINGS)
def test_score_keeps_the_bits_of_the_eager_weighted_sum(lambda1, lambda2, alpha):
    blocks = scoring_blocks(21)
    entropies, diversities = eager_terms(blocks, alpha)
    cfg = CriteriaConfig(lambda1=lambda1, lambda2=lambda2, alpha=alpha)
    scores = score_candidates(grouped(blocks), cfg, len(blocks))
    assert scores.score.tobytes() == (lambda1 * entropies + lambda2 * diversities).tobytes()


@pytest.mark.parametrize("lambda1,lambda2,alpha", WEIGHTINGS)
def test_a_term_read_later_has_the_bits_of_the_eager_one(lambda1, lambda2, alpha):
    blocks = scoring_blocks(22)
    entropies, diversities = eager_terms(blocks, alpha)
    cfg = CriteriaConfig(lambda1=lambda1, lambda2=lambda2, alpha=alpha)
    picked = np.random.default_rng(3).choice(len(blocks), size=25, replace=False)
    scores = score_candidates(grouped(blocks), cfg, len(blocks))
    e, d = scores.terms(picked)
    assert e.tobytes() == entropies[picked].tobytes()
    assert d.tobytes() == diversities[picked].tobytes()
    assert scores.entropy.tobytes() == entropies.tobytes()
    assert scores.diversity.tobytes() == diversities.tobytes()
    e, d = scores.terms(picked)  # now from the full arrays
    assert e.tobytes() == entropies[picked].tobytes()
    assert d.tobytes() == diversities[picked].tobytes()


def test_score_candidates_computes_only_the_weighted_terms(monkeypatch):
    import aftstar.criteria as criteria_mod

    calls = []
    for name in ("_entropy", "_diversity"):
        real = getattr(criteria_mod, name)
        monkeypatch.setattr(
            criteria_mod, name, lambda P, name=name, real=real: calls.append(name) or real(P)
        )
    blocks = scoring_blocks(23)
    groups = grouped(blocks)
    score_candidates(groups, CriteriaConfig(lambda1=1.0, lambda2=0.0), len(blocks))
    assert set(calls) == {"_entropy"}
    calls.clear()
    scores = score_candidates(groups, CriteriaConfig(lambda1=0.0, lambda2=1.0), len(blocks))
    assert set(calls) == {"_diversity"}
    calls.clear()
    scores.terms([0, 5])
    assert 1 <= calls.count("_entropy") <= 2 and set(calls) == {"_entropy"}


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
    assert score_candidate(Q, cfg).score == score_candidate(P, cfg).score


# Rows that tie: equal halves, sums that tie only up to rounding, and
# rows that share the dominant-class probability but differ elsewhere.
TIED_ROWS = {
    2: [(0.5, 0.5), (2 / 3, 1 / 3), (1 / 3, 2 / 3), (0.1, 0.9), (0.9, 0.1), (0.7, 0.3)],
    3: [(0.4, 0.4, 0.2), (0.4, 0.2, 0.4), (0.2, 0.4, 0.4), (1 / 3, 1 / 3, 1 / 3),
        (0.1, 0.2, 0.7), (0.7, 0.2, 0.1)],
}


@st.composite
def tied_prediction_matrices(draw):
    rows = TIED_ROWS[draw(st.sampled_from(sorted(TIED_ROWS)))]
    picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=9))
    return np.array(picks)


@pytest.mark.parametrize(
    "P",
    [
        [[0.5, 0.5], [2 / 3, 1 / 3], [1 / 3, 2 / 3]],
        [[0.4, 0.4, 0.2], [0.4, 0.4, 0.2], [0.4, 0.2, 0.4]],
    ],
    ids=["tied_column_sums", "tied_dominant_probabilities"],
)
def test_criteria_of_recorded_ties_do_not_depend_on_the_row_order(P):
    P = np.array(P)
    cfg = CriteriaConfig(lambda1=0.5, lambda2=0.5, alpha=0.5)
    orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
    assert len({dominant_class(P[o]) for o in orders}) == 1
    assert len({majority_subset(P[o], 0.5).tobytes() for o in orders}) == 1
    assert len({score_candidate(P[o], cfg) for o in orders}) == 1


@settings(max_examples=200, deadline=None)
@given(P=tied_prediction_matrices(), seed=st.integers(min_value=0, max_value=2**16),
       alpha=st.sampled_from([0.25, 0.5, 1.0]))
def test_tied_rows_give_the_same_bits_in_any_order(P, seed, alpha):
    Q = P[np.random.default_rng(seed).permutation(P.shape[0])]
    assert dominant_class(Q) == dominant_class(P)
    assert majority_subset(Q, alpha).tobytes() == majority_subset(P, alpha).tobytes()
    cfg = CriteriaConfig(lambda1=0.5, lambda2=0.5, alpha=alpha)
    assert score_candidate(Q, cfg) == score_candidate(P, cfg)



@settings(max_examples=80, deadline=None)
@given(P=prediction_matrices())
def test_bounds(P):
    e = entropy(P)
    assert -1e-12 <= e <= math.log(P.shape[1]) + 1e-9
    assert diversity(P) >= 0.0
