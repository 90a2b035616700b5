import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar.criteria import (
    CandidateScore,
    _dominant,
    _majority,
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

from oracles import (
    diversity_direct,
    dominant_by_sort,
    entropy_direct,
    majority_by_lexsort,
    random_prediction_matrix,
    spread_values,
)


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

    def counting_check(P, *rest):
        calls.append(1)
        return real_check(P, *rest)

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
    """``(positions, P, counts)`` triples for score_candidates, one per class
    count k: the positions of the blocks with k columns, those blocks
    zero-padded into one ``(n, M, k)`` array, and their row counts."""
    members = {}
    for i, B in enumerate(blocks):
        members.setdefault(np.shape(B)[1], []).append(i)
    out = []
    for positions in members.values():
        counts = np.array([len(blocks[i]) for i in positions])
        P = np.zeros((len(positions), counts.max(), np.shape(blocks[positions[0]])[1]))
        for j, i in enumerate(positions):
            P[j, : counts[j]] = blocks[i]
        out.append((np.array(positions), P, counts))
    return out


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_score_candidates_match_direct_oracles_in_input_order(alpha):
    blocks = ragged_blocks(np.random.default_rng(11))
    ids = [f"c{i:03d}" for i in range(len(blocks))]
    cfg = CriteriaConfig(lambda1=0.7, lambda2=0.3, alpha=alpha)
    for positions, P_padded, counts in grouped(blocks):
        scores = score_candidates(P_padded, counts, cfg)
        entropies, diversities = scores.terms(np.arange(len(positions)))
        columns = (scores.dominant, entropies, diversities, scores.score, scores.subset_size)
        assert all(column.shape == (len(positions),) for column in columns)
        for j, i in enumerate(positions.tolist()):
            cid, P = ids[i], blocks[i]
            s = CandidateScore(cid, *(column[j].item() for column in columns))
            subset = majority_subset(P, alpha)
            assert s.dominant == dominant_class(P)
            assert s.subset_size == subset.shape[0] == math.ceil(alpha * P.shape[0])
            assert abs(s.entropy - entropy_direct(subset.tolist())) < 1e-9
            assert abs(s.diversity - diversity_direct(subset.tolist())) < 1e-9
            assert s.score == cfg.lambda1 * s.entropy + cfg.lambda2 * s.diversity
            assert s == score_candidate(P, cfg, cid)


def test_score_candidates_of_nothing_is_empty():
    scores = score_candidates(np.zeros((0, 0, 2)), np.zeros(0, dtype=int), CriteriaConfig())
    assert scores.dominant.shape == scores.score.shape == (0,)


@pytest.mark.parametrize(
    "counts",
    [[2], [2, 2, 2], [[2, 2]], [2, 0], [-1, 2], [2, 3]],
    ids=["fewer", "more", "two_dims", "zero", "negative", "above_the_width"],
)
def test_score_candidates_rejects_counts_that_do_not_fit_the_predictions(counts):
    P = np.array([binary_rows([0.5, 0.7])] * 2)
    with pytest.raises(ShapeError):
        score_candidates(P, counts, CriteriaConfig())


@pytest.mark.parametrize("pad", [[0.5, 0.5], [1e-300, 0.0]])
def test_score_candidates_rejects_a_pad_row_that_is_not_zero(pad):
    P = np.array([binary_rows([0.5, 0.7, 0.2]), binary_rows([0.4, 0.1, 0.0])])
    P[1, 2] = 0.0
    score_candidates(P, [3, 2], CriteriaConfig())
    P[1, 2] = pad
    with pytest.raises(ShapeError):
        score_candidates(P, [3, 2], CriteriaConfig())


def test_score_candidates_checks_once(monkeypatch):
    import aftstar.criteria as criteria_mod

    calls = []
    real_check = criteria_mod.check_prediction_matrix

    def counting_check(P, *rest):
        calls.append(P.shape)
        return real_check(P, *rest)

    monkeypatch.setattr(criteria_mod, "check_prediction_matrix", counting_check)
    blocks = [binary_rows([0.5] * m) for m in (3, 1, 3, 5, 1, 3)]
    ((_, P, counts),) = grouped(blocks)
    score_candidates(P, counts, CriteriaConfig())
    assert calls == [(30, 2)]


def test_diversity_of_identical_rows_is_exactly_zero():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        row = rng.random(k) + 1e-6
        row /= row.sum()
        blocks = [np.tile(row, (m, 1)) for m in range(1, 41)]
        ((_, P, counts),) = grouped(blocks)
        scores = score_candidates(P, counts, CriteriaConfig(lambda2=1.0))
        assert (scores.terms(np.arange(40))[1] == 0.0).all()
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
    for positions, P, counts in grouped(blocks):
        scores = score_candidates(P, counts, CriteriaConfig(lambda2=1.0))
        _, diversities = scores.terms(np.arange(len(positions)))
        assert ((0.0 <= diversities) & (diversities < 1e-9)).all()


@pytest.mark.parametrize("position", [0, 17, 59])
def test_score_candidates_rejects_a_bad_row_in_any_block(position):
    blocks = ragged_blocks(np.random.default_rng(12))
    bad = blocks[position].copy()
    bad[-1] = 0.0
    bad[-1, 0] = 0.9  # a row summing to 0.9
    blocks[position] = bad
    ((P, counts),) = [(P, c) for pos, P, c in grouped(blocks) if position in pos]
    with pytest.raises(ShapeError):
        score_candidates(P, counts, CriteriaConfig())


# --- which terms are computed -----------------------------------------------

def eager_terms(blocks, alpha):
    """Entropy and diversity of every block, each computed alone, as the
    one-matrix functions compute them: no padding, and both terms for any
    weights."""
    from aftstar.criteria import _diversity, _dominant, _entropy, _majority

    entropies, diversities = np.empty(len(blocks)), np.empty(len(blocks))
    for i, P in enumerate(blocks):
        P = P[None]
        subset, keep = _majority(P, np.array([P.shape[1]]), alpha, _dominant(P, P.shape[1]))
        entropies[i] = _entropy(subset, keep)[0]
        diversities[i] = _diversity(subset, keep)[0]
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
    for positions, P, counts in grouped(blocks):
        scores = score_candidates(P, counts, cfg)
        expected = lambda1 * entropies[positions] + lambda2 * diversities[positions]
        assert scores.score.tobytes() == expected.tobytes()


@pytest.mark.parametrize("lambda1,lambda2,alpha", WEIGHTINGS)
def test_a_term_read_later_has_the_bits_of_the_eager_one(lambda1, lambda2, alpha):
    blocks = scoring_blocks(22)
    entropies, diversities = eager_terms(blocks, alpha)
    cfg = CriteriaConfig(lambda1=lambda1, lambda2=lambda2, alpha=alpha)
    picked = np.random.default_rng(3).choice(len(blocks), size=25, replace=False)
    for positions, P, counts in grouped(blocks):
        scores = score_candidates(P, counts, cfg)
        local = np.flatnonzero(np.isin(positions, picked))
        e, d = scores.terms(local)
        assert e.tobytes() == entropies[positions[local]].tobytes()
        assert d.tobytes() == diversities[positions[local]].tobytes()
        e, d = scores.terms(np.arange(len(positions)))
        assert e.tobytes() == entropies[positions].tobytes()
        assert d.tobytes() == diversities[positions].tobytes()


@pytest.mark.parametrize("lambda1,lambda2,alpha", WEIGHTINGS)
def test_terms_of_candidates_of_one_subset_size_have_the_eager_bits(lambda1, lambda2, alpha):
    # Every candidate asked for has the same subset size, mostly below the
    # width of the padded subsets: a batch of one, or of one size.
    blocks = scoring_blocks(23)
    entropies, diversities = eager_terms(blocks, alpha)
    cfg = CriteriaConfig(lambda1=lambda1, lambda2=lambda2, alpha=alpha)
    for positions, P, counts in grouped(blocks):
        scores = score_candidates(P, counts, cfg)
        sizes = scores.subset_size
        for local in [[j] for j in range(len(positions))] + [
            np.flatnonzero(sizes == s) for s in np.unique(sizes).tolist()
        ]:
            e, d = scores.terms(local)
            assert e.tobytes() == entropies[positions[local]].tobytes()
            assert d.tobytes() == diversities[positions[local]].tobytes()


@pytest.mark.parametrize("lambda1,lambda2", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("position", [-1, 4])
def test_terms_reject_a_position_outside_the_scored_candidates(lambda1, lambda2, position):
    blocks = [binary_rows([0.3, 0.6])] * 4
    ((_, P, counts),) = grouped(blocks)
    scores = score_candidates(P, counts, CriteriaConfig(lambda1=lambda1, lambda2=lambda2))
    with pytest.raises(ShapeError):
        scores.terms([0, position])


def test_score_candidates_computes_only_the_weighted_terms(monkeypatch):
    import aftstar.criteria as criteria_mod

    calls = []
    for name in ("_entropy", "_diversity"):
        real = getattr(criteria_mod, name)
        monkeypatch.setattr(
            criteria_mod, name,
            lambda P, keep, name=name, real=real: calls.append(name) or real(P, keep),
        )
    groups = grouped(scoring_blocks(23))
    for _, P, counts in groups:
        score_candidates(P, counts, CriteriaConfig(lambda1=1.0, lambda2=0.0))
    assert set(calls) == {"_entropy"}
    calls.clear()
    for _, P, counts in groups:
        scores = score_candidates(P, counts, CriteriaConfig(lambda1=0.0, lambda2=1.0))
    assert set(calls) == {"_diversity"}
    calls.clear()
    scores.terms([0, 5])
    assert 1 <= calls.count("_entropy") <= 2 and set(calls) == {"_entropy"}


# --- the numpy reductions the padded layout rests on ------------------------

@pytest.mark.parametrize("k", [2, 3, 9])
def test_numpy_sums_the_middle_axis_left_to_right_and_zero_padding_keeps_its_bits(k):
    rng = np.random.default_rng(k)
    for m in range(1, 42):
        A = spread_values(rng, (5, m, k))
        expected = A[:, 0].copy()
        for j in range(1, m):
            expected = expected + A[:, j]
        assert A.sum(axis=1).tobytes() == expected.tobytes(), m
        for pad in (1, 7, 40):
            padded = np.concatenate([A, np.zeros((5, pad, k))], axis=1)
            assert padded.sum(axis=1).tobytes() == expected.tobytes(), (m, pad)
    # The reference above starts from a copy of row 0, which is only right
    # because spread values are never -0.0: numpy starts the sum from +0.0,
    # so a column of -0.0 sums to +0.0, and so does one of mixed signed zeros.
    for m in (1, 2, 9, 41):
        negative = np.full((5, m, k), -0.0)
        assert negative.sum(axis=1).tobytes() == np.zeros((5, k)).tobytes(), m
        mixed = rng.choice([0.0, -0.0], size=(5, m, k))
        assert mixed.sum(axis=1).tobytes() == np.zeros((5, k)).tobytes(), m


@pytest.mark.parametrize("k", [2, 3, 9])
def test_numpy_sums_the_last_two_axes_as_each_flattened_row(k):
    rng = np.random.default_rng(10 + k)
    for s in range(1, 42):
        T = spread_values(rng, (5, s, k))
        expected = np.array([np.add.reduce(row.ravel()) for row in T])
        assert T.sum(axis=(1, 2)).tobytes() == expected.tobytes(), s


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



def special_rows(k):
    """Rows that tie: saturated q = 1.0 rows, exact halves and a uniform
    row, each also with its zeros as -0.0, so keys of both signed zeros."""
    halves = np.zeros((k, k))
    halves[np.arange(k), np.arange(k)] = halves[np.arange(k), (np.arange(k) + 1) % k] = 0.5
    rows = np.concatenate([np.eye(k), halves, np.full((1, k), 1.0 / k)])
    return np.concatenate([rows, np.where(rows == 0.0, -0.0, rows)])


@st.composite
def padded_predictions(draw):
    """An ``(n, M, k)`` stack of candidates drawn from a few distinct rows,
    so rows repeat within and across candidates, padded with +0.0 rows."""
    k = draw(st.sampled_from([2, 3, 9]))
    specials = special_rows(k)
    picks = draw(st.lists(st.integers(0, len(specials) - 1), max_size=3))
    raw = np.array(draw(st.lists(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=k, max_size=k),
        min_size=1, max_size=3,
    )))
    palette = np.concatenate([specials[picks], raw / raw.sum(axis=1, keepdims=True)])
    rows = draw(st.lists(
        st.lists(st.integers(0, len(palette) - 1), min_size=1, max_size=10), max_size=6
    ))
    M = max((len(r) for r in rows), default=0)
    P = np.zeros((len(rows), M, k))
    for i, r in enumerate(rows):
        P[i, : len(r)] = palette[r]
    return P, np.array([len(r) for r in rows], dtype=np.intp)


def check_against_the_sorts(P, counts, alpha):
    dominant = _dominant(P, counts)
    assert dominant.tolist() == dominant_by_sort(P, counts).tolist()
    subsets, keep = _majority(P, counts, alpha, dominant)
    expected, expected_keep = majority_by_lexsort(P, counts, alpha, dominant)
    assert keep.tolist() == expected_keep.tolist()
    assert subsets.shape == expected.shape and subsets.tobytes() == expected.tobytes()


@settings(max_examples=400, deadline=None)
@given(case=padded_predictions(), alpha=st.sampled_from([0.01, 0.25, 0.3, 0.5, 0.75, 1.0]))
def test_dominant_and_majority_equal_the_full_sorts(case, alpha):
    check_against_the_sorts(*case, alpha)


@pytest.mark.parametrize(
    "rows, alpha",
    [
        # q ties at the keep boundary: the 2nd and 3rd sorted rows, keep 2
        ([[0.9, 0.1, 0.0], [0.6, 0.3, 0.1], [0.6, 0.1, 0.3], [0.2, 0.4, 0.4]], 0.5),
        # the same q, other rows: 3 classes tied on the dominant class
        ([[0.5, 0.3, 0.2], [0.5, 0.2, 0.3], [0.1, 0.1, 0.8], [0.5, 0.25, 0.25]], 0.5),
        # keys -0.0 and +0.0: the dominant class is 0, q = 0 on two rows
        ([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [-0.0, 0.6, 0.4], [0.0, 0.4, 0.6]], 1.0),
        # a tie just past the keep boundary: the 3rd and 4th rows, keep 2
        ([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4], [0.6, 0.4]], 0.5),
        # exact halves, all tied
        ([[0.5, 0.5]] * 3, 0.25),
    ],
    ids=["tie_at_keep", "three_classes", "signed_zero_keys", "tie_past_keep", "halves"],
)
def test_majority_of_planted_ties_equals_the_lexsort(rows, alpha):
    P = np.array(rows)
    for counts in ([len(P)], [len(P), 1]):
        stack = np.zeros((len(counts), len(P), P.shape[1]))
        stack[0], stack[-1, :1] = P, P[:1]
        check_against_the_sorts(stack, np.array(counts), alpha)


def test_dominant_and_majority_of_no_candidates():
    check_against_the_sorts(np.zeros((0, 0, 3)), np.zeros(0, dtype=np.intp), 0.25)


@settings(max_examples=80, deadline=None)
@given(P=prediction_matrices())
def test_bounds(P):
    e = entropy(P)
    assert -1e-12 <= e <= math.log(P.shape[1]) + 1e-9
    assert diversity(P) >= 0.0
