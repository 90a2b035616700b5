import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar.criteria import CandidateScore
from aftstar.errors import ConfigError, SamplingWindowError, ShapeError
from aftstar.sampler import (
    MODES,
    SamplerConfig,
    _draw_without_replacement,
    sampling_probabilities,
    select_batch,
    select_from_scores,
    uniform_batch,
)


def scored(values):
    return [
        CandidateScore(
            candidate_id=f"c{i:03d}",
            dominant=0,
            entropy=0.0,
            diversity=0.0,
            score=float(v),
            subset_size=1,
        )
        for i, v in enumerate(values)
    ]


# --- sampling probabilities -------------------------------------------------

def test_probabilities_hand_evaluated():
    p = sampling_probabilities([10.0, 7.0, 4.0, 1.0], 4)
    assert p.tolist() == [0.5, 1.0 / 3.0, 1.0 / 6.0, 0.0]


def test_probabilities_degenerate_uniform():
    p = sampling_probabilities([5.0, 5.0, 5.0], 3)
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3])
    assert abs(p.sum() - 1.0) < 1e-12


def test_probabilities_two_point():
    p = sampling_probabilities([2.0, 0.0], 2)
    assert p.tolist() == [1.0, 0.0]


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = np.sort(rng.random(12))[::-1]
        w = int(rng.integers(2, 13))
        p = sampling_probabilities(vals, w)
        assert p.shape == (w,)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-12


def test_window_errors():
    with pytest.raises(SamplingWindowError):
        sampling_probabilities([3.0, 2.0], 3)
    with pytest.raises(SamplingWindowError):
        sampling_probabilities([3.0, 2.0], 1)


@pytest.mark.parametrize(
    "scores",
    [[0.1, 0.5, 0.3], [3.0, 1.0, 2.0], [3.0, np.nan, 1.0], [np.inf, 1.0, 0.0],
     [1.0, 0.0, -np.inf], [1e308, 0.0, -1e308]],
    ids=["ascending_head", "unsorted_tail", "nan", "plus_inf", "minus_inf", "range_overflows"],
)
def test_probabilities_reject_a_window_not_finite_or_not_descending(scores):
    with pytest.raises(ShapeError):
        sampling_probabilities(scores, 3)


def test_probabilities_check_only_the_window_head():
    # Entries past the window are not the window's: they may be in any order.
    assert sampling_probabilities([2.0, 0.0, 5.0, np.nan], 2).tolist() == [1.0, 0.0]


# --- the draw ---------------------------------------------------------------

def ordered_pick_probability(probs, picks):
    """The probability that successive draws, each renormalizing the
    remaining probabilities and uniform over the rest once they are all
    zero, pick exactly ``picks`` in this order."""
    remaining = list(range(len(probs)))
    total = 1.0
    for j in picks:
        weights = [probs[i] for i in remaining]
        mass = sum(weights)
        total *= probs[j] / mass if mass > 0 else 1.0 / len(remaining)
        remaining.remove(j)
    return total


@pytest.mark.parametrize(
    "probs, count",
    [([0.5, 1 / 3, 1 / 6, 0.0], 2), ([0.7, 0.2, 0.1], 3), ([0.6, 0.4, 0.0, 0.0], 3),
     ([0.0, 0.0, 0.0], 3), ([0.25, 0.25, 0.25, 0.25], 2)],
    ids=["scores_window", "whole_window", "zeros_after", "all_zero", "flat"],
)
def test_draw_follows_the_law_of_successive_renormalized_draws(probs, count):
    probs = np.array(probs)
    rng = np.random.default_rng(2006)
    trials = 40_000
    seen = {}
    for _ in range(trials):
        picks = tuple(_draw_without_replacement(probs, count, rng).tolist())
        seen[picks] = seen.get(picks, 0) + 1
    for picks in itertools.permutations(range(len(probs)), count):
        p = ordered_pick_probability(probs, picks)
        freq = seen.pop(picks, 0) / trials
        # five standard errors of a frequency of p over the trials
        assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / trials) + 1e-12, (picks, freq, p)
    assert not seen


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1200),
    zeros=st.floats(min_value=0.0, max_value=1.0),
    draws=st.integers(min_value=1, max_value=250),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_draw_puts_zero_weights_last_and_takes_one_double_per_member(n, zeros, draws, seed):
    source = np.random.default_rng(seed)
    probs = source.random(n) ** source.integers(1, 31)
    probs[source.random(n) < zeros] = 0.0
    count = min(draws, n)
    rng, reference_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    picks = _draw_without_replacement(probs, count, rng)
    assert len(set(picks)) == count and all(0 <= j < n for j in picks)
    positive = int((probs > 0).sum())
    assert all(probs[j] > 0 for j in picks[:positive])
    assert all(probs[j] == 0 for j in picks[positive:])
    reference_rng.random(n)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_draw_of_a_whole_window_ends_uniform():
    # Two non-zero entries, then the rest of the window in the order of u.
    probs = np.array([0.75, 0.25, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(3)
    picks = _draw_without_replacement(probs, 5, rng).tolist()
    assert sorted(picks[:2]) == [0, 1] and sorted(picks) == [0, 1, 2, 3, 4]
    u = np.random.default_rng(3).random(5)
    assert picks[2:] == sorted([2, 3, 4], key=lambda j: u[j])


# --- select_batch -----------------------------------------------------------

def test_top_b_takes_largest():
    scores = scored([5, 9, 1, 7, 3, 8, 2, 6, 4, 0])
    cfg = SamplerConfig(batch_size=3, mode="top_b")
    batch = select_batch(scores, cfg, np.random.default_rng(0))
    assert batch == ["c001", "c005", "c003"]  # scores 9, 8, 7


def test_top_b_tie_breaks_by_id():
    scores = scored([1.0, 1.0, 1.0])
    cfg = SamplerConfig(batch_size=2, mode="top_b")
    assert select_batch(scores, cfg, np.random.default_rng(0)) == ["c000", "c001"]


def test_exhaustion_returns_everything():
    scores = scored([0.4, 0.2])
    cfg = SamplerConfig(batch_size=3, mode="top_b")
    assert set(select_batch(scores, cfg, np.random.default_rng(0))) == {"c000", "c001"}


def test_empty_scores_empty_batch():
    for mode in ("top_b", "randomized", "uniform_random"):
        cfg = SamplerConfig(batch_size=3, mode=mode)
        assert select_batch([], cfg, np.random.default_rng(0)) == []
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert select_from_scores(np.empty(0), cfg, rng).size == 0
        assert uniform_batch(0, cfg.batch_size, rng).size == 0
        assert rng.bit_generator.state == state


def test_batch_invariants():
    rng = np.random.default_rng(42)
    scores = scored(rng.random(30))
    ids = {s.candidate_id for s in scores}
    for mode in ("top_b", "randomized", "uniform_random"):
        cfg = SamplerConfig(batch_size=7, omega=3, mode=mode)
        batch = select_batch(scores, cfg, np.random.default_rng(1))
        assert len(batch) == 7
        assert len(set(batch)) == 7
        assert set(batch) <= ids


def test_randomized_stays_inside_window():
    values = list(range(30, 0, -1))
    scores = scored(values)
    cfg = SamplerConfig(batch_size=2, omega=3, mode="randomized")
    window_ids = {s.candidate_id for s in sorted(scores, key=lambda s: -s.score)[:6]}
    for seed in range(200):
        batch = select_batch(scores, cfg, np.random.default_rng(seed))
        assert set(batch) <= window_ids


def test_omega_one_degenerates_to_top_b():
    values = [9.0, 7.0, 5.0, 3.0, 1.0, 0.5]
    scores = scored(values)
    top = select_batch(
        scores, SamplerConfig(batch_size=3, mode="top_b"), np.random.default_rng(0)
    )
    for seed in range(50):
        rand = select_batch(
            scores,
            SamplerConfig(batch_size=3, omega=1, mode="randomized"),
            np.random.default_rng(seed),
        )
        assert set(rand) == set(top)


def test_determinism_same_seed_same_batch():
    scores = scored(np.random.default_rng(3).random(40))
    cfg = SamplerConfig(batch_size=5, omega=4, mode="randomized")
    a = select_batch(scores, cfg, np.random.default_rng(99))
    b = select_batch(scores, cfg, np.random.default_rng(99))
    assert a == b
    cfg_u = SamplerConfig(batch_size=5, mode="uniform_random")
    assert select_batch(scores, cfg_u, np.random.default_rng(7)) == select_batch(
        scores, cfg_u, np.random.default_rng(7)
    )


def test_single_candidate_bypasses_window():
    scores = scored([2.0])
    cfg = SamplerConfig(batch_size=1, omega=5, mode="randomized")
    assert select_batch(scores, cfg, np.random.default_rng(0)) == ["c000"]


def test_uniform_batch_matches_select_batch_uniform_mode():
    scores = scored(np.random.default_rng(5).random(15))
    ids = [s.candidate_id for s in scores]
    cfg = SamplerConfig(batch_size=4, mode="uniform_random")
    picks = uniform_batch(len(ids), 4, np.random.default_rng(11))
    assert select_batch(scores, cfg, np.random.default_rng(11)) == [ids[i] for i in picks]


def test_first_draw_marginal_matches_probabilities():
    # many trailing zero-score candidates so the window is [10, 7, 4, 1, 0]
    values = [10.0, 7.0, 4.0, 1.0] + [0.0] * 8
    scores = scored(values)
    cfg = SamplerConfig(batch_size=1, omega=5, mode="randomized")
    expected = sampling_probabilities(sorted(values, reverse=True), 5)
    rng = np.random.default_rng(2024)
    trials = 100_000
    counts = np.zeros(len(values))
    ranked = sorted(scores, key=lambda s: (-s.score, s.candidate_id))
    index_of = {s.candidate_id: i for i, s in enumerate(ranked)}
    for _ in range(trials):
        (pick,) = select_batch(scores, cfg, rng)
        counts[index_of[pick]] += 1
    freqs = counts / trials
    assert np.abs(freqs[:5] - expected).max() < 0.01
    assert freqs[5:].sum() == 0.0


def test_first_draw_top_frequency_one_half_with_window_four():
    # four candidates, omega*b = 5 > 4, so the window truncates to 4 and
    # the top id carries probability exactly 1/2
    scores = scored([10.0, 7.0, 4.0, 1.0])
    cfg = SamplerConfig(batch_size=1, omega=5, mode="randomized")
    rng = np.random.default_rng(17)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        (pick,) = select_batch(scores, cfg, rng)
        hits += pick == "c000"
    assert abs(hits / trials - 0.5) < 0.01


def reference_select_batch(scores, cfg, rng):
    """Batch selection by a Python sort of the score objects on
    ``(-score, id)``: the ranking :func:`select_from_scores` replaces."""
    if not scores:
        return []
    take = min(cfg.batch_size, len(scores))
    if cfg.mode == "uniform_random":
        ids = sorted(s.candidate_id for s in scores)
        return [ids[i] for i in rng.choice(len(ids), size=take, replace=False)]
    ranked = sorted(scores, key=lambda s: (-s.score, s.candidate_id))
    if cfg.mode == "top_b":
        return [s.candidate_id for s in ranked[:take]]
    window = min(cfg.omega * cfg.batch_size, len(ranked))
    if window == 1:
        return [ranked[0].candidate_id]
    probs = sampling_probabilities([s.score for s in ranked], window)
    picks = _draw_without_replacement(probs, take, rng)
    return [ranked[i].candidate_id for i in picks]


# mostly values that tie, both signed zeros among them
tied_scores = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


def assert_equals_the_sorted_reference(values, order_seed, cfg, seed):
    """``select_batch`` on the score objects in a shuffled order, and
    ``select_from_scores`` on the scores in id order, pick what the
    reference picks and leave the rng alike."""
    objects = scored(values)
    objects = [objects[i] for i in np.random.default_rng(order_seed).permutation(len(objects))]
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_select_batch(objects, cfg, reference_rng)
    assert select_batch(objects, cfg, rng) == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    ids = [f"c{i:03d}" for i in range(len(values))]
    rng = np.random.default_rng(seed)
    picks = select_from_scores(np.array(values, dtype=float), cfg, rng)
    assert picks.dtype == np.intp
    assert [ids[i] for i in picks] == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(tied_scores, max_size=40),
    order_seed=st.integers(min_value=0, max_value=2**16),
    mode=st.sampled_from(MODES),
    batch_size=st.integers(min_value=1, max_value=12),
    omega=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_array_ranking_equals_the_sorted_reference(
    values, order_seed, mode, batch_size, omega, seed
):
    cfg = SamplerConfig(batch_size=batch_size, omega=omega, mode=mode)
    assert_equals_the_sorted_reference(values, order_seed, cfg, seed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "values, batch_size, omega",
    [
        ([0.0, -0.0, 0.0, -0.0, 0.5, 0.5, 0.0], 3, 2),  # tied scores, both signed zeros
        ([-0.0, 0.0, -0.0], 1, 1),  # a window of 1 in a tied pool
        ([0.0], 4, 5),  # a window of 1: one candidate
    ],
)
def test_ties_and_a_window_of_one_equal_the_sorted_reference(mode, values, batch_size, omega):
    cfg = SamplerConfig(batch_size=batch_size, omega=omega, mode=mode)
    for seed in range(5):
        assert_equals_the_sorted_reference(values, seed, cfg, seed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "scores",
    [[[5.0, 4.0, 3.0, 2.0, 1.0]], [5.0, np.inf, 3.0, 2.0, 1.0], [5.0, 4.0, np.nan, 2.0, 1.0],
     [5.0, 4.0, 3.0, 2.0, -np.inf]],
    ids=["two_dims", "plus_inf", "nan", "minus_inf"],
)
def test_select_from_scores_rejects_scores_that_do_not_match_the_ids(mode, scores):
    cfg = SamplerConfig(batch_size=2, omega=2, mode=mode)
    with pytest.raises(ShapeError):
        select_from_scores(np.array(scores), cfg, np.random.default_rng(0))


def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(batch_size=0)
    with pytest.raises(ConfigError):
        SamplerConfig(batch_size=1, omega=0)
    with pytest.raises(ConfigError):
        SamplerConfig(batch_size=1, mode="other")
