import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


PARENT = [0.40, 0.41, 0.39, 0.42, 0.40, 0.38, 0.41, 0.40, 0.39, 0.43]


def test_a_clear_lower_is_better_gain_holds():
    change = [0.35, 0.34, 0.36, 0.35, 0.33, 0.35, 0.36, 0.34, 0.35, 0.37]
    s = ab_pairs.summarise(PARENT, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((0.39, 0.40, 0.4125))
    assert s["change"] == pytest.approx((0.34, 0.35, 0.36))
    assert s["change_pct"] == pytest.approx(-12.5)
    assert s["gain_holds"]


def test_eight_wins_in_ten_is_not_a_gain():
    change = [0.35] * 8 + [0.40, 0.44]  # a tie and a loss
    s = ab_pairs.summarise(PARENT, change, "lower")
    assert s["wins"] == 8
    assert not s["gain_holds"]


def test_a_gap_inside_the_parents_quartile_spread_is_not_a_gain():
    change = [p - 0.005 for p in PARENT]  # wins every pair by less than the spread
    s = ab_pairs.summarise(PARENT, change, "lower")
    assert s["wins"] == 10
    assert not s["gain_holds"]


def test_higher_is_better_counts_the_other_way():
    parent = [100.0, 101.0, 99.0, 100.0]
    change = [120.0, 121.0, 119.0, 100.0]
    s = ab_pairs.summarise(parent, change, "higher")
    assert s["wins"] == 3  # the tie counts for neither side
    assert s["change_pct"] == pytest.approx(19.5)
    assert not s["gain_holds"]  # 3 of 4 is under nine tenths
    assert ab_pairs.summarise(parent[:3], change[:3], "higher")["gain_holds"]
    assert not ab_pairs.summarise(change[:3], parent[:3], "higher")["gain_holds"]


def test_one_pair_and_a_zero_median():
    s = ab_pairs.summarise([0.0], [0.0], "lower")
    assert s["parent"] == s["change"] == (0.0, 0.0, 0.0)
    assert s["wins"] == 0 and math.isnan(s["change_pct"])
    assert not s["gain_holds"]


def test_directions_come_from_the_benchmark_file():
    better = ab_pairs.directions(ab_pairs.ROOT)
    assert better["setup_s"] == "lower"
    assert better["datagen.rows_per_s"] == "higher"


# --- no-regression verdicts -------------------------------------------------

def test_a_change_inside_the_bound_is_ok_and_one_past_it_is_worse():
    # parent median 0.40 and quartile spread 0.0225; a bound of 25% allows 0.10
    assert ab_pairs.verdict(PARENT, [p + 0.05 for p in PARENT], "lower", 0.25) == "ok"
    assert ab_pairs.verdict(PARENT, [p + 0.15 for p in PARENT], "lower", 0.25) == "worse"
    # the bound itself is still ok
    assert ab_pairs.verdict([4.0] * 4, [5.0] * 4, "lower", 0.25) == "ok"
    assert ab_pairs.verdict([4.0] * 4, [5.5] * 4, "lower", 0.25) == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    # a bound of 5% allows 0.02, under the parent's quartile spread
    assert ab_pairs.verdict(PARENT, PARENT, "lower", 0.05) == "unresolved"
    assert ab_pairs.verdict(PARENT, [min(PARENT) - 0.01] * 10, "lower", 0.05) == "ok"
    assert ab_pairs.verdict(PARENT, [min(PARENT)] * 10, "lower", 0.05) == "unresolved"
    # a median worse by more than the bound is worse whatever the spread
    assert ab_pairs.verdict(PARENT, [p + 0.05 for p in PARENT], "lower", 0.05) == "worse"


def test_a_verdict_where_higher_is_better_counts_the_other_way():
    parent = [100.0, 101.0, 99.0, 100.0]
    assert ab_pairs.verdict(parent, [70.0] * 4, "higher", 0.25) == "worse"
    assert ab_pairs.verdict(parent, [70.0] * 4, "lower", 0.25) == "ok"
    assert ab_pairs.verdict(parent, [130.0] * 4, "higher", 0.25) == "ok"
    assert ab_pairs.verdict(parent, [130.0] * 4, "lower", 0.25) == "worse"
    spread = [90.0, 100.0, 110.0, 100.0]  # quartile spread 15 over an allowed 10
    assert ab_pairs.verdict(spread, spread, "higher", 0.1) == "unresolved"
    assert ab_pairs.verdict(spread, [111.0] * 4, "higher", 0.1) == "ok"


def test_a_verdict_on_a_zero_parent_median_allows_nothing_worse():
    assert ab_pairs.verdict([0.0] * 3, [0.0] * 3, "lower", 0.25) == "ok"
    assert ab_pairs.verdict([0.0] * 3, [0.1] * 3, "lower", 0.25) == "worse"
    assert ab_pairs.verdict([0.0] * 3, [0.1] * 3, "higher", 0.25) == "ok"


def test_bounds_come_from_the_benchmark_file():
    bounds = ab_pairs.bounds(ab_pairs.ROOT)
    assert bounds["run_s"] == 0.25 and bounds["peak_rss_mib"] == 0.1
    assert "sampler.select_s" not in bounds  # per-layer metrics have no bound
