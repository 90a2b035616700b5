import csv
import dataclasses

import numpy as np
import pytest

from aftstar.errors import MetricError
from aftstar.metrics import (
    ExperimentRecord,
    LearningCurve,
    _midranks,
    alc,
    auc,
    macro_auc,
    write_curve_csv,
)
from oracles import auc_pairwise


# --- AUC ----------------------------------------------------------------------

def test_auc_perfect_ranking():
    assert auc([0.9, 0.8, 0.3], [1, 1, 0]) == 1.0


def test_auc_hand_computed():
    assert auc([0.2, 0.7, 0.5, 0.4], [1, 0, 1, 0]) == 0.25


def test_auc_all_ties_is_half():
    assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5


def test_auc_single_class_undefined():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [0, 0])


def test_auc_matches_brute_force_pairwise():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # induce ties
        assert abs(auc(scores, labels) - auc_pairwise(scores, labels)) < 1e-12


def midranks_loop(values):
    """The tie-run loop the vectorised ``_midranks`` replaced."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.shape[0], dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < sorted_vals.shape[0]:
        j = i
        while j + 1 < sorted_vals.shape[0] and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_midranks_equal_the_tie_run_loop():
    rng = np.random.default_rng(31)
    cases = [np.zeros(1), np.zeros(7), np.array([0.0, -0.0, 0.0, 1.0, -0.0])]
    for _ in range(300):
        n = int(rng.integers(1, 200))
        cases.append(np.round(rng.normal(size=n), int(rng.integers(0, 3))))  # tie-heavy
    for values in cases:
        assert np.array_equal(_midranks(values), midranks_loop(values))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores(bad):
    with pytest.raises(MetricError, match="finite"):
        auc([0.1, bad, 0.3, 0.4], [1, 0, 1, 0])
    with pytest.raises(MetricError, match="finite"):
        macro_auc([[0.5, 0.5], [bad, 0.5], [0.2, 0.8]], [0, 1, 1])


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.random(40)
    labels = rng.integers(0, 2, size=40)
    labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    assert auc(np.exp(scores * 3.0), labels) == pytest.approx(base, abs=1e-12)
    assert auc(2.0 * scores - 5.0, labels) == pytest.approx(base, abs=1e-12)


def test_macro_auc_binary_consistency():
    rng = np.random.default_rng(4)
    p1 = rng.random(30)
    probs = np.stack([1 - p1, p1], axis=1)
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    macro = macro_auc(probs, labels)
    a0 = auc(probs[:, 0], (labels == 0).astype(int))
    a1 = auc(probs[:, 1], (labels == 1).astype(int))
    assert macro == pytest.approx((a0 + a1) / 2, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 9])
def test_macro_auc_is_the_mean_of_the_per_class_auc_to_the_bit(k):
    """Checked once, each class column is ranked as ``auc`` ranks it, on
    tied scores and on signed zeros."""
    rng = np.random.default_rng(k)
    for n in (k, 10, 57, 200):
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        for probs in (
            rng.random((n, k)),
            np.round(rng.random((n, k)), 1),  # tie-heavy
            rng.choice([0.0, -0.0, 0.5, -0.5], size=(n, k)),
        ):
            per_class = [auc(probs[:, c], (labels == c).astype(int)) for c in range(k)]
            assert macro_auc(probs, labels) == float(np.mean(per_class))
            assert macro_auc(probs.tolist(), labels.tolist()) == float(np.mean(per_class))


@pytest.mark.parametrize(
    "labels, shown",
    [
        ([0.5, 1, 0], "0.5"),
        ([0.1, 0.9, 0.5], "0.1"),
        ([0, 1.7, 1], "1.7"),  # would count as a 1
        ([1, 0, 1e-300], "1e-300"),
        ([0, 1, np.nan], "nan"),
        ([0, 1, np.inf], "inf"),
        (np.array([0, 1.5, 1], dtype=np.float32), "1.5"),
    ],
)
def test_a_label_that_is_not_an_integer_is_a_metric_error(labels, shown):
    with pytest.raises(MetricError, match=f"labels must be integers, got {shown}"):
        auc([0.5, 1.0, 0.0], labels)
    with pytest.raises(MetricError, match=f"labels must be integers, got {shown}"):
        macro_auc([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]], labels)


@pytest.mark.parametrize(
    "labels", [[1.0, 0.0, 1.0, 0.0], [1, 0, 1, 0], np.array([1, 0, 1, 0], dtype=np.int8),
               [True, False, True, False], np.array([1.0, -0.0, 1.0, 0.0])],
)
def test_integer_valued_labels_of_any_type_keep_working(labels):
    assert auc([0.9, 0.2, 0.7, 0.4], labels) == 1.0
    probs = [[0.1, 0.9], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]]
    assert macro_auc(probs, labels) == 1.0


# --- ALC ------------------------------------------------------------------------

def test_alc_constant_curve():
    assert alc([(100, 0.9), (200, 0.9), (300, 0.9)], 400) == pytest.approx(0.9)


def test_alc_two_point_trapezoid():
    assert alc([(0, 0.5), (400, 0.9)], 400) == pytest.approx(0.7)


def test_alc_flat_extension():
    assert alc([(0, 0.8), (200, 0.8)], 400) == pytest.approx(0.8)


def test_alc_requires_two_points():
    with pytest.raises(MetricError):
        alc([(0, 0.5)], 100)


def test_alc_requires_increasing_queries():
    with pytest.raises(MetricError):
        alc([(10, 0.5), (10, 0.6)], 100)


def test_alc_dominating_curve_not_smaller():
    rng = np.random.default_rng(11)
    for _ in range(50):
        qs = np.sort(rng.choice(np.arange(1, 200), size=6, replace=False))
        lower = rng.random(6)
        upper = np.clip(lower + rng.random(6) * 0.2, 0, 1)
        assert alc(list(zip(qs, upper)), 200) >= alc(list(zip(qs, lower)), 200) - 1e-12


# --- learning curve / CSV -----------------------------------------------------------

def records_fixture():
    return [
        ExperimentRecord(0, 0, 0, 0.5, 0.0, 0),
        ExperimentRecord(1, 20, 20, 0.8, 0.25, 3),
        ExperimentRecord(2, 40, 40, 0.9, 0.3, 1),
    ]


def test_learning_curve_alc_recomputable():
    records = records_fixture()
    curve = LearningCurve.from_records(records, total_pool=100)
    assert curve.alc == pytest.approx(
        alc([(r.queries_cum, r.test_auc) for r in records], 100)
    )


def test_learning_curve_requires_increasing_queries():
    records = [
        ExperimentRecord(0, 0, 0, 0.5, 0.0, 0),
        ExperimentRecord(1, 0, 20, 0.8, 0.25, 3),
    ]
    with pytest.raises(MetricError):
        LearningCurve.from_records(records, total_pool=100)


def test_curve_csv_round_trip(tmp_path):
    records = records_fixture()
    path = tmp_path / "curve.csv"
    write_curve_csv(records, path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "step,queries_cum,labeled_count,test_auc,"
        "selected_positive_fraction,misclassified_pre_fit"
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    back = [
        ExperimentRecord(int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]), int(r[5]))
        for r in rows
    ]
    assert back == records


def test_curve_csv_failing_mid_file_keeps_the_old_file_and_no_temporary(tmp_path):
    records = records_fixture()
    path = tmp_path / "curve.csv"
    write_curve_csv(records, path)
    before = path.read_bytes()
    unformattable = records[:1] + [dataclasses.replace(records[1], test_auc="x")]
    with pytest.raises(TypeError):
        write_curve_csv(unformattable, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]
