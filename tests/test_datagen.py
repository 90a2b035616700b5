import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar import cli, datagen
from aftstar.criteria import CriteriaConfig, score_candidate
from aftstar.datagen import (
    DatagenConfig,
    class_counts,
    generate,
    infer_num_classes,
    load_csv,
    load_dataset,
    standard_benchmark,
    write_csv,
    write_dataset,
)
from aftstar.errors import ConfigError, DatasetFormatError
from aftstar.learner import TrainConfig, collect_patches, predict, pretrain_m0


def small_config(**overrides):
    base = dict(
        num_classes=2,
        class_weights=(0.2, 0.8),
        train_candidates=100,
        test_candidates=20,
        patches_per_candidate=12,
        feature_dim=10,
        ambiguous_fraction=0.25,
        ambiguous_patch_fraction=0.25,
        seed=1,
    )
    base.update(overrides)
    return DatagenConfig(**base)


# --- config validation ------------------------------------------------------

def test_config_rejects_low_dimension():
    with pytest.raises(ConfigError):
        small_config(num_classes=3, class_weights=(0.3, 0.3, 0.4), feature_dim=1)


def test_class_weights_list_and_tuple_give_one_hashable_config():
    as_list = DatagenConfig(class_weights=[0.5, 0.5])
    as_tuple = DatagenConfig(class_weights=(0.5, 0.5))
    assert as_list == as_tuple
    assert hash(as_list) == hash(as_tuple)


def test_config_rejects_bad_weights():
    with pytest.raises(ConfigError):
        small_config(class_weights=(0.5, 0.6))
    with pytest.raises(ConfigError):
        small_config(class_weights=(0.2,))


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_classes", 2.0),
        ("train_candidates", 40.5),
        ("test_candidates", True),
        ("patches_per_candidate", 2.5),
        ("feature_dim", 4.0),
        ("seed", 1.5),
        ("seed", -1),
        ("class_weights", (float("nan"), 0.8)),
        ("class_center_separation", float("nan")),
        ("candidate_center_spread", float("nan")),
        ("patch_spread", float("nan")),
    ],
)
def test_config_rejects_non_integer_counts_and_nan(field, value):
    with pytest.raises(ConfigError):
        small_config(**{field: value})


# --- generation -------------------------------------------------------------

def test_shapes_and_counts():
    train, test, meta = generate(small_config())
    assert len(train) == 100
    assert len(test) == 20
    for c in train + test:
        assert len(c.features) == 12
        assert c.feature_dim == 10


def test_class_counts_largest_remainder():
    assert class_counts((0.2, 0.8), 100) == [20, 80]
    assert class_counts((0.5, 0.5), 3) == [2, 1]
    assert class_counts((1 / 3, 1 / 3, 1 / 3), 10) == [4, 3, 3]
    train, _, _ = generate(small_config())
    labels = [c.true_label for c in train]
    assert labels.count(0) == 20
    assert labels.count(1) == 80


def test_ambiguity_counting():
    train, _, meta = generate(small_config())
    train_flags = {cid: v for cid, v in meta["ambiguous"].items() if cid.startswith("train")}
    assert len(train_flags) == math.floor(0.25 * 100)
    for info in train_flags.values():
        assert len(info["noisy_patch_indices"]) == 3


def test_no_ambiguity_when_fraction_zero():
    _, _, meta = generate(small_config(ambiguous_fraction=0.0))
    assert meta["ambiguous"] == {}


def test_same_seed_identical_datasets(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_dataset(small_config(), a)
    write_dataset(small_config(), b)
    for name in ("train.csv", "test.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seeds_differ(tmp_path):
    train1, _, _ = generate(small_config(seed=1))
    train2, _, _ = generate(small_config(seed=2))
    assert not np.array_equal(train1[0].features, train2[0].features)


# --- CSV round trip ---------------------------------------------------------

def test_round_trip_preserves_features(tmp_path):
    train, _, _ = generate(small_config(train_candidates=10, test_candidates=1))
    path = tmp_path / "data.csv"
    write_csv(train, path)
    loaded = load_csv(path)
    assert [c.id for c in loaded] == [c.id for c in train]
    for orig, back in zip(train, loaded):
        assert back.true_label == orig.true_label
        assert np.abs(back.features - orig.features).max() < 1e-9


def test_inconsistent_labels_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\nx,0,1.5\nx,1,2.5\n")
    with pytest.raises(DatasetFormatError):
        load_csv(path)


class FailingCandidate:
    """A candidate whose rows cannot be read, to fail a write part-way."""

    id = "boom"
    true_label = 0

    @property
    def features(self):
        raise RuntimeError("injected failure")


def test_write_failing_part_way_leaves_no_file(tmp_path):
    train, _, _ = generate(small_config(train_candidates=10, test_candidates=1))
    path = tmp_path / "train.csv"
    with pytest.raises(RuntimeError, match="injected failure"):
        write_csv([*train, FailingCandidate()], path)
    assert list(tmp_path.iterdir()) == []
    write_csv(train[:3], path)
    complete = path.read_bytes()
    with pytest.raises(RuntimeError, match="injected failure"):
        write_csv([*train, FailingCandidate()], path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == complete


def test_negative_label_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\nx,0,1.5\ny,-1,2.5\ny,-1,3.5\n")
    assert datagen._load_plain_csv(path) is None
    with pytest.raises(DatasetFormatError, match=r"bad\.csv:3: label -1 is negative"):
        load_csv(path)


def test_header_only_gives_empty_set(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("candidate_id,label,f0,f1\n")
    assert load_csv(path) == []


def test_non_numeric_feature_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\nx,0,abc\n")
    with pytest.raises(DatasetFormatError):
        load_csv(path)


def test_non_finite_feature_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\nx,0,1.0\nx,0,nan\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.csv:3: non-finite feature value"):
        load_csv(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0\nx,0,1.0\n")
    with pytest.raises(DatasetFormatError):
        load_csv(path)


def test_non_contiguous_rows_grouped(tmp_path):
    path = tmp_path / "interleaved.csv"
    path.write_text(
        "candidate_id,label,f0\n"
        "a,0,1.0\n"
        "b,1,2.0\n"
        "a,0,3.0\n"
    )
    loaded = load_csv(path)
    by_id = {c.id: c for c in loaded}
    assert by_id["a"].features[:, 0].tolist() == [1.0, 3.0]
    assert len(by_id["b"].features) == 1


def test_load_dataset_and_infer_classes(tmp_path):
    write_dataset(small_config(train_candidates=20, test_candidates=5), tmp_path)
    train, test, meta = load_dataset(tmp_path)
    assert len(train) == 20 and len(test) == 5
    assert meta["config"]["num_classes"] == 2
    assert infer_num_classes(train) == 2


def test_negative_label_fails_a_run_before_its_first_step(monkeypatch):
    from aftstar import loop
    from aftstar.pool import Candidate

    train, test, _ = generate(small_config(train_candidates=20, test_candidates=6))
    train[3] = Candidate(id=train[3].id, features=train[3].features, true_label=-1)

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(loop, "run_step", no_step)
    with pytest.raises(DatasetFormatError, match="class label -1 is negative"):
        loop.run_experiment(
            train, test, loop.make_strategy("RFT", batch_size=5), TrainConfig(epochs=1),
            loop.StopRule(query_budget=10), 1,
        )


def test_undecodable_file_is_a_format_error_naming_its_line(tmp_path):
    path = tmp_path / "train.csv"
    path.write_bytes(b"candidate_id,label,f0\nx,0,1.0\ny,1,\xff2.0\n")
    with pytest.raises(DatasetFormatError, match=r"train\.csv:3: not UTF-8 text"):
        load_csv(path)


def test_field_over_the_csv_limit_is_a_format_error_naming_its_line(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("candidate_id,label,f0\nx,0,1.0\nx,0," + "1" * 131073 + "\n")
    with pytest.raises(DatasetFormatError, match=r"train\.csv:3: field larger than field limit"):
        load_csv(path)


@pytest.mark.parametrize(
    "train_bytes, message",
    [
        (b"candidate_id,label,f0\nx,0,\xff\n", "train.csv:2: not UTF-8 text"),
        (b"candidate_id,label,f0\nx,0," + b"1" * 131073 + b"\n", "train.csv:2: field larger"),
    ],
    ids=["not-utf8", "long-field"],
)
def test_unreadable_dataset_file_exits_2_through_the_cli(tmp_path, capsys, train_bytes, message):
    write_dataset(small_config(train_candidates=10, test_candidates=4), tmp_path / "data")
    (tmp_path / "data" / "train.csv").write_bytes(train_bytes)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "dataset": str(tmp_path / "data"),
        "strategy": {"name": "RFT", "batch_size": 2},
        "seeds": [1],
        "output_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# --- bulk parser against the per-row reference --------------------------------

def loaded_or_error(load, path):
    try:
        return [(c.id, c.true_label, c.features) for c in load(path)]
    except DatasetFormatError as exc:
        return str(exc)


def assert_same_load(path):
    fast = loaded_or_error(load_csv, path)
    reference = loaded_or_error(datagen._load_csv_rows, path)
    if isinstance(reference, str) or isinstance(fast, str):
        assert fast == reference
        return
    assert [(cid, label) for cid, label, _ in fast] == [(cid, label) for cid, label, _ in reference]
    for (_, _, a), (_, _, b) in zip(fast, reference):
        assert a.dtype == b.dtype and np.array_equal(a, b)


QUIRKS = [
    "quoted-id", "crlf", "bare-cr", "blank-line", "label-form", "bad-label", "inconsistent-label",
    "width", "odd-value", "long-field", "not-utf8", "header",
]
ODD_VALUES = ["-0", " 3", "1_0.5", "1e309", "nan", "inf", "-inf", "abc", "", "0x10"]


@st.composite
def csv_files(draw):
    """Dataset CSV bytes: a plain file, or one with up to three quirks that
    only the reference parser reads or reports, each on about half of the
    rows: quoted ids (with commas and quotes in them), CRLF or bare CR line
    ends, blank lines, other spellings of a label, a bad or inconsistent
    label, a wrong width, a non-numeric or non-finite value, an over-long
    field, a byte that is not UTF-8, or a bad header."""
    quirks = draw(st.sets(st.sampled_from(QUIRKS), max_size=3))

    def quirk(name):
        return name in quirks and draw(st.booleans())

    d = draw(st.integers(1, 3))
    header = ["candidate_id", "label"] + [f"f{i}" for i in range(d)]
    if "header" in quirks:
        header = draw(st.sampled_from([header[:2], ["id", *header[1:]], [*header[:2], "f1"]]))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, 3))
        cid = f"c{i}"
        if quirk("quoted-id"):
            cid = draw(st.sampled_from([f'"c{i}"', f'"c,{i}"', f'"c""{i}"']))
        label = str((i + quirk("inconsistent-label")) % 3)
        if quirk("label-form"):
            label = draw(st.sampled_from([f"+{label}", f" {label}", f"0_{label}"]))
        if quirk("bad-label"):
            label = draw(st.sampled_from(["x", "", "1.0", "9" * 5000, "-1"]))
        values = draw(st.lists(finite, min_size=d, max_size=d))
        if quirk("width"):
            values = values[1:] if draw(st.booleans()) else values + ["1.0"]
        if values and quirk("odd-value"):
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_VALUES))
        row = [cid, label, *values]
        if quirk("long-field"):
            row[draw(st.integers(0, len(row) - 1))] = "1" * 131073
        rows.append((i, ",".join(row)))
        if quirk("blank-line"):
            rows.append((i, ""))
    if draw(st.booleans()):  # each candidate's rows contiguous
        rows.sort(key=lambda row: row[0])
    lines = [",".join(header)] + [line for _, line in rows]
    ends = [
        draw(st.sampled_from(["\r\n", "\r"])) if quirk("crlf") or quirk("bare-cr") else "\n"
        for _ in lines
    ]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    data = text.encode("utf-8")
    if "not-utf8" in quirks:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=csv_files(), chunk_chars=st.sampled_from([1, 7, 64, datagen.CHUNK_CHARS]))
def test_bulk_parser_matches_the_reference_parser(tmp_path_factory, data, chunk_chars):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(data)
    with mock.patch.object(datagen, "CHUNK_CHARS", chunk_chars):
        assert_same_load(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "candidate_id,label,f0\n",
        "candidate_id,label,f0",
        "candidate_id,label,f0,f1\na,0,1,2\n\n\nb,1,3,4\na,0,5,6",
        "candidate_id,label,f0\na,1,1\nb,0,2\na,+1,3\n",
        "candidate_id,label,f0\na,1,1\nb,0,2\na,0,3\n",
        'candidate_id,label,f0\n"a,b",0,1.5\r\n"a,b",0,2.5\r\n',
        "candidate_id,label,f0\ra,0,1\r",
        "candidate_id,label,f0\n" + "a" * 131073 + ",0,1\n",
    ],
    ids=["empty", "blank", "header-only", "header-no-newline", "blank-lines-interleaved",
         "plus-label", "inconsistent-label", "quoted-crlf", "bare-cr", "long-id"],
)
def test_bulk_parser_matches_the_reference_parser_on_edge_files(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_load(path)


def plain_file_lines(shape):
    """A header and 300 four-feature candidates of 8 contiguous rows each,
    reshaped: rows interleaved (each candidate in two runs), a blank line,
    or both."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(300):
        prefix = f"train-{i:04d},{i % 3},"
        rows += [prefix + ",".join(map(repr, r)) for r in rng.standard_normal((8, 4)).tolist()]
    if shape == "blank-lines-interleaved":
        rows = rows[::2] + ["", ""] + rows[1::2]
    elif shape == "interleaved":
        rows = rows[::2] + rows[1::2]
    elif shape == "blank-line":
        rows = rows[:100] + [""] + rows[100:]
    return ["candidate_id,label," + ",".join(f"f{i}" for i in range(4)), *rows]


@pytest.mark.parametrize(
    "shape",
    ["benchmark-shape", "write-dataset", "blank-lines-interleaved", "interleaved", "blank-line"],
)
def test_plain_file_takes_the_bulk_path(tmp_path, monkeypatch, shape):
    """The file shape every writer produces loads without the reference
    parser; a plain file with a blank line or with a candidate's rows in
    two runs is read by it."""
    if shape == "write-dataset":
        write_dataset(small_config(train_candidates=30, test_candidates=10), tmp_path)
        paths = [tmp_path / "train.csv", tmp_path / "test.csv"]
    else:
        paths = [tmp_path / "train.csv"]
        paths[0].write_text("\n".join(plain_file_lines(shape)) + "\n", encoding="utf-8")
    bulk = shape in ("benchmark-shape", "write-dataset")
    for path in paths:
        expected = datagen._load_csv_rows(path)
        with monkeypatch.context() as patch:
            patch.setattr(datagen, "CHUNK_CHARS", 1000)
            spy = mock.Mock(wraps=datagen._load_csv_rows)
            patch.setattr(datagen, "_load_csv_rows", spy)
            loaded = load_csv(path)
        assert spy.call_count == (0 if bulk else 1)
        assert [(c.id, c.true_label) for c in loaded] == [(c.id, c.true_label) for c in expected]
        assert all(np.array_equal(a.features, b.features) for a, b in zip(loaded, expected))


# --- link to selection criteria ----------------------------------------------

def test_ambiguous_candidates_have_higher_full_diversity():
    cfg = standard_benchmark(seed=1)
    train, _, meta = generate(cfg)
    model = pretrain_m0(
        (collect_patches(train, {c.id: c.true_label for c in train})),
        TrainConfig(),
        np.random.default_rng(0),
    )
    flagged = set(meta["ambiguous"])
    crit = CriteriaConfig(lambda1=0.0, lambda2=1.0, alpha=1.0)
    for label in (0, 1):
        amb, clean = [], []
        for c in train:
            if c.true_label != label:
                continue
            d = score_candidate(predict(model, c), crit).score
            (amb if c.id in flagged else clean).append(d)
        assert np.mean(amb) > np.mean(clean)
