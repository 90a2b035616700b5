import io
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
        ("test_candidates", 0),
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

def split_candidates(stack):
    """Each candidate of a loaded split as ``(id, label, features)``."""
    return [
        (cid, label, stack.rows[first : first + m, :-1])
        for cid, label, first, m in zip(
            stack.ids, stack.true_labels.tolist(), stack.first.tolist(), stack.counts.tolist()
        )
    ]


def test_round_trip_preserves_features(tmp_path):
    train, _, _ = generate(small_config(train_candidates=10, test_candidates=1))
    path = tmp_path / "data.csv"
    write_csv(train, path)
    loaded = split_candidates(load_csv(path))
    assert [cid for cid, _, _ in loaded] == [c.id for c in train]
    for orig, (_, label, features) in zip(train, loaded):
        assert label == orig.true_label
        assert features.tobytes() == orig.features.tobytes()


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


@pytest.mark.parametrize(
    "row, message",
    [
        ("x," + "7" * 5000 + ",1.5", "bad.csv:2: label '" + "7" * 40 + "'... (5000 characters) is not an integer"),
        ("x,-" + "7" * 4000 + ",1.5", "bad.csv:2: label -" + "7" * 39 + "... (4001 characters) is negative"),
        ("i" * 131071 + ",0,1.5\n" + "i" * 131071 + ",1,2.5",
         "bad.csv:3: candidate '" + "i" * 40 + "'... (131071 characters) has inconsistent labels 0 and 1"),
        ("x,1,1.5\nx," + "9" * 45 + ",2.5",
         "bad.csv:3: candidate 'x' has inconsistent labels 1 and " + "9" * 40 + "... (45 characters)"),
    ],
    ids=["long-bad-label", "long-negative-label", "long-id-inconsistent", "long-second-label"],
)
def test_format_errors_cut_an_over_long_field(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text("candidate_id,label,f0\n" + row + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load_csv(path)
    assert str(info.value) == f"{path.parent}/{message}"
    assert len(message) < 200


def test_header_only_gives_empty_set(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("candidate_id,label,f0,f1\n")
    stack = load_csv(path)
    assert len(stack) == 0 and stack.rows.shape == (0, 3) and stack.true_labels.shape == (0,)


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
    by_id = {cid: features for cid, _, features in split_candidates(load_csv(path))}
    assert by_id["a"][:, 0].tolist() == [1.0, 3.0]
    assert len(by_id["b"]) == 1


def test_load_dataset_and_infer_classes(tmp_path):
    write_dataset(small_config(train_candidates=20, test_candidates=5), tmp_path)
    train, test, meta = load_dataset(tmp_path)
    assert len(train) == 20 and len(test) == 5
    assert meta["config"]["num_classes"] == 2
    assert infer_num_classes(train.true_labels) == 2


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
        return load(path)
    except DatasetFormatError as exc:
        return str(exc)


def assert_same_stack(a, b):
    """Two loaded splits hold the same candidates, field by field."""
    assert a.ids == b.ids
    for field in ("true_labels", "first", "counts"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.tolist() == y.tolist()
    for stack in (a, b):
        rows = stack.rows
        assert rows.dtype == np.float64 and rows.ndim == 2
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert (rows[:, -1] == 1.0).all()  # the bias column
        assert stack.first.tolist() == (np.cumsum(stack.counts) - stack.counts).tolist()
    # tobytes tells -0.0 from 0.0
    assert a.rows.shape == b.rows.shape and a.rows.tobytes() == b.rows.tobytes()


def assert_same_load(path):
    fast = loaded_or_error(load_csv, path)
    reference = loaded_or_error(datagen._load_csv_rows, path)
    if isinstance(reference, str) or isinstance(fast, str):
        assert fast == reference
        return
    assert_same_stack(fast, reference)


QUIRKS = [
    "quoted-id", "crlf", "bare-cr", "blank-line", "label-form", "bad-label", "inconsistent-label",
    "width", "odd-value", "long-field", "not-utf8", "header", "non-ascii-id", "wide-id",
    "wide-label", "odd-id", "padding",
]
ODD_VALUES = [
    "-0", " 3", "1_0.5", "1e309", "nan", "inf", "-inf", "abc", "", "0x10", "\x1c3", "3\x1f",
]


@st.composite
def csv_files(draw):
    """Dataset CSV bytes: a plain file, or one with up to three quirks that
    the bulk parser must read as the reference does or leave to it, each
    on about half of the rows: quoted ids (with commas and quotes in
    them), CRLF or bare CR line ends, blank lines, other spellings of a
    label, a bad or inconsistent label, a wrong width, a non-numeric or
    non-finite value, an over-long field, a byte that is not UTF-8, or a
    bad header; or what numpy's text reader could read otherwise: a
    character that is not ASCII, a NUL or a ``#`` in an id, an id of
    63-65 characters or a label of 19-21 or 63-65 (leading zeros), or a
    tab or space around an id, a label or a value. About half of the
    files end without a line end."""
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
        if quirk("non-ascii-id"):
            odd = draw(st.sampled_from(["\u00e9", "\u2028", "\x85", "\U0001f600"]))
            cid = draw(st.sampled_from([odd + cid, cid + odd]))
        if quirk("wide-id"):
            cid = cid.rjust(draw(st.sampled_from([63, 64, 65])), "x")
        if quirk("odd-id"):
            cid = draw(st.sampled_from([f"c\x00{i}", f"c{i}\x00", f"\x00c{i}", f"#c{i}", f"c{i}#"]))
        label = str((i + quirk("inconsistent-label")) % 3)
        if quirk("label-form"):
            label = draw(st.sampled_from([f"+{label}", f" {label}", f"0_{label}"]))
        if quirk("bad-label"):
            label = draw(st.sampled_from(["x", "", "1.0", "9" * 5000, "-1"]))
        if quirk("wide-label"):
            label = label.rjust(draw(st.sampled_from([19, 20, 21, 63, 64, 65])), "0")
        values = draw(st.lists(finite, min_size=d, max_size=d))
        if quirk("width"):
            values = values[1:] if draw(st.booleans()) else values + ["1.0"]
        if values and quirk("odd-value"):
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_VALUES))
        row = [cid, label, *values]
        if quirk("padding"):
            at = draw(st.integers(0, len(row) - 1))
            pad = st.sampled_from(["", " ", "\t"])
            row[at] = draw(pad) + row[at] + draw(pad)
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
        "candidate_id,label,f0\n\n\n",
        "candidate_id,label,f0\na,0,1\n \na,0,2\n",
        "candidate_id,label,f0\na,0,1\n\t\n",
        "candidate_id,label,f0\na,0,1",
    ],
    ids=["empty", "blank", "header-only", "header-no-newline", "blank-lines-interleaved",
         "plus-label", "inconsistent-label", "quoted-crlf", "bare-cr", "long-id",
         "blank-lines-only", "space-line", "tab-line", "no-final-newline"],
)
def test_bulk_parser_matches_the_reference_parser_on_edge_files(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_load(path)


def plain_file_lines(shape):
    """A header and 300 four-feature candidates of 8 contiguous rows each,
    reshaped: rows interleaved (each candidate in two runs), one or many
    blank lines, or both."""
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
    elif shape == "blank-lines":  # some chunks hold only blank lines
        rows = rows[:100] + [""] * 3000 + rows[100:]
    return ["candidate_id,label," + ",".join(f"f{i}" for i in range(4)), *rows]


@pytest.mark.parametrize(
    "shape",
    ["benchmark-shape", "write-dataset", "blank-lines-interleaved", "interleaved", "blank-line",
     "blank-lines"],
)
def test_plain_file_takes_the_bulk_path(tmp_path, monkeypatch, shape):
    """The file shape every writer produces, and that shape with blank
    lines, loads without the reference parser; a plain file with a
    candidate's rows in two runs is read by it."""
    if shape == "write-dataset":
        write_dataset(small_config(train_candidates=30, test_candidates=10), tmp_path)
        paths = [tmp_path / "train.csv", tmp_path / "test.csv"]
    else:
        paths = [tmp_path / "train.csv"]
        paths[0].write_text("\n".join(plain_file_lines(shape)) + "\n", encoding="utf-8")
    bulk = shape in ("benchmark-shape", "write-dataset", "blank-line", "blank-lines")
    for path in paths:
        expected = datagen._load_csv_rows(path)
        with monkeypatch.context() as patch:
            patch.setattr(datagen, "CHUNK_CHARS", 1000)
            spy = mock.Mock(wraps=datagen._load_csv_rows)
            patch.setattr(datagen, "_load_csv_rows", spy)
            loaded = load_csv(path)
        assert spy.call_count == (0 if bulk else 1)
        assert_same_stack(loaded, expected)


# --- the numpy text reader the bulk parser rests on ----------------------------

def bulk_reader(tmp_path, d):
    """``np.loadtxt`` as the bulk parser calls it on a file of ``d``
    features: a function of a chunk's text."""
    path = tmp_path / "spy.csv"
    header = ",".join(["candidate_id", "label"] + [f"f{i}" for i in range(d)])
    path.write_text(header + "\na,0" + ",1" * d)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
        assert datagen._load_plain_csv(path) is not None
    [(_, options)] = [(call.args, call.kwargs) for call in spy.call_args_list]
    return lambda text: np.loadtxt(io.StringIO(text), **options)


SPELLINGS = ["-0", "0", "1e-320", "4.9e-324", "1e309", "-1e309", " 3", "3 ", "\t3", "1_0.5",
             "0x10", "nan", "-nan", "inf", "Infinity", ".5", "5.", "+.5e-3", "1" * 25 + ".5",
             "", " ", "1e", "e1", "--1", "1d5", "1" * 400, "\x0b3", "3\x0c", "\x1c3"]


def assert_reads_as_float(read, text):
    """``read`` gives ``float(text)`` to the bit, or raises ValueError, on
    a value the bulk parser does not send back."""
    if any(c in text for c in datagen.NOT_BULK):
        return
    try:
        value = read(f"a,0,{text}\n")["x"]
    except ValueError:
        return
    assert value.shape == (1, 1)
    assert value.tobytes() == np.array([float(text)]).tobytes(), repr(text)


@settings(max_examples=300, deadline=None)
@given(text=st.floats().map(repr) | st.sampled_from(SPELLINGS))
def test_loadtxt_reads_a_value_as_float_does_or_raises_value_error(tmp_path_factory, text):
    assert_reads_as_float(bulk_reader(tmp_path_factory.mktemp("spy"), 1), text)


def test_loadtxt_reads_any_ascii_character_as_float_and_csv_reader_do(tmp_path):
    """Around any ASCII character but the delimiter and the line end, a
    value reads as ``float`` reads it, and an id or a label holds its text
    as ``csv.reader`` does. Where the reader and ``float`` part, on the
    separators \\x1c-\\x1f, which only the reader skips as white space,
    the bulk parser sends the file back."""
    read = bulk_reader(tmp_path, 1)
    for c in map(chr, range(128)):
        if c not in ",\n":  # the delimiter and the line end
            for text in (c, c + "3", "3" + c, "3" + c + "3", c + "1e5" + c):
                assert_reads_as_float(read, text)
                if c not in datagen.NOT_BULK:
                    table = read(f"{text},{text},1\n")
                    assert table[["id", "label"]].tolist() == [(text.encode(),) * 2], repr(text)


@pytest.mark.parametrize("column", [0, 1])
def test_a_field_of_full_width_is_what_the_width_guard_finds(tmp_path, column):
    read = bulk_reader(tmp_path, 2)
    for n in range(1, 130):
        row = ["a", "0", "1", "2"]
        row[column] = row[column].rjust(n, "0")
        field = read(",".join(row) + "\n")[["id", "label"][column]]
        cut = np.strings.str_len(field).max() == field.itemsize
        assert cut == (n >= field.itemsize), n
        if not cut:
            assert field.astype(str).tolist() == [row[column]]


def test_a_one_line_chunk_gives_one_row(tmp_path):
    read = bulk_reader(tmp_path, 3)
    for text in ("a,0,1,2,3", "a,0,1,2,3\n", "\n\na,0,1,2,3\n\n"):
        table = read(text)
        assert table.shape == (1,) and table["x"].tolist() == [[1.0, 2.0, 3.0]]
        assert table["id"].tolist() == [b"a"] and table["label"].tolist() == [b"0"]


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
