import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar import cli, loop
from aftstar.cli import main
from aftstar.datagen import DatagenConfig
from aftstar.errors import InvariantError
from aftstar.learner import TrainConfig


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def generate_config(out_dir, **overrides):
    datagen = dict(
        num_classes=2,
        class_weights=[0.2, 0.8],
        train_candidates=40,
        test_candidates=16,
        patches_per_candidate=4,
        feature_dim=4,
        seed=1,
    )
    datagen.update(overrides)
    return {"schema_version": 1, "output_dir": str(out_dir), "datagen": datagen}


def run_config(data_dir, out_dir, strategy, seeds=(1,), budget=20):
    return {
        "schema_version": 1,
        "dataset": str(data_dir),
        "strategy": strategy,
        "learner": {"epochs": 2, "minibatch_size": 16},
        "stop": {"query_budget": budget},
        "seeds": list(seeds),
        "output_dir": str(out_dir),
    }


@pytest.fixture()
def dataset_dir(tmp_path):
    data = tmp_path / "data"
    cfg = write_config(tmp_path / "gen.json", generate_config(data))
    assert main(["generate", "--config", cfg]) == 0
    return data


# --- generate -----------------------------------------------------------------

def test_generate_row_counts(tmp_path):
    data = tmp_path / "data"
    cfg = write_config(tmp_path / "gen.json", generate_config(data))
    assert main(["generate", "--config", cfg]) == 0
    train_rows = (data / "train.csv").read_text().splitlines()
    test_rows = (data / "test.csv").read_text().splitlines()
    assert len(train_rows) == 1 + 40 * 4
    assert len(test_rows) == 1 + 16 * 4
    assert (data / "meta.json").exists()


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path / "ga.json", generate_config(a))
    cfg_b = write_config(tmp_path / "gb.json", generate_config(b))
    assert main(["generate", "--config", cfg_a]) == 0
    assert main(["generate", "--config", cfg_b]) == 0
    for name in ("train.csv", "test.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_invalid_geometry_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "gen.json",
        generate_config(
            tmp_path / "d",
            num_classes=3,
            class_weights=[0.3, 0.3, 0.4],
            feature_dim=1,
        ),
    )
    assert main(["generate", "--config", cfg]) == 1


def test_unknown_config_keys_rejected(tmp_path):
    payload = generate_config(tmp_path / "d")
    payload["surprise"] = True
    cfg = write_config(tmp_path / "gen.json", payload)
    assert main(["generate", "--config", cfg]) == 1


def test_missing_schema_version_rejected(tmp_path):
    payload = generate_config(tmp_path / "d")
    del payload["schema_version"]
    cfg = write_config(tmp_path / "gen.json", payload)
    assert main(["generate", "--config", cfg]) == 1


@pytest.mark.parametrize("command", ["generate", "run", "compare"])
def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"schema_version": 1, "output_dir": "caf\u00e9"}'.encode("latin-1"))
    assert main([command, "--config", str(cfg)]) == 1
    assert "config error: cannot read config" in capsys.readouterr().err


# --- run ------------------------------------------------------------------------

def test_run_rft_row_count(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = write_config(
        tmp_path / "run.json",
        run_config(dataset_dir, out, {"name": "RFT", "batch_size": 5}, budget=20),
    )
    assert main(["run", "--config", cfg]) == 0
    with open(out / "curve_RFT_seed1.csv", newline="") as fh:
        header, *records = csv.reader(fh)
    assert header[0] == "step"
    assert len(records) == 5  # baseline + 4 steps
    summary = json.loads((out / "summary_RFT_seed1.json").read_text())
    assert set(summary) == {"strategy", "seed", "alc", "final_auc", "total_queries"}
    assert summary["total_queries"] == 20
    assert (out / "audit_RFT_seed1.jsonl").exists()


@pytest.mark.parametrize(
    "meta",
    ["{}", "[]", '{"config": {"num_classes": "x"}}', '{"config": {"num_classes": 1}}',
     '{"config": {"num_classes": 3}}', "{not json"],
    ids=["empty-object", "array", "num_classes-string", "num_classes-1", "num_classes-3",
         "not-json"],
)
def test_class_count_comes_from_the_labels_not_meta_json(dataset_dir, tmp_path, meta):
    (dataset_dir / "meta.json").write_text(meta)
    out = tmp_path / "runs"
    cfg = write_config(
        tmp_path / "run.json", run_config(dataset_dir, out, {"name": "RFT", "batch_size": 5})
    )
    assert main(["run", "--config", cfg]) == 0
    assert json.loads((out / "summary_RFT_seed1.json").read_text())["total_queries"] == 20


def test_run_resolves_named_criterion(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    strategy = {"name": "AFT_star", "criterion": "entropy^α_ω", "batch_size": 5}
    cfg = write_config(
        tmp_path / "run.json", run_config(dataset_dir, out, strategy, budget=10)
    )
    assert main(["run", "--config", cfg]) == 0
    summary = json.loads(
        (out / "summary_AFT_star-entropy_a_w_seed1.json").read_text()
    )
    assert summary["strategy"] == "AFT_star-entropy^a_w"


def test_run_unknown_strategy_is_config_error(dataset_dir, tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        run_config(dataset_dir, tmp_path / "o", {"name": "XFT", "batch_size": 5}),
    )
    assert main(["run", "--config", cfg]) == 1


def test_run_byte_identical_outputs(dataset_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    strategy = {"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": 5}
    cfg_a = write_config(
        tmp_path / "ra.json", run_config(dataset_dir, out_a, strategy, seeds=(2,))
    )
    cfg_b = write_config(
        tmp_path / "rb.json", run_config(dataset_dir, out_b, strategy, seeds=(2,))
    )
    assert main(["run", "--config", cfg_a]) == 0
    assert main(["run", "--config", cfg_b]) == 0
    for name in (
        "curve_AFT_star-entropy_a_w_seed2.csv",
        "summary_AFT_star-entropy_a_w_seed2.json",
        "audit_AFT_star-entropy_a_w_seed2.jsonl",
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_flag_overrides_config(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = write_config(
        tmp_path / "run.json",
        run_config(dataset_dir, out, {"name": "RFT", "batch_size": 5}, seeds=(1, 2)),
    )
    assert main(["run", "--config", cfg, "--seed", "9"]) == 0
    assert (out / "curve_RFT_seed9.csv").exists()
    assert not (out / "curve_RFT_seed1.csv").exists()


def test_output_env_var_used_as_default(dataset_dir, tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("AFTSTAR_OUTPUT_DIR", str(out))
    payload = run_config(dataset_dir, out, {"name": "RFT", "batch_size": 5})
    del payload["output_dir"]
    cfg = write_config(tmp_path / "run.json", payload)
    assert main(["run", "--config", cfg]) == 0
    assert (out / "curve_RFT_seed1.csv").exists()


# --- compare ----------------------------------------------------------------------

def compare_config(data_dir, out_dir, strategies, seeds=(1, 2)):
    return {
        "schema_version": 1,
        "dataset": str(data_dir),
        "strategies": strategies,
        "learner": {"epochs": 2, "minibatch_size": 16},
        "stop": {"query_budget": 20},
        "seeds": list(seeds),
        "output_dir": str(out_dir),
    }


def test_compare_grid_matches_run_summaries(dataset_dir, tmp_path):
    out = tmp_path / "cmp"
    strategies = [
        {"name": "RFT", "batch_size": 5},
        {"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": 5},
    ]
    cfg = write_config(
        tmp_path / "cmp.json", compare_config(dataset_dir, out, strategies)
    )
    assert main(["compare", "--config", cfg]) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert len(comparison["cells"]) == 2
    assert sum(cell["best"] for cell in comparison["cells"]) == 1
    for cell in comparison["cells"]:
        slug = cell["strategy"].replace("^", "_")
        alcs = []
        for seed in (1, 2):
            summary = json.loads((out / f"summary_{slug}_seed{seed}.json").read_text())
            alcs.append(summary["alc"])
        assert cell["mean_alc"] == pytest.approx(sum(alcs) / len(alcs), abs=1e-15)
        assert cell["n_seeds"] == 2
    header = (out / "comparison.csv").read_text().splitlines()[0]
    assert header == "strategy,mean_alc,sd_alc,n_seeds,best"


def test_compare_single_seed_sd_zero(dataset_dir, tmp_path):
    out = tmp_path / "cmp"
    cfg = write_config(
        tmp_path / "cmp.json",
        compare_config(dataset_dir, out, [{"name": "RFT", "batch_size": 5}], seeds=(3,)),
    )
    assert main(["compare", "--config", cfg]) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["cells"][0]["sd_alc"] == 0.0


def test_compare_deterministic(dataset_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    strategies = [{"name": "RFT", "batch_size": 5}]
    cfg_a = write_config(
        tmp_path / "ca.json", compare_config(dataset_dir, out_a, strategies)
    )
    cfg_b = write_config(
        tmp_path / "cb.json", compare_config(dataset_dir, out_b, strategies)
    )
    assert main(["compare", "--config", cfg_a]) == 0
    assert main(["compare", "--config", cfg_b]) == 0
    assert (out_a / "comparison.csv").read_bytes() == (out_b / "comparison.csv").read_bytes()
    assert (out_a / "comparison.json").read_bytes() == (out_b / "comparison.json").read_bytes()


def test_compare_parallel_jobs_match_serial(dataset_dir, tmp_path):
    out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
    strategies = [
        {"name": "RFT", "batch_size": 5},
        {"name": "AFT", "criterion": "entropy", "batch_size": 5},
    ]
    cfg_a = write_config(
        tmp_path / "ca.json", compare_config(dataset_dir, out_a, strategies)
    )
    cfg_b = write_config(
        tmp_path / "cb.json", compare_config(dataset_dir, out_b, strategies)
    )
    assert main(["compare", "--config", cfg_a]) == 0
    assert main(["compare", "--config", cfg_b, "--jobs", "4"]) == 0
    assert (out_a / "comparison.csv").read_bytes() == (out_b / "comparison.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_run_failing_mid_way_leaves_no_artifacts(
    dataset_dir, tmp_path, monkeypatch, capsys, command
):
    run_step, steps = loop.run_step, []

    def step_then_fail(*args, **kwargs):
        steps.append(1)
        if len(steps) == 2:
            raise InvariantError("injected failure")
        return run_step(*args, **kwargs)

    monkeypatch.setattr(loop, "run_step", step_then_fail)
    out = tmp_path / "o"
    strategy = {"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": 5}
    if command == "run":
        payload = run_config(dataset_dir, out, strategy)
    else:
        payload = compare_config(dataset_dir, out, [strategy])
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == 2
    assert "error: injected failure" in capsys.readouterr().err
    assert len(steps) == 2
    assert list(out.iterdir()) == []


def test_missing_dataset_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        run_config(tmp_path / "nope", tmp_path / "o", {"name": "RFT", "batch_size": 5}),
    )
    assert main(["run", "--config", cfg]) == 1


def inline_dataset(**fields):
    return {**generate_config("")["datagen"], **fields}


def inline_run_config(out_dir):
    datagen = generate_config(out_dir)["datagen"]
    return {
        "schema_version": 1,
        "dataset": datagen,
        "strategy": {"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": 5},
        "learner": {"epochs": 2, "minibatch_size": 16},
        "stop": {"query_budget": 20},
        "seeds": [1],
        "output_dir": str(out_dir),
    }


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("stop", "query_budget", 1.5),
        ("stop", "query_budget", float("nan")),
        ("learner", "epochs", 1.5),
        ("learner", "minibatch_size", 2.5),
        ("learner", "learning_rate", float("nan")),
        ("strategy", "omega", 1.5),
        ("strategy", "batch_size", 10.7),
        ("dataset", "patches_per_candidate", 2.5),
        ("strategy", "lambda1", float("inf")),
        ("strategy", "lambda2", float("inf")),
        ("learner", "learning_rate", float("inf")),
        ("dataset", "class_center_separation", float("inf")),
        ("dataset", "candidate_center_spread", float("inf")),
        ("dataset", "patch_spread", float("inf")),
    ],
)
def test_non_integer_counts_and_nan_are_config_errors(tmp_path, capsys, section, field, value):
    payload = inline_run_config(tmp_path / "o")
    payload[section][field] = value
    cfg = write_config(tmp_path / "run.json", payload)
    assert main(["run", "--config", cfg]) == 1
    assert f"config error: {section}: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, edit",
    [
        ("strategies[0]", lambda cfg: cfg["strategies"][0].update(batch_size="x")),
        ("learner", lambda cfg: cfg["learner"].update(learning_rate="0.1")),
        ("seeds", lambda cfg: cfg.update(seeds=["a"])),
        ("output_dir", lambda cfg: cfg.update(output_dir=5)),
        ("output_dir", lambda cfg: cfg.update(output_dir=["a"])),
        ("strategies[0]", lambda cfg: cfg["strategies"][0].update(name="AFT", criterion=5)),
        ("schema_version", lambda cfg: cfg.update(schema_version=True)),
        ("learner", lambda cfg: cfg["learner"].update(learning_rate=True)),
        ("learner", lambda cfg: cfg["learner"].update(momentum=False)),
        ("strategies[0]", lambda cfg: cfg["strategies"][0].update(name="AFT_star", alpha=True)),
        ("strategies[0]", lambda cfg: cfg["strategies"][0].update(name="AFT_star", lambda1=True)),
        ("stop", lambda cfg: cfg["stop"].update(auc_target=True)),
        ("oracle", lambda cfg: cfg.update(oracle={"label_noise_rate": False})),
        ("dataset", lambda cfg: cfg.update(dataset=inline_dataset(class_center_separation=True))),
        ("dataset", lambda cfg: cfg.update(dataset=inline_dataset(ambiguous_fraction=True))),
        ("dataset", lambda cfg: cfg.update(dataset=inline_dataset(class_weights=[True, False]))),
    ],
    ids=["batch_size", "learning_rate", "seeds", "output_dir-5", "output_dir-list", "criterion",
         "schema_version-true", "learning_rate-true", "momentum-false", "alpha-true",
         "lambda1-true", "auc_target-true", "label_noise_rate-false",
         "class_center_separation-true", "ambiguous_fraction-true", "class_weights-booleans"],
)
def test_wrongly_typed_values_are_config_errors(dataset_dir, tmp_path, capsys, section, edit):
    payload = compare_config(dataset_dir, tmp_path / "o", [{"name": "RFT", "batch_size": 5}])
    edit(payload)
    cfg = write_config(tmp_path / "cmp.json", payload)
    assert main(["compare", "--config", cfg]) == 1
    assert f"config error: {section}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, edit",
    [
        ("seeds", lambda cfg: cfg.update(seeds=[1.5])),
        ("seeds", lambda cfg: cfg.update(seeds=[True])),
        ("seeds", lambda cfg: cfg.update(seeds=[-1])),
        ("positive_class", lambda cfg: cfg.update(positive_class=True)),
        ("positive_class", lambda cfg: cfg.update(positive_class=1.5)),
    ],
    ids=["seed-1.5", "seed-true", "seed-negative", "positive_class-true", "positive_class-1.5"],
)
def test_seeds_and_positive_class_must_be_non_negative_integers(tmp_path, capsys, section, edit):
    payload = inline_run_config(tmp_path / "o")
    edit(payload)
    cfg = write_config(tmp_path / "run.json", payload)
    assert main(["run", "--config", cfg]) == 1
    assert f"config error: {section}: " in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("summary_*"))


def test_test_split_missing_a_class_is_config_error(tmp_path, capsys):
    from aftstar.datagen import DatagenConfig, generate, write_csv

    train, test, _ = generate(
        DatagenConfig(
            num_classes=3,
            class_weights=(0.3, 0.3, 0.4),
            train_candidates=30,
            test_candidates=15,
            patches_per_candidate=3,
            feature_dim=4,
            seed=1,
        )
    )
    data = tmp_path / "data"
    data.mkdir()
    write_csv(train, data / "train.csv")
    write_csv([c for c in test if c.true_label != 2], data / "test.csv")
    cfg = write_config(
        tmp_path / "run.json", run_config(data, tmp_path / "o", {"name": "RFT", "batch_size": 5})
    )
    assert main(["run", "--config", cfg]) == 1
    assert "config error: the test split has no candidate of class 2" in capsys.readouterr().err


def test_a_stray_huge_train_label_is_a_short_config_error(dataset_dir, tmp_path, capsys):
    from aftstar.datagen import load_csv, write_csv

    path = dataset_dir / "train.csv"
    candidates = load_csv(path)
    candidates[0] = dataclasses.replace(candidates[0], true_label=10**12)
    write_csv(candidates, path)
    payload = run_config(dataset_dir, tmp_path / "o", {"name": "RFT", "batch_size": 5})
    cfg = write_config(tmp_path / "run.json", payload)
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error: the test split has no candidate of class 2, 3, 4 and 999999999996 more" in err
    assert len(err) < 200
    assert not (tmp_path / "o").exists()


def test_a_huge_candidate_id_is_cut_in_a_dim_mismatch_error(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    long_id = "x" * 100_000
    (data / "train.csv").write_text(
        f"candidate_id,label,f0,f1\n{long_id},0,0.5,1.5\nb,1,2.5,3.5\n", encoding="utf-8"
    )
    (data / "test.csv").write_text("candidate_id,label,f0\nt0,0,0.5\nt1,1,1.5\n", encoding="utf-8")
    payload = run_config(data, tmp_path / "o", {"name": "RFT", "batch_size": 1})
    cfg = write_config(tmp_path / "run.json", payload)
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: candidate 't0' has 1 features, candidate 'xxx")
    assert "(100000 characters) has 2" in err
    assert len(err) < 200
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "message, shown",
    [
        ("Unable to allocate 7.45 GiB for an array with shape (1000, 100000000)",
         "error: Unable to allocate 7.45 GiB"),
        ("", "error: MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_running_out_of_memory_is_a_short_runtime_error(
    tmp_path, capsys, monkeypatch, message, shown
):
    import aftstar.datagen as datagen_mod

    def out_of_memory(cfg):
        assert cfg.feature_dim == 100_000_000  # what would have been allocated
        raise MemoryError(message)

    monkeypatch.setattr(datagen_mod, "generate", out_of_memory)
    payload = inline_run_config(tmp_path / "o")
    payload["dataset"]["feature_dim"] = 100_000_000
    assert main(["run", "--config", write_config(tmp_path / "run.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(shown) and len(err) < 200
    assert not (tmp_path / "o").exists()


def exit_at_once(*_):
    os._exit(3)


def test_a_compare_worker_that_dies_is_a_short_runtime_error(
    dataset_dir, tmp_path, capsys, monkeypatch
):
    # Two CPUs at least, so that the jobs go to worker processes and only a
    # worker exits.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_run_one", exit_at_once)
    strategies = [{"name": "RFT", "batch_size": 5}, {"name": "AFT", "batch_size": 5}]
    cfg = write_config(tmp_path / "c.json", compare_config(dataset_dir, tmp_path / "o", strategies))
    assert main(["compare", "--config", cfg, "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A process in the process pool was terminated abruptly")
    assert len(err) < 200


# --- fuzzed config boundary ------------------------------------------------------

def fuzz_base_config():
    """A valid run config on a tiny inline dataset, every optional field set."""
    dataset = dataclasses.asdict(
        DatagenConfig(
            class_weights=(0.5, 0.5),
            train_candidates=12,
            test_candidates=6,
            patches_per_candidate=2,
            feature_dim=2,
        )
    )
    dataset["class_weights"] = list(dataset["class_weights"])
    strategy = {"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": 4,
                "alpha": 0.5, "omega": 2, "lambda1": 1.0, "lambda2": 1.0}
    return {
        "schema_version": 1,
        "dataset": dataset,
        "strategy": strategy,
        "learner": dataclasses.asdict(TrainConfig(epochs=1, minibatch_size=8)),
        "stop": {"query_budget": 8, "auc_target": 1.0},
        "oracle": {"label_noise_rate": 0.0},
        "positive_class": 0,
        "seeds": [1],
        "output_dir": "out",
    }


def value_paths(value, path=()):
    """Every path to a value inside a config, the config itself excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield path + (key,)
        yield from value_paths(inner, path + (key,))


JSON_TYPES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False)),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(0, 2), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
}


JSON_TYPE_OF = {
    type(None): "null", bool: "bool", int: "number", float: "number",
    str: "string", list: "array", dict: "object",
}


@st.composite
def mutated_configs(draw):
    """The base config with one value replaced by a value of another JSON type."""
    cfg = fuzz_base_config()
    path = draw(st.sampled_from(list(value_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    other = draw(st.sampled_from(sorted(set(JSON_TYPES) - {JSON_TYPE_OF[type(parent[path[-1]])]})))
    parent[path[-1]] = draw(JSON_TYPES[other])
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=mutated_configs())
def test_mutated_run_configs_never_raise(tmp_path_factory, cfg):
    work = tmp_path_factory.mktemp("fuzz")
    config = write_config(work / "run.json", cfg)
    with (
        contextlib.chdir(work),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        assert main(["run", "--config", config]) in (0, 1, 2)


# --- worker count ---------------------------------------------------------------

class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    each job in this process, so no worker process is started."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture()
def recording_executor(monkeypatch):
    RecordingExecutor.created = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return RecordingExecutor.created


@pytest.mark.parametrize(
    "n_jobs, n_tasks, cpus, expected",
    [
        (10000, 8, 64, [8]),  # bounded by the job count
        (10000, 8, 3, [3]),  # bounded by the CPU count
        (2, 8, 64, [2]),
        (4, 8, None, []),  # unknown CPU count: serial
        (4, 1, 64, []),  # one job: serial
        (1, 8, 64, []),
    ],
)
def test_worker_count_is_bounded(monkeypatch, recording_executor, n_jobs, n_tasks, cpus, expected):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_run_one", lambda i: {"job": i})
    results = cli._execute([(i,) for i in range(n_tasks)], n_jobs)
    assert results == [{"job": i} for i in range(n_tasks)]
    assert recording_executor == expected


def test_compare_with_huge_jobs_uses_one_worker_per_job(
    dataset_dir, tmp_path, monkeypatch, recording_executor
):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    strategies = [{"name": "RFT", "batch_size": 5}, {"name": "AFT", "batch_size": 5}]
    cfg = write_config(tmp_path / "c.json", compare_config(dataset_dir, tmp_path / "o", strategies))
    assert main(["compare", "--config", cfg, "--jobs", "10000"]) == 0
    assert recording_executor == [4]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_config_error(dataset_dir, tmp_path, capsys, command, jobs):
    if command == "run":
        payload = run_config(dataset_dir, tmp_path / "o", {"name": "RFT", "batch_size": 5})
    else:
        payload = compare_config(dataset_dir, tmp_path / "o", [{"name": "RFT", "batch_size": 5}])
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg, "--jobs", jobs]) == 1
    assert "config error: --jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- strategy sections, repeats and labels --------------------------------------

def one_strategy_config(command, data_dir, out_dir, strategy, seeds=(1,)):
    if command == "run":
        return run_config(data_dir, out_dir, strategy, seeds=seeds)
    return compare_config(data_dir, out_dir, [strategy], seeds=seeds)


@pytest.mark.parametrize("command, section", [("run", "strategy"), ("compare", "strategies[0]")])
@pytest.mark.parametrize(
    "strategy, message",
    [
        ({"name": "AFT_star", "batch_size": 5, "beta": 0.5}, "unknown keys ['beta']"),
        ({"name": "AFT_star", "criterion": "entropy"}, "missing keys ['batch_size']"),
    ],
    ids=["unknown-key", "no-batch-size"],
)
def test_strategy_section_keys_are_checked(
    dataset_dir, tmp_path, capsys, command, section, strategy, message
):
    payload = one_strategy_config(command, dataset_dir, tmp_path / "o", strategy)
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == 1
    assert f"config error: {section}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_repeated_seed_is_config_error(dataset_dir, tmp_path, capsys, command):
    strategy = {"name": "RFT", "batch_size": 5}
    payload = one_strategy_config(command, dataset_dir, tmp_path / "o", strategy, seeds=(2, 1, 1))
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == 1
    assert "config error: seeds[2]: 1 repeats seeds[1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "seeds, message",
    [
        ("not a list", "seeds must be a non-empty list"),
        ([], "seeds must be a non-empty list"),
        (["a"], "seeds: seed must be"),
        ([2, 2], "seeds[1]: 2 repeats seeds[0]"),
    ],
    ids=["string", "empty", "not-integer", "repeated"],
)
def test_config_seeds_are_checked_when_seed_overrides_them(
    dataset_dir, tmp_path, capsys, command, seeds, message
):
    strategy = {"name": "RFT", "batch_size": 5}
    payload = one_strategy_config(command, dataset_dir, tmp_path / "o", strategy)
    payload["seeds"] = seeds
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg, "--seed", "1"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_budget_zero_is_config_error(dataset_dir, tmp_path, capsys, command):
    strategy = {"name": "RFT", "batch_size": 5}
    payload = one_strategy_config(command, dataset_dir, tmp_path / "o", strategy)
    payload["stop"] = {"query_budget": 0}
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == 1
    assert "config error: stop: query_budget must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_auc_target_met_by_the_start_model_still_makes_the_first_query(
    dataset_dir, tmp_path, command
):
    out = tmp_path / "o"
    payload = one_strategy_config(command, dataset_dir, out, {"name": "RFT", "batch_size": 5})
    payload["stop"] = {"query_budget": 20, "auc_target": 0.01}
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == 0
    with open(out / "curve_RFT_seed1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the baseline row, then the first step's, whose AUC meets the target
    assert [int(row["queries_cum"]) for row in rows] == [0, 5]


def test_repeated_strategy_label_in_compare_is_config_error(dataset_dir, tmp_path, capsys):
    strategies = [
        {"name": "RFT", "batch_size": 5},
        {"name": "AFT_star", "batch_size": 5},
        {"name": "AFT_star", "criterion": "entropy^α_ω", "batch_size": 10},
    ]
    payload = compare_config(dataset_dir, tmp_path / "o", strategies)
    cfg = write_config(tmp_path / "c.json", payload)
    assert main(["compare", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error: strategies[2]: 'AFT_star-entropy^a_w' repeats strategies[1]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_negative_label_in_either_split_exits_2_naming_its_line(
    dataset_dir, tmp_path, capsys, split
):
    from aftstar.datagen import load_csv, write_csv

    path = dataset_dir / f"{split}.csv"
    candidates = load_csv(path)
    first = candidates[1]
    candidates[1] = dataclasses.replace(first, true_label=-1)
    write_csv(candidates, path)
    line = 2 + len(first.features)  # the header, then the first candidate's rows
    payload = run_config(dataset_dir, tmp_path / "o", {"name": "RFT", "batch_size": 5})
    cfg = write_config(tmp_path / "run.json", payload)
    assert main(["run", "--config", cfg]) == 2
    assert f"error: {path}:{line}: label -1 is negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
