import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import os
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftstar import cli, loop
from aftstar.cli import main
from aftstar.datagen import DatagenConfig, generate
from aftstar.errors import InvariantError
from aftstar.learner import TrainConfig
from aftstar.pool import CandidateStack


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


def set_cpus(monkeypatch, usable, count):
    """Let ``cli`` see ``count`` CPUs, of which this process may run on
    ``usable``; ``usable=None`` stands for a platform without
    ``os.sched_getaffinity``."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: count)
    if usable is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            cli.os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False
        )


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


def test_compare_parallel_jobs_match_serial(dataset_dir, tmp_path, monkeypatch):
    # Two CPUs at least, so that the parallel compare goes to worker processes.
    set_cpus(monkeypatch, 2, 2)
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
    names = sorted(path.name for path in out_a.iterdir())
    assert names == sorted(path.name for path in out_b.iterdir())
    # A curve, a summary and an audit per job, and the two comparison files.
    assert len(names) == 2 * 2 * 3 + 2
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_empty_dataset_path_is_config_error(dataset_dir, tmp_path, capsys, monkeypatch, command):
    """An empty path does not read the working directory's files."""
    monkeypatch.chdir(dataset_dir)  # holds a train.csv and a test.csv
    payload = one_strategy_config(command, "", tmp_path / "o", {"name": "RFT", "batch_size": 5})
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == 1
    assert "config error: dataset: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_generate_without_test_candidates_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "gen.json", generate_config(tmp_path / "d", test_candidates=0))
    assert main(["generate", "--config", cfg]) == 1
    assert "config error: datagen: test_candidates must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


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


def dataset_dir_candidates(data_dir):
    """The candidates of the ``dataset_dir`` fixture's files, to edit and
    write back."""
    train, test, _ = generate(DatagenConfig(**generate_config(data_dir)["datagen"]))
    return {"train": train, "test": test}


def test_a_stray_huge_train_label_is_a_short_config_error(dataset_dir, tmp_path, capsys):
    from aftstar.datagen import write_csv

    path = dataset_dir / "train.csv"
    candidates = dataset_dir_candidates(dataset_dir)["train"]
    # 10**30 does not fit a 64-bit integer
    for label, more in ((10**12, "999999999996"), (10**30, "9" * 29 + "6")):
        candidates[0] = dataclasses.replace(candidates[0], true_label=label)
        write_csv(candidates, path)
        payload = run_config(dataset_dir, tmp_path / "o", {"name": "RFT", "batch_size": 5})
        cfg = write_config(tmp_path / "run.json", payload)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"config error: the test split has no candidate of class 2, 3, 4 and {more} more" in err
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
    set_cpus(monkeypatch, 2, 2)
    monkeypatch.setattr(cli, "_run_one", exit_at_once)
    strategies = [{"name": "RFT", "batch_size": 5}, {"name": "AFT", "batch_size": 5}]
    cfg = write_config(tmp_path / "c.json", compare_config(dataset_dir, tmp_path / "o", strategies))
    assert main(["compare", "--config", cfg, "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A process in the process pool was terminated abruptly")
    assert len(err) < 200


def fail_at_then_sleep(failing):
    """A stand-in for ``_run_one`` that fails the job ``failing`` (a
    strategy label and a seed) at once. Every other job marks its start,
    sleeps, and then writes its one artifact."""

    def run(dataset, strategy, *args):
        seed, out_dir = args[-2:]
        if (strategy.label, seed) == failing:
            raise InvariantError(f"job {strategy.label} seed {seed} failed")
        Path(out_dir, "started").mkdir(exist_ok=True)
        Path(out_dir, "started", f"{strategy.label}_{seed}").touch()
        time.sleep(0.3)
        Path(out_dir, f"ran_{strategy.label}_{seed}").touch()
        return {}

    return run


def run_failing_grid(dataset_dir, tmp_path, monkeypatch, failing):
    """A 12-job compare grid (RFT then AFT, seeds 1-6) on 2 workers, whose
    job ``failing`` fails: the exit code, the error output, and the jobs
    that started and those that wrote, each as (label, seed) in grid order."""
    set_cpus(monkeypatch, 2, 2)
    monkeypatch.setattr(cli, "_run_one", fail_at_then_sleep(failing))
    strategies = [{"name": "RFT", "batch_size": 5}, {"name": "AFT", "batch_size": 5}]
    out = tmp_path / "o"
    payload = compare_config(dataset_dir, out, strategies, seeds=range(1, 7))
    cfg = write_config(tmp_path / "c.json", payload)
    code = main(["compare", "--config", cfg, "--jobs", "2"])
    grid = [(label, seed) for label in ("RFT", "AFT-entropy^a_w") for seed in range(1, 7)]
    started = [job for job in grid if (out / "started" / f"{job[0]}_{job[1]}").exists()]
    wrote = [job for job in grid if (out / f"ran_{job[0]}_{job[1]}").exists()]
    return code, grid, started, wrote


def test_a_parallel_grid_stops_at_its_first_failed_job(
    dataset_dir, tmp_path, capsys, monkeypatch
):
    failing = ("RFT", 1)
    code, grid, started, wrote = run_failing_grid(dataset_dir, tmp_path, monkeypatch, failing)
    assert code == 2
    assert "error: job RFT seed 1 failed" in capsys.readouterr().err
    # Of the 11 other jobs, only the one the other worker was running when
    # the first failed may write; every job started after it is skipped.
    assert len(wrote) <= 2 - 1
    assert started == wrote


def test_a_parallel_grid_runs_every_job_before_its_failed_job(
    dataset_dir, tmp_path, capsys, monkeypatch
):
    failing = ("AFT-entropy^a_w", 2)
    code, grid, started, wrote = run_failing_grid(dataset_dir, tmp_path, monkeypatch, failing)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: job AFT-entropy^a_w seed 2 failed")
    position = grid.index(failing)
    assert wrote[:position] == grid[:position]
    # After the failed job, only the one the other worker was running when
    # it failed may have started; no job after it starts from then on.
    assert len(started) - position <= 2 - 1
    assert started == wrote


@pytest.mark.parametrize("command", ["generate", "run", "compare"])
def test_an_integer_of_too_many_digits_is_invalid_json(tmp_path, capsys, command):
    # json.loads refuses an integer of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError.
    path = tmp_path / "c.json"
    path.write_text('{"schema_version": 1, "seeds": [' + "9" * 5000 + "]}")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: invalid JSON: ")
    assert len(err) < 400


LONG = "x" * 3000


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p, s: s.update(name=LONG), "unknown strategy name 'xxx"),
        (lambda p, s: s.update({LONG: 1}), "unknown keys ['xxx"),
        (lambda p, s: s.update(criterion=LONG), "unknown criterion 'xxx"),
        (lambda p, s: s.update(criterion=[1] * 3000), "criterion must be a string, got [1, 1"),
        (lambda p, s: s.update(batch_size=LONG), "batch_size must be an integer, got 'xxx"),
        (lambda p, s: p.update(schema_version=LONG), "schema_version: must be 1 in "),
        (lambda p, s: p.update(seeds=[10**3999, 10**3999]), "seeds[1]: 1000"),
        (lambda p, s: p.update(output_dir=10**3999), "output_dir: must be a path string, got 1000"),
        (lambda p, s: p.update(dataset=LONG), "dataset: cannot load dataset 'xxx"),
    ],
    ids=["name", "unknown-key", "criterion", "criterion-list", "batch_size", "schema_version", "seeds",
         "output_dir", "dataset"],
)
def test_over_long_config_values_are_cut_in_config_errors(
    dataset_dir, tmp_path, capsys, command, edit, message
):
    strategy = {"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": 5}
    payload = one_strategy_config(command, dataset_dir, tmp_path / "o", strategy)
    edit(payload, strategy)
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "characters)" in err and len(err) < 300
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_output_dir_that_cannot_be_made_is_a_short_runtime_error(
    dataset_dir, tmp_path, capsys, command
):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / ("o" * 100) / ("o" * 100) / ("o" * 100)
    strategy = {"name": "RFT", "batch_size": 5}
    payload = one_strategy_config(command, dataset_dir, out, strategy)
    assert main([command, "--config", write_config(tmp_path / "c.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and "Not a directory: " in err
    assert err.rstrip("\n").endswith(f"... ({len(str(out))} characters)") and len(err) < 150


def test_a_boolean_in_a_long_list_value_is_cut_in_its_config_error(tmp_path, capsys):
    payload = inline_run_config(tmp_path / "o")
    payload["learner"]["epochs"] = [True] * 3000
    assert main(["run", "--config", write_config(tmp_path / "c.json", payload)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: learner: epochs must not be a boolean, got [true, true")
    assert err.rstrip("\n").endswith("... (18000 characters)") and len(err) <= 130
    # A short value is repeated whole.
    payload["learner"]["epochs"] = [1, False]
    assert main(["run", "--config", write_config(tmp_path / "c.json", payload)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: learner: epochs must not be a boolean, got [1, false]\n"
    assert not (tmp_path / "o").exists()


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
    """Stands in for ProcessPoolExecutor: records ``max_workers``, the
    initializer's arguments and each submitted job, and runs the
    initializer and each job in this process, so no worker process is
    started."""

    created: list[int] = []
    initargs: list[tuple] = []
    submitted: list[tuple] = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        RecordingExecutor.created.append(max_workers)
        RecordingExecutor.initargs.append(initargs)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        RecordingExecutor.submitted.append((fn, args))
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture()
def recording_executor(monkeypatch):
    RecordingExecutor.created = []
    RecordingExecutor.initargs = []
    RecordingExecutor.submitted = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    # The initializer runs in this process: put the worker's slot back
    # afterwards, and the Ctrl-C handler that it sets to ignore.
    monkeypatch.setattr(cli, "_worker_dataset", None)
    handler = signal.getsignal(signal.SIGINT)
    yield RecordingExecutor.created
    signal.signal(signal.SIGINT, handler)


@pytest.mark.parametrize(
    "n_jobs, n_tasks, cpus, expected",
    [
        (10000, 8, 64, [8]),  # bounded by the job count
        (10000, 8, 3, [3]),  # bounded by the CPU count
        (2, 8, 64, [2]),
        (4, 8, None, []),  # no CPU affinity and an unknown CPU count: serial
        (4, 1, 64, []),  # one job: serial
        (1, 8, 64, []),
    ],
)
def test_worker_count_is_bounded(monkeypatch, recording_executor, n_jobs, n_tasks, cpus, expected):
    set_cpus(monkeypatch, cpus, cpus)
    monkeypatch.setattr(cli, "_run_one", lambda dataset, i: {"job": i, "dataset": dataset})
    results = cli._execute(("train", "test"), [(i,) for i in range(n_tasks)], n_jobs)
    assert results == [{"job": i, "dataset": ("train", "test")} for i in range(n_tasks)]
    assert recording_executor == expected


@pytest.mark.parametrize(
    "usable, count, expected",
    [
        (1, 2, []),  # pinned to one of two CPUs: serial
        (3, 64, [3]),  # bounded by the CPUs this process may run on
        (None, 3, [3]),  # no CPU affinity: bounded by the CPU count
    ],
)
def test_the_worker_count_is_bounded_by_the_usable_cpus(
    monkeypatch, recording_executor, usable, count, expected
):
    set_cpus(monkeypatch, usable, count)
    monkeypatch.setattr(cli, "_run_one", lambda dataset, i: {"job": i})
    cli._execute(("train", "test"), [(i,) for i in range(8)], 10000)
    assert recording_executor == expected


def test_each_worker_gets_the_dataset_once_and_each_job_its_own_arguments(
    dataset_dir, tmp_path, monkeypatch, recording_executor
):
    set_cpus(monkeypatch, 2, 2)
    run_one, calls = cli._run_one, []

    def spy(*args):
        calls.append(args)
        return run_one(*args)

    # The tracer wraps this name, and the workers must call what it holds.
    monkeypatch.setattr(cli, "_run_one", spy)
    strategies = [{"name": "RFT", "batch_size": 5}, {"name": "AFT", "batch_size": 5}]
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.json", compare_config(dataset_dir, out, strategies))
    assert main(["compare", "--config", cfg, "--jobs", "2"]) == 0
    assert recording_executor == [2]
    [(dataset,)] = RecordingExecutor.initargs
    assert [type(split) for split in dataset] == [CandidateStack, CandidateStack]
    assert cli._worker_dataset is dataset
    submitted = RecordingExecutor.submitted
    assert [fn for fn, _ in submitted] == [cli._run_shared] * 4
    assert not any(isinstance(arg, CandidateStack) for _, args in submitted for arg in args)
    assert len(calls) == 4
    for args, (_, job) in zip(calls, submitted):
        assert args[0] is dataset
        assert args[1:] == job
        assert args[-1] == str(out)
    assert [(args[1].label, args[-2]) for args in calls] == [
        ("RFT", 1), ("RFT", 2), ("AFT-entropy^a_w", 1), ("AFT-entropy^a_w", 2)
    ]


def test_compare_with_huge_jobs_uses_one_worker_per_job(
    dataset_dir, tmp_path, monkeypatch, recording_executor
):
    set_cpus(monkeypatch, 64, 64)
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
    from aftstar.datagen import write_csv

    path = dataset_dir / f"{split}.csv"
    candidates = dataset_dir_candidates(dataset_dir)[split]
    first = candidates[1]
    candidates[1] = dataclasses.replace(first, true_label=-1)
    write_csv(candidates, path)
    line = 2 + len(first.features)  # the header, then the first candidate's rows
    payload = run_config(dataset_dir, tmp_path / "o", {"name": "RFT", "batch_size": 5})
    cfg = write_config(tmp_path / "run.json", payload)
    assert main(["run", "--config", cfg]) == 2
    assert f"error: {path}:{line}: label -1 is negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_diverged_fit_is_a_one_line_runtime_error(tmp_path, capsys):
    payload = inline_run_config(tmp_path / "o")
    payload["strategy"] = {"name": "RFT", "batch_size": 5}
    payload["learner"]["learning_rate"] = 1e308
    assert main(["run", "--config", write_config(tmp_path / "run.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the fit diverged") and "learning_rate" in err
    assert err.count("\n") == 1  # and no numpy warning, which the test settings make errors
    assert list((tmp_path / "o").iterdir()) == []


def long_grid_config(out_dir, seeds=200):
    """A compare of many short jobs: about 30 ms each on one core."""
    return {
        "schema_version": 1,
        "dataset": inline_dataset(train_candidates=300, test_candidates=30),
        "strategies": [{"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": 5}],
        "learner": {"epochs": 2, "minibatch_size": 16},
        "stop": {"query_budget": 200},
        "seeds": list(range(1, seeds + 1)),
        "output_dir": str(out_dir),
    }


@pytest.mark.parametrize("target", ["parent", "process group"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_ctrl_c_ends_a_grid_in_one_line_with_exit_130(tmp_path, jobs, target):
    import subprocess
    import sys

    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.json", long_grid_config(out))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "aftstar.cli", "compare", "--config", cfg, "--jobs", str(jobs)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # a process group of its own: the CLI and its workers
    )
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob("summary_*.json")) and time.monotonic() < deadline:
            time.sleep(0.01)
        if target == "parent":
            os.kill(proc.pid, signal.SIGINT)
        else:
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err == "interrupted\n"
    for _ in range(100):  # the workers, reaped once the CLI has gone
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    else:
        raise AssertionError("a process of the interrupted CLI is still running")
    names = sorted(path.name for path in out.iterdir())
    summaries = [name for name in names if name.startswith("summary_")]
    assert 1 <= len(summaries) < 200  # interrupted mid-grid
    assert not [name for name in names if name.startswith(".") or name.endswith(".tmp")]
    assert "comparison.csv" not in names
    for name in names:  # every artifact on disk is whole
        text = (out / name).read_text()
        if name.startswith("summary_"):
            assert json.loads(text)["total_queries"] == 200
        elif name.startswith("curve_"):
            assert text.endswith("\n") and len(text.splitlines()) == 1 + 1 + 200 // 5
        else:
            assert name.startswith("audit_")
            assert [json.loads(line)["step"] for line in text.splitlines()] == list(range(1, 41))
