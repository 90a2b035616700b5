import json

import pytest

from aftstar.cli import main
from aftstar.metrics import read_curve_csv


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


# --- run ------------------------------------------------------------------------

def test_run_rft_row_count(dataset_dir, tmp_path):
    out = tmp_path / "runs"
    cfg = write_config(
        tmp_path / "run.json",
        run_config(dataset_dir, out, {"name": "RFT", "batch_size": 5}, budget=20),
    )
    assert main(["run", "--config", cfg]) == 0
    records = read_curve_csv(out / "curve_RFT_seed1.csv")
    assert len(records) == 5  # baseline + 4 steps
    summary = json.loads((out / "summary_RFT_seed1.json").read_text())
    assert set(summary) == {"strategy", "seed", "alc", "final_auc", "total_queries"}
    assert summary["total_queries"] == 20
    assert (out / "audit_RFT_seed1.jsonl").exists()


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


def test_missing_dataset_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        run_config(tmp_path / "nope", tmp_path / "o", {"name": "RFT", "batch_size": 5}),
    )
    assert main(["run", "--config", cfg]) == 1


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
    ],
    ids=["batch_size", "learning_rate", "seeds"],
)
def test_wrongly_typed_values_are_config_errors(dataset_dir, tmp_path, capsys, section, edit):
    payload = compare_config(dataset_dir, tmp_path / "o", [{"name": "RFT", "batch_size": 5}])
    edit(payload)
    cfg = write_config(tmp_path / "cmp.json", payload)
    assert main(["compare", "--config", cfg]) == 1
    assert f"config error: {section}: " in capsys.readouterr().err
