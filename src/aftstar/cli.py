"""Config-driven experiment runner.

Subcommands:

* ``generate``: write a synthetic dataset (train.csv, test.csv, meta.json);
* ``run``: run one strategy over a dataset for each seed, writing a
  learning-curve CSV, a summary JSON and a selection audit JSONL per seed;
* ``compare``: run a grid of strategies over shared dataset/seeds and
  write a mean/sd ALC comparison table (CSV + JSON).

Configs are strict JSON: a ``schema_version`` field is required and
unknown keys are errors. Exit codes: 0 success, 1 config error,
2 runtime error. The environment variable ``AFTSTAR_OUTPUT_DIR``
provides the default output directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datagen, loop, metrics
from .datagen import DatagenConfig
from .errors import AftError, ConfigError
from .learner import TrainConfig
from .loop import StopRule, make_strategy
from .metrics import FLOAT_FMT
from .oracle import OracleConfig

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "AFTSTAR_OUTPUT_DIR"


STRATEGY_KEYS = {"name", "criterion", "batch_size", "alpha", "omega", "lambda1", "lambda2"}


@contextlib.contextmanager
def _section(where: str):
    """Report a bad or wrongly typed config value as a config error naming its section."""
    try:
        yield
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version must be {SCHEMA_VERSION}")
    return cfg


def _resolve_output_dir(cfg: dict, args) -> Path:
    out = args.output or cfg.get("output_dir") or os.environ.get(OUTPUT_ENV_VAR)
    if not out:
        raise ConfigError(
            f"no output directory: set output_dir, --output, or ${OUTPUT_ENV_VAR}"
        )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_fields(cls, obj: dict, where: str):
    """Build the config dataclass ``cls`` from a JSON object of its fields."""
    _check_keys(obj, {f.name for f in dataclasses.fields(cls)}, set(), where)
    with _section(where):
        return cls(**obj)


def _parse_datagen(obj: dict, where: str) -> DatagenConfig:
    if isinstance(obj, dict) and isinstance(obj.get("class_weights"), list):
        obj = {**obj, "class_weights": tuple(obj["class_weights"])}
    return _parse_fields(DatagenConfig, obj, where)


def _parse_strategy(obj: dict, where: str):
    _check_keys(obj, STRATEGY_KEYS, {"name", "batch_size"}, where)
    kwargs = {
        k: obj[k] for k in ("alpha", "omega", "lambda1", "lambda2") if k in obj
    }
    with _section(where):
        return make_strategy(
            obj["name"],
            criterion=obj.get("criterion", "entropy^a_w"),
            batch_size=obj["batch_size"],
            **kwargs,
        )


def _slug(label: str) -> str:
    return label.replace("^", "_")


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"schema_version", "output_dir", "datagen"}, {"datagen"}, args.config)
    datagen_cfg = _parse_datagen(cfg["datagen"], "datagen")
    if args.seed is not None:
        datagen_cfg = dataclasses.replace(datagen_cfg, seed=args.seed)
    out_dir = _resolve_output_dir(cfg, args)
    datagen.write_dataset(datagen_cfg, out_dir)
    print(f"wrote {out_dir / 'train.csv'}, {out_dir / 'test.csv'}, {out_dir / 'meta.json'}")
    return 0


def _resolve_dataset(spec, where: str):
    """Return (train, test, num_classes) from a directory path or an
    inline datagen config."""
    if isinstance(spec, str):
        try:
            train, test, meta = datagen.load_dataset(spec)
        except OSError as exc:
            raise ConfigError(f"{where}: cannot load dataset {spec}: {exc}")
        if meta is not None:
            num_classes = int(meta["config"]["num_classes"])
        else:
            num_classes = datagen.infer_num_classes(train + test)
        return train, test, num_classes
    cfg = _parse_datagen(spec, where)
    train, test, _ = datagen.generate(cfg)
    return train, test, cfg.num_classes


def _run_one(
    dataset: tuple,
    strategy: loop.StrategyConfig,
    train_cfg: TrainConfig,
    stop: StopRule,
    oracle_cfg: OracleConfig,
    positive_class: int,
    seed: int,
    out_dir: str,
) -> dict:
    """Run one (strategy, seed) experiment on a resolved dataset
    ``(train, test, num_classes)`` and write its artifacts.

    Module-level and takes only picklable arguments, so compare can fan
    out worker processes.
    """
    train, test, num_classes = dataset
    slug = _slug(strategy.label)
    out = Path(out_dir)
    records = loop.run_experiment(
        train,
        test,
        strategy,
        train_cfg,
        stop,
        seed,
        num_classes=num_classes,
        positive_class=positive_class,
        oracle_noise=oracle_cfg.label_noise_rate,
        audit_path=out / f"audit_{slug}_seed{seed}.jsonl",
    )
    metrics.write_curve_csv(records, out / f"curve_{slug}_seed{seed}.csv")
    curve = metrics.LearningCurve.from_records(records, total_pool=len(train))
    summary = {
        "strategy": strategy.label,
        "seed": seed,
        "alc": curve.alc,
        "final_auc": records[-1].test_auc,
        "total_queries": records[-1].queries_cum,
    }
    metrics.write_summary_json(summary, out / f"summary_{slug}_seed{seed}.json")
    return summary


RUN_KEYS = {
    "schema_version",
    "dataset",
    "strategy",
    "learner",
    "stop",
    "oracle",
    "positive_class",
    "seeds",
    "output_dir",
}


def _parse_run(cfg: dict, args, where: str):
    """Parse and resolve what every job of run and compare shares.

    Returns ``(dataset, settings, seeds, out_dir)``, where ``settings``
    is ``(train_cfg, stop, oracle_cfg, positive_class)``.
    """
    seeds = cfg["seeds"] if args.seed is None else [args.seed]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{where}: seeds must be a non-empty list")
    with _section("seeds"):
        seeds = [int(s) for s in seeds]
    with _section("positive_class"):
        positive_class = int(cfg.get("positive_class", 0))
    settings = (
        _parse_fields(TrainConfig, cfg.get("learner", {}), "learner"),
        _parse_fields(StopRule, cfg.get("stop", {}), "stop"),
        _parse_fields(OracleConfig, cfg.get("oracle", {}), "oracle"),
        positive_class,
    )
    dataset = _resolve_dataset(cfg["dataset"], "dataset")
    return dataset, settings, seeds, _resolve_output_dir(cfg, args)


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, RUN_KEYS, {"dataset", "strategy", "seeds"}, args.config)
    strategy = _parse_strategy(cfg["strategy"], "strategy")
    dataset, settings, seeds, out_dir = _parse_run(cfg, args, args.config)
    jobs = [(dataset, strategy, *settings, seed, str(out_dir)) for seed in seeds]
    summaries = _execute(jobs, args.jobs)
    for s in summaries:
        print(f"{s['strategy']} seed={s['seed']} alc={s['alc']:.6f} final_auc={s['final_auc']:.6f}")
    return 0


COMPARE_KEYS = (RUN_KEYS - {"strategy"}) | {"strategies"}


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, COMPARE_KEYS, {"dataset", "strategies", "seeds"}, args.config)
    strategy_objs = cfg["strategies"]
    if not isinstance(strategy_objs, list) or not strategy_objs:
        raise ConfigError(f"{args.config}: strategies must be a non-empty list")
    strategies = [
        _parse_strategy(obj, f"strategies[{i}]") for i, obj in enumerate(strategy_objs)
    ]
    labels = [strategy.label for strategy in strategies]
    dataset, settings, seeds, out_dir = _parse_run(cfg, args, args.config)

    jobs = [
        (dataset, strategy, *settings, seed, str(out_dir))
        for strategy in strategies
        for seed in seeds
    ]
    summaries = _execute(jobs, args.jobs)

    by_label: dict[str, list[float]] = {label: [] for label in labels}
    for s in summaries:
        by_label[s["strategy"]].append(s["alc"])
    cells = []
    for label in labels:
        values = by_label[label]
        mean = float(np.mean(values))
        sd = float(np.std(values))
        cells.append({"strategy": label, "mean_alc": mean, "sd_alc": sd, "n_seeds": len(values)})
    best = max(range(len(cells)), key=lambda i: cells[i]["mean_alc"])
    for i, cell in enumerate(cells):
        cell["best"] = i == best

    with open(out_dir / "comparison.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "mean_alc", "sd_alc", "n_seeds", "best"])
        for cell in cells:
            writer.writerow(
                [
                    cell["strategy"],
                    FLOAT_FMT % cell["mean_alc"],
                    FLOAT_FMT % cell["sd_alc"],
                    cell["n_seeds"],
                    int(cell["best"]),
                ]
            )
    comparison = {"seeds": seeds, "cells": cells, "best": cells[best]["strategy"]}
    (out_dir / "comparison.json").write_text(
        json.dumps(comparison, indent=2, sort_keys=True), encoding="utf-8"
    )
    for cell in cells:
        marker = " *" if cell["best"] else ""
        print(f"{cell['strategy']}: {cell['mean_alc']:.6f} +/- {cell['sd_alc']:.6f}{marker}")
    return 0


def _execute(jobs: list[tuple], n_jobs: int) -> list[dict]:
    if n_jobs <= 1 or len(jobs) <= 1:
        return [_run_one(*job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futures = [pool.submit(_run_one, *job) for job in jobs]
        return [f.result() for f in futures]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aftstar", description="Active-learning experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("generate", cmd_generate), ("run", cmd_run), ("compare", cmd_compare)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--output", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seeds")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except AftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
