"""Config-driven experiment runner.

Subcommands:

* ``generate``: write a synthetic dataset (train.csv, test.csv, meta.json);
* ``run``: run one strategy over a dataset for each seed, writing a
  learning-curve CSV, a summary JSON and a selection audit JSONL per seed;
* ``compare``: run a grid of strategies over shared dataset/seeds and
  write a mean/sd ALC comparison table (CSV + JSON).

Configs are strict JSON: a ``schema_version`` field is required and
unknown keys are errors. Each section (``strategy``, ``strategies[i]``,
``learner``, ``stop``, ``oracle``, an inline ``dataset`` and
``datagen``) takes the parameters of what it configures, a config
dataclass or ``make_strategy``, which checks its own values. Seeds must
not repeat, nor may strategy labels within one ``compare``: each names
its own artifacts. A ``query_budget`` of 0 is a config error, since a
learning curve needs at least one query. Exit codes: 0 success, 1
config error, 2 runtime error, running out of memory and a ``compare``
worker process that dies included. The environment variable
``AFTSTAR_OUTPUT_DIR`` provides the default output directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import inspect
import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import datagen, loop, metrics
from .datagen import DatagenConfig
from .errors import AftError, ConfigError, check_integer, cut, shown
from .learner import TrainConfig
from .loop import StopRule, make_strategy
from .metrics import FLOAT_FMT
from .oracle import OracleConfig
from .pool import stack_candidates

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "AFTSTAR_OUTPUT_DIR"
STRATEGY_REQUIRED = {"name", "batch_size"}


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
        raise ConfigError(f"{where}: unknown keys [{', '.join(map(shown, sorted(unknown)))}]")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _reject_booleans(obj: dict, where: str) -> None:
    """No config field is a boolean, and JSON ``true``/``false`` would
    pass for 1 and 0 in a number field."""
    for key, value in obj.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, bool) for v in values):
            got = cut(json.dumps(value))
            raise ConfigError(f"{where}: {key} must not be a boolean, got {got}")


def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    version = cfg.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: must be {SCHEMA_VERSION} in {path}, got {shown(version)}"
        )
    return cfg


def _resolve_output_dir(cfg: dict, args) -> Path:
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError(f"output_dir: must be a path string, got {shown(cfg['output_dir'])}")
    out = args.output or cfg.get("output_dir") or os.environ.get(OUTPUT_ENV_VAR)
    if not out:
        raise ConfigError(
            f"no output directory: set output_dir, --output, or ${OUTPUT_ENV_VAR}"
        )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_fields(fn, obj: dict, where: str, required=frozenset()):
    """Build a config section as ``fn(**obj)``, where ``fn`` is a config
    dataclass or ``make_strategy`` and the allowed keys are its
    parameters. ``fn`` checks the values itself."""
    _check_keys(obj, set(inspect.signature(fn).parameters), required, where)
    _reject_booleans(obj, where)
    with _section(where):
        return fn(**obj)


def _reject_repeats(values: list, where: str) -> None:
    """Each seed and strategy label names its own artifacts, so a repeat
    would write one set of files over another."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{where}[{i}]: {shown(v)} repeats {where}[{values.index(v)}]")


def _slug(label: str) -> str:
    return label.replace("^", "_")


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"schema_version", "output_dir", "datagen"}, {"datagen"}, args.config)
    datagen_cfg = _parse_fields(DatagenConfig, cfg["datagen"], "datagen")
    if args.seed is not None:
        datagen_cfg = dataclasses.replace(datagen_cfg, seed=args.seed)
    out_dir = _resolve_output_dir(cfg, args)
    datagen.write_dataset(datagen_cfg, out_dir)
    print(f"wrote {out_dir / 'train.csv'}, {out_dir / 'test.csv'}, {out_dir / 'meta.json'}")
    return 0


def _resolve_dataset(spec, where: str):
    """Return the (train, test) stacks from a directory path or an inline
    datagen config. ``run_experiment`` takes the class count from their
    labels, so a directory's ``meta.json`` is not read."""
    if isinstance(spec, str):
        if not spec:
            raise ConfigError(f"{where}: must be a directory path or an object, got an empty path")
        try:
            train = datagen.load_csv(Path(spec, "train.csv"))
            test = datagen.load_csv(Path(spec, "test.csv"))
        except OSError as exc:
            raise ConfigError(f"{where}: cannot load dataset {spec}: {exc}")
        return train, test
    train, test, _ = datagen.generate(_parse_fields(DatagenConfig, spec, where))
    return stack_candidates(train), stack_candidates(test)


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
    ``(train, test)`` and write its artifacts.

    A serial run passes the dataset itself. A worker process gets it once,
    from ``_hand_over``, and ``_run_shared`` passes it here for each job.
    """
    train, test = dataset
    slug = _slug(strategy.label)
    out = Path(out_dir)
    records = loop.run_experiment(
        train,
        test,
        strategy,
        train_cfg,
        stop,
        seed,
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
    check_integer("--jobs", args.jobs, 1)
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{where}: seeds must be a non-empty list")
    with _section("seeds"):
        for seed in seeds:
            check_integer("seed", seed, 0)
    _reject_repeats(seeds, "seeds")
    if args.seed is not None:
        with _section("seeds"):
            check_integer("seed", args.seed, 0)
        seeds = [args.seed]
    positive_class = cfg.get("positive_class", 0)
    with _section("positive_class"):
        check_integer("positive_class", positive_class, 0)
    stop = _parse_fields(StopRule, cfg.get("stop", {}), "stop")
    if stop.query_budget == 0:
        raise ConfigError("stop: query_budget must be >= 1: a learning curve needs a query")
    settings = (
        _parse_fields(TrainConfig, cfg.get("learner", {}), "learner"),
        stop,
        _parse_fields(OracleConfig, cfg.get("oracle", {}), "oracle"),
        positive_class,
    )
    dataset = _resolve_dataset(cfg["dataset"], "dataset")
    loop.check_splits(*dataset, positive_class)
    return dataset, settings, seeds, _resolve_output_dir(cfg, args)


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, RUN_KEYS, {"dataset", "strategy", "seeds"}, args.config)
    strategy = _parse_fields(make_strategy, cfg["strategy"], "strategy", STRATEGY_REQUIRED)
    dataset, settings, seeds, out_dir = _parse_run(cfg, args, args.config)
    jobs = [(strategy, *settings, seed, str(out_dir)) for seed in seeds]
    summaries = _execute(dataset, jobs, args.jobs)
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
        _parse_fields(make_strategy, obj, f"strategies[{i}]", STRATEGY_REQUIRED)
        for i, obj in enumerate(strategy_objs)
    ]
    labels = [strategy.label for strategy in strategies]
    _reject_repeats(labels, "strategies")
    dataset, settings, seeds, out_dir = _parse_run(cfg, args, args.config)

    jobs = [(strategy, *settings, seed, str(out_dir)) for strategy in strategies for seed in seeds]
    summaries = _execute(dataset, jobs, args.jobs)

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

    with metrics.replacing(out_dir / "comparison.csv", newline="") as fh:
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
    metrics.write_summary_json(comparison, out_dir / "comparison.json")
    for cell in cells:
        marker = " *" if cell["best"] else ""
        print(f"{cell['strategy']}: {cell['mean_alc']:.6f} +/- {cell['sd_alc']:.6f}{marker}")
    return 0


# The (train, test) stacks of a worker process, and the grid position of
# the first job that failed, shared by every worker. Only ``_hand_over``
# writes them, and only inside a worker process, as the pool's
# initializer; the parent process never writes them, so there they stay
# None.
_worker_dataset = None
_worker_failed = None


def _hand_over(dataset: tuple, failed) -> None:
    """A worker's initializer: keep the dataset for every job it runs, and
    the shared position of the first failed job."""
    global _worker_dataset, _worker_failed
    _worker_dataset, _worker_failed = dataset, failed


def _run_shared(position: int, *job) -> dict | None:
    """Run the job at grid position ``position`` in a worker, on the
    dataset its initializer kept, or skip it, returning None and writing
    nothing, when a job before it has failed.

    A job that fails lowers the shared position to its own before it
    returns, so every job after it that starts from then on is skipped;
    a job before it still runs, whenever it starts. ``_run_one`` is looked
    up in this module when the job runs, so a wrapper installed on it in
    the parent before the pool forks is called.
    """
    if _worker_failed.value < position:
        return None
    try:
        return _run_one(_worker_dataset, *job)
    except BaseException:
        with _worker_failed.get_lock():
            _worker_failed.value = min(_worker_failed.value, position)
        raise


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute(dataset: tuple, jobs: list[tuple], n_jobs: int) -> list[dict]:
    """Run ``_run_one(dataset, *job)`` for each job, in order, and stop at
    the first that fails.

    In parallel, each worker process gets the dataset once, as its
    initializer's argument (not pickled at all under ``fork``), and each
    job carries only its own small arguments and its grid position. A
    failed job cancels every job not yet handed to a worker, and every
    job after it that a worker starts from then on is skipped, so only
    the jobs already running go on to write their artifacts. The first
    failure in grid order is raised; every job before it has run.
    """
    workers = min(n_jobs, len(jobs), _usable_cpus())
    if workers <= 1:
        return [_run_one(dataset, *job) for job in jobs]
    context = multiprocessing.get_context()
    failed = context.Value("q", len(jobs))
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_hand_over,
        initargs=(dataset, failed),
    ) as pool:
        futures = [pool.submit(_run_shared, i, *job) for i, job in enumerate(jobs)]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes (>= 1)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (AftError, OSError, MemoryError, concurrent.futures.BrokenExecutor) as exc:
        # A worker process that dies breaks the pool; a bare MemoryError has no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
