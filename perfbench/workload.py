"""One measured run of one workload, in a process of its own.

Started by ``run.py`` with BLAS pinned to one thread and the checkout's
``src`` first on the import path. It repeats whole rounds of the
workload until ``--seconds`` have passed, checks every round's outputs,
and prints one JSON object as its last line of output.

A round is one ``run_experiment`` call (one operation) for the
in-process workloads, and one ``aftstar compare`` call (one operation per
(strategy, seed) job) for ``cli_compare``. Every round of a run repeats
the same operations on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from aftstar import cli, datagen, loop, metrics  # noqa: E402
from aftstar.learner import TrainConfig  # noqa: E402


@dataclass(frozen=True)
class Experiment:
    strategy: str
    criterion: str | None
    batch: int
    budget: int


IN_PROCESS = {
    # Scoring-bound: AFT* scores every unlabeled candidate on 12 patches.
    # Two steps only: from the third step on, fine-tuning on class-pure
    # batches drives the test AUC below the check's 0.95 on some seeds.
    "aftstar_bigpool": Experiment("AFT_star", "entropy^a_w", batch=200, budget=400),
    # Bypasses scoring: L u Q fits from M0 on a growing L, H-mining over L,
    # and a 1000-candidate evaluation on every step.
    "rft_growing_L": Experiment("RFT", None, batch=50, budget=2500),
}

# (strategy, criterion, (lambda1, lambda2) or None for random selection)
CLI_GRID = [
    ("AFT_star", "entropy^a_w", (1.0, 0.0)),
    ("AFT_star", "diversity_w", (0.0, 1.0)),  # alpha = 1: all patches, O(m^2) pairs
    ("AFT", "diversity^a", (0.0, 1.0)),
    ("RFT", None, None),
]
CLI_BATCH = 20
CLI_BUDGET = 240
POSITIVE_CLASS = 0


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or of any reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def record_rows(records) -> list[dict]:
    return [
        {"step": r.step, "queries_cum": r.queries_cum, "labeled_count": r.labeled_count,
         "test_auc": r.test_auc, "selected_positive_fraction": r.selected_positive_fraction,
         "misclassified_pre_fit": r.misclassified_count_pre_fit}
        for r in records
    ]


def normalised(r: dict, parallel: bool, workers: int) -> dict:
    """One round's times at the speed of an idle reference core.

    Each step's wall and CPU time is scaled by the speed the probes
    measured right before and right after it, the set-up by the probes
    taken before the set-up, and the rest of the round (between steps and
    after the last one) by the round's median step probe. The parallel wall
    time of ``compare`` is scaled by the factor its CPU time after set-up
    was scaled by. The probes' own time is taken out first.
    """
    ref = tracing.REFERENCE_PROBE_S
    steps = [(w, c, (p0 + p1) / 2) for per_job in r["steps"].values() for w, c, p0, p1 in per_job]
    f_setup = ref / r["setup_probe"]
    f_round = ref / statistics.median(p for _, _, p in steps) if steps else f_setup
    walls = [w * ref / p for w, _, p in steps]
    probe_time = 2 * sum(p for _, _, p in steps)
    run_cpu = r["cpu"] - r["setup_cpu"] - probe_time
    rest_cpu = run_cpu - sum(c for _, c, _ in steps)
    run_cpu_norm = sum(c * ref / p for _, c, p in steps) + rest_cpu * f_round
    if parallel:
        run = (r["run"] - probe_time / workers) * run_cpu_norm / run_cpu
    else:
        run = sum(walls) + (r["run"] - sum(w for w, _, _ in steps) - probe_time) * f_round
    return {
        "setup": r["setup"] * f_setup,
        "run": run,
        "cpu": r["setup_cpu"] * f_setup + run_cpu_norm,
        "steps": walls,
    }


def end_to_end(rounds: list[dict], n_steps: int, parallel: bool, workers: int) -> dict:
    """Medians over the rounds of the probe-normalised times."""
    norm = [normalised(r, parallel, workers) for r in rounds]
    run = statistics.median(n["run"] for n in norm)
    steps = [w for n in norm for w in n["steps"]]
    return {
        "setup_s": {"value": statistics.median(n["setup"] for n in norm), "unit": "s"},
        "run_s": {"value": run, "unit": "s"},
        # Without timed run_step calls (the function is gone) use the mean step.
        "step_s_p50": {"value": statistics.median(steps) if steps else run / n_steps,
                       "unit": "s"},
        "cpu_s": {"value": statistics.median(n["cpu"] for n in norm), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    }


def setup_probe(tr: tracing.Tracer) -> float:
    """Median of five probes before a set-up; the reference time when untraced."""
    if tr.probe is None:
        return tracing.REFERENCE_PROBE_S
    return statistics.median(tr.probe() for _ in range(5))


class InProcess:
    workers = 1
    ops_per_round = 1
    parallel = False

    def __init__(self, exp: Experiment, data_dir: Path, truth: dict, seed: int):
        self.exp, self.data_dir, self.truth, self.seed = exp, data_dir, truth, seed
        self.n_steps = exp.budget // exp.batch

    def round(self, tr: tracing.Tracer, index: int):
        exp = self.exp
        # RFT selects at random and ignores the criterion.
        strategy = loop.make_strategy(exp.strategy, exp.criterion or "entropy^a_w", exp.batch)
        stop = loop.StopRule(query_budget=exp.budget)
        tr.reset()
        probe = setup_probe(tr)
        c0, t0 = cpu_seconds(), perf_counter()
        train, test, _ = datagen.load_dataset(self.data_dir)
        t_loaded, c_loaded = perf_counter(), cpu_seconds()
        records = loop.run_experiment(train, test, strategy, TrainConfig(), stop, self.seed)
        t1, c1 = perf_counter(), cpu_seconds()
        if tr.first_step_start is None:  # loop.run_step is gone
            tr.first_step_start, tr.first_step_cpu = t_loaded, c_loaded
        start = tr.first_step_start
        timing = {"setup": start - t0, "setup_cpu": tr.first_step_cpu - c0,
                  "setup_probe": probe, "run": t1 - start, "cpu": c1 - c0, "steps": tr.steps}
        rows = record_rows(records)
        alc = metrics.LearningCurve.from_records(records, total_pool=len(train)).alc
        problems = (
            checks.check_curve(rows, batch=exp.batch, budget=exp.budget)
            + checks.check_alc(rows, alc, self.truth["train_size"])
            + checks.check_balance(rows, prior=self.truth["train_prior"][POSITIVE_CLASS],
                                   active=exp.criterion is not None, batch=exp.batch)
        )
        return timing, tr.snapshot(), int(bool(problems)), problems


class CliCompare:
    def __init__(self, data_dir: Path, truth: dict, seed: int, work: Path, spans_dir: Path):
        self.data_dir, self.truth, self.work, self.spans_dir = data_dir, truth, work, spans_dir
        self.seeds = [seed, seed + 1]
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.parallel = self.workers > 1
        self.ops_per_round = len(CLI_GRID) * len(self.seeds)
        self.n_steps = self.ops_per_round * (CLI_BUDGET // CLI_BATCH)
        strategies = []
        for name, criterion, _ in CLI_GRID:
            obj = {"name": name, "batch_size": CLI_BATCH}
            if criterion is not None:
                obj["criterion"] = criterion
            strategies.append(obj)
        self.config = work / "compare.json"
        self.config.write_text(json.dumps({
            "schema_version": 1,
            "dataset": str(data_dir),
            "strategies": strategies,
            "stop": {"query_budget": CLI_BUDGET},
            "positive_class": POSITIVE_CLASS,
            "seeds": self.seeds,
        }), encoding="utf-8")

    def round(self, tr: tracing.Tracer, index: int):
        out = self.work / f"compare-{index}"
        argv = ["compare", "--config", str(self.config), "--output", str(out),
                "--jobs", str(self.workers)]
        tr.reset()
        probe = setup_probe(tr)
        c0, t0 = cpu_seconds(), perf_counter()
        datagen.load_dataset(self.data_dir)  # set-up: one parse of the files
        t1, c_loaded = perf_counter(), cpu_seconds()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        t2, c1 = perf_counter(), cpu_seconds()

        total = tracing.empty()
        tracing.merge(total, tr.snapshot())
        for part in sorted(self.spans_dir.glob("*.json")):
            tracing.merge(total, json.loads(part.read_text(encoding="utf-8")))
            part.unlink()
        timing = {"setup": t1 - t0, "setup_cpu": c_loaded - c0, "setup_probe": probe,
                  "run": t2 - t1, "cpu": c1 - c0, "steps": total["steps"]}
        if rc != 0:
            shutil.rmtree(out, ignore_errors=True)
            return timing, total, self.ops_per_round, [f"aftstar compare exited {rc}"]
        failed, problems = self.check(out)
        shutil.rmtree(out)
        return timing, total, failed, problems

    def check(self, out: Path) -> tuple[int, list[str]]:
        """Check every job's artifacts; a comparison fault fails them all."""
        truth = self.truth
        slugs, alcs, failed, problems = [], {}, 0, []
        for name, criterion, weights in CLI_GRID:
            label = name if criterion is None else f"{name}-{criterion}"
            slug = label.replace("^", "_")
            slugs.append(slug)
            alcs[label] = []
            for seed in self.seeds:
                try:
                    job = checks.read_job(out, slug, seed)
                    rows = job["rows"]
                    p = (
                        checks.check_curve(rows, batch=CLI_BATCH, budget=CLI_BUDGET)
                        + checks.check_summary(job["summary"], rows, label=label, seed=seed,
                                               budget=CLI_BUDGET, total_pool=truth["train_size"])
                        + checks.check_audit(job["audit"], rows, truth=truth["labels"],
                                             batch=CLI_BATCH, weights=weights,
                                             num_classes=truth["num_classes"],
                                             positive_class=POSITIVE_CLASS)
                    )
                    if weights is None:
                        p += checks.check_balance(rows, prior=truth["train_prior"][POSITIVE_CLASS],
                                                  active=False, batch=CLI_BATCH)
                    alcs[label].append(job["summary"]["alc"])
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    p = [f"unreadable artifacts: {exc!r}"]
                failed += bool(p)
                problems += [f"{label} seed {seed}: {m}" for m in p]
        names = {p.name for p in out.iterdir()}
        shared = checks.check_artifact_set(names, slugs, self.seeds)
        try:
            comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
            shared += checks.check_comparison(comparison, alcs, self.seeds)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            shared.append(f"unreadable comparison: {exc!r}")
        if shared:
            return self.ops_per_round, problems + shared
        return failed, problems


def per_layer(total: dict, rounds: list[dict], rows_per_load: int, workers: int) -> dict:
    """Per-round layer figures from the merged spans of a traced run."""
    n = len(rounds)
    stats, counts = total["stats"], total["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[1] / n

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[2] / n

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(r["run"] for r in rounds) / n
    idle = workers * wall - incl("cli.job") if calls("cli.job") else 0.0
    return {
        "datagen.load_s": (own("datagen.load"), "s"),
        "datagen.load_calls": (calls("datagen.load") / n, "count"),
        "datagen.rows_per_s": (ratio(calls("datagen.load") * rows_per_load,
                                     incl("datagen.load") * n), "rows/s"),
        "pool.move_s": (own("pool.move"), "s"),
        "learner.predict_s": (own("learner.predict"), "s"),
        "learner.patches_predicted": (counts.get("patches", 0) / n, "count"),
        "learner.candidate_probability_s": (own("learner.candidate_probability"), "s"),
        "learner.predict_unique_ratio": (ratio(total["pairs"], calls("learner.predict")), "ratio"),
        "learner.fit_s": (own("learner.fit"), "s"),
        "learner.fit_rows": (counts.get("fit_rows", 0) / n, "count"),
        "criteria.score_s": (own("criteria.score"), "s"),
        "criteria.scored_candidates": (calls("criteria.score") / n, "count"),
        "criteria.checks_per_score": (ratio(counts.get("checks", 0), calls("criteria.score")),
                                      "ratio"),
        "sampler.select_s": (own("sampler.select"), "s"),
        "oracle.query_s": (own("oracle.query"), "s"),
        "oracle.queries": (counts.get("queries", 0) / n, "count"),
        "loop.step_self_s": (own("loop.step"), "s"),
        "loop.evaluate_s": (own("loop.evaluate"), "s"),
        "loop.hmine_s": (incl("loop.hmine"), "s"),
        "loop.hmine_hit_ratio": (ratio(counts.get("hmine_hits", 0),
                                       counts.get("hmine_examined", 0)), "ratio"),
        "loop.train_rows": (counts.get("train_rows", 0) / n, "count"),
        "loop.audit_s": (counts.get("audit_s", 0.0) / n, "s"),
        "metrics.auc_s": (own("metrics.auc"), "s"),
        "metrics.write_s": (own("metrics.write"), "s"),
        "cli.jobs": (calls("cli.job") / n, "count"),
        "cli.fanout_idle_s": (idle, "s"),
        "trace.run_s": (sum(r["run"] for r in rounds) / n, "s"),
        "trace.self_sum_s": ((total["run_self"] / n + idle) / workers, "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    truth = json.loads((args.data / "truth.json").read_text(encoding="utf-8"))
    spans_dir = args.work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli_compare":
        workload = CliCompare(args.data, truth, args.seed, args.work, spans_dir)
    else:
        workload = InProcess(IN_PROCESS[args.workload], args.data, truth, args.seed)
    probe = None if args.trace else tracing.Probe()
    tr = tracing.Tracer(full=bool(args.trace), spans_dir=spans_dir, probe=probe)
    tr.install()
    if tr.absent:
        print(f"absent layer functions: {', '.join(tr.absent)}", file=sys.stderr)

    rounds, total, attempted, failed = [], tracing.empty(), 0, 0
    deadline = perf_counter() + args.seconds
    while not attempted or perf_counter() < deadline:
        attempted += workload.ops_per_round
        try:
            timing, spans, bad, problems = workload.round(tr, attempted)
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            failed += workload.ops_per_round
            continue
        for m in problems:
            print(f"check failed: {m}", file=sys.stderr)
        failed += bad
        rounds.append(timing)
        tracing.merge(total, spans)
    if not rounds:
        print("no round completed", file=sys.stderr)
        return 1

    if args.trace:
        layer = per_layer(total, rounds, truth["rows"], workload.workers)
        values = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = end_to_end(rounds, workload.n_steps, workload.parallel, workload.workers)
    print("rounds, raw (setup, run, cpu): " + json.dumps(
        [[round(r[k], 4) for k in ("setup", "run", "cpu")] for r in rounds]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
