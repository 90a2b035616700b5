"""Output checks, made apart from the program.

Each check returns a list of problems; an empty list means the output
passed. A curve is a list of row dicts with the program's curve-CSV
columns, whether it was read from ``curve_*.csv`` or taken from the
records that ``run_experiment`` returned.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

CURVE_COLUMNS = ("step", "queries_cum", "labeled_count", "test_auc",
                 "selected_positive_fraction", "misclassified_pre_fit")
MIN_FINAL_AUC = 0.95  # the blobs are separable; every strategy gets there
ALC_TOL = 1e-12
SCORE_TOL = 1e-12
BINOMIAL_SIGMAS = 5.0  # RFT tolerance around the pool prior


def trapezoid_alc(rows: list[dict], total_pool: int) -> float:
    """ALC over (queries / total_pool, test AUC), flat-extended to 0 and 1."""
    x = [r["queries_cum"] / total_pool for r in rows]
    y = [r["test_auc"] for r in rows]
    area = x[0] * y[0] + (1.0 - x[-1]) * y[-1]
    for i in range(len(rows) - 1):
        area += (x[i + 1] - x[i]) * (y[i] + y[i + 1]) / 2.0
    return area


def check_curve(rows: list[dict], *, batch: int, budget: int) -> list[str]:
    p = []
    steps = budget // batch
    if len(rows) != steps + 1:
        return [f"curve has {len(rows)} rows, expected {steps + 1}"]
    for i, r in enumerate(rows):
        if r["step"] != i:
            p.append(f"row {i}: step {r['step']}")
        if r["queries_cum"] != i * batch:
            p.append(f"row {i}: queries_cum {r['queries_cum']}, expected {i * batch}")
        if r["labeled_count"] != r["queries_cum"]:
            p.append(f"row {i}: labeled_count {r['labeled_count']} != queries_cum")
        if not 0.0 <= r["test_auc"] <= 1.0:
            p.append(f"row {i}: test_auc {r['test_auc']} outside [0, 1]")
        frac = r["selected_positive_fraction"]
        if i == 0:
            if frac != 0.0 or r["misclassified_pre_fit"] != 0:
                p.append("row 0 is not the untrained baseline")
            continue
        if not 0.0 <= frac <= 1.0 or abs(frac * batch - round(frac * batch)) > 1e-9:
            p.append(f"row {i}: positive fraction {frac} is not a count over {batch}")
        if not 0 <= r["misclassified_pre_fit"] <= rows[i - 1]["labeled_count"]:
            p.append(f"row {i}: misclassified_pre_fit {r['misclassified_pre_fit']} "
                     f"outside [0, {rows[i - 1]['labeled_count']}]")
    if rows[-1]["test_auc"] <= MIN_FINAL_AUC:
        p.append(f"final test AUC {rows[-1]['test_auc']} <= {MIN_FINAL_AUC}")
    return p


def check_alc(rows: list[dict], alc: float, total_pool: int) -> list[str]:
    own = trapezoid_alc(rows, total_pool)
    return [] if abs(own - alc) <= ALC_TOL else [f"ALC {alc!r} != recomputed {own!r}"]


def check_balance(rows: list[dict], *, prior: float, active: bool, batch: int) -> list[str]:
    """Paper claim 6 for active selection: the selected batches hold more of
    the minority (positive) class than the pool does. Random selection
    stays within a binomial tolerance of the pool prior."""
    fracs = [r["selected_positive_fraction"] for r in rows[1:]]
    if not fracs:
        return ["no selection steps"]
    mean = sum(fracs) / len(fracs)
    if active:
        return [] if mean > prior else [f"active positive fraction {mean} <= prior {prior}"]
    tol = BINOMIAL_SIGMAS * math.sqrt(prior * (1 - prior) / (batch * len(fracs)))
    if abs(mean - prior) > tol:
        return [f"random positive fraction {mean} not within {tol:.4f} of prior {prior}"]
    return []


def check_audit(lines: list[dict], rows: list[dict], *, truth: dict[str, int],
                batch: int, weights: tuple[float, float] | None, num_classes: int,
                positive_class: int = 0) -> list[str]:
    """The audit against the curve and the ground truth the benchmark wrote.

    ``weights`` is (lambda1, lambda2) for active selection, None for random.
    """
    p = []
    if len(lines) != len(rows) - 1:
        return [f"audit has {len(lines)} lines, curve has {len(rows) - 1} steps"]
    seen: set[str] = set()
    for i, line in enumerate(lines, start=1):
        sel = line["selected"]
        if line["step"] != i:
            p.append(f"audit line {i}: step {line['step']}")
        if len(sel) != batch:
            p.append(f"audit step {i}: {len(sel)} selected, expected {batch}")
        if line["misclassified_pre_fit"] != rows[i]["misclassified_pre_fit"]:
            p.append(f"audit step {i}: misclassified_pre_fit disagrees with the curve")
        if not 0 <= line["misclassified_post_fit"] <= rows[i]["labeled_count"]:
            p.append(f"audit step {i}: misclassified_post_fit out of range")
        positives = 0
        for e in sel:
            cid = e["id"]
            if cid in seen:
                p.append(f"audit step {i}: {cid} selected twice")
            seen.add(cid)
            if not cid.startswith("train-") or truth.get(cid) is None:
                p.append(f"audit step {i}: {cid} is not a pool candidate")
            elif e["label"] != truth[cid]:
                p.append(f"audit step {i}: {cid} labeled {e['label']}, truth {truth[cid]}")
            positives += e["label"] == positive_class
            p.extend(f"audit step {i}: {cid}: {m}" for m in _check_entry(e, weights, num_classes))
        if sel and positives / len(sel) != rows[i]["selected_positive_fraction"]:
            p.append(f"audit step {i}: positive fraction disagrees with the curve")
    return p


def _check_entry(e: dict, weights, num_classes: int) -> list[str]:
    if weights is None:
        return [] if "score" not in e else ["random selection carries a score"]
    if not all(k in e for k in ("entropy", "diversity", "score", "dominant")):
        return ["active selection without entropy, diversity, score and dominant"]
    l1, l2 = weights
    p = []
    want = l1 * e["entropy"] + l2 * e["diversity"]
    if abs(e["score"] - want) > SCORE_TOL * max(1.0, abs(want)):
        p.append(f"score {e['score']!r} != {l1}*entropy + {l2}*diversity = {want!r}")
    if not 0.0 <= e["entropy"] <= math.log(num_classes) + 1e-12:
        p.append(f"entropy {e['entropy']} outside [0, ln {num_classes}]")
    if not e["diversity"] >= 0.0:
        p.append(f"diversity {e['diversity']} < 0")
    if not 0 <= e["dominant"] < num_classes:
        p.append(f"dominant class {e['dominant']} out of range")
    return p


def check_summary(summary: dict, rows: list[dict], *, label: str, seed: int,
                  budget: int, total_pool: int) -> list[str]:
    p = []
    if summary["strategy"] != label or summary["seed"] != seed:
        p.append(f"summary names {summary['strategy']} seed {summary['seed']}")
    if summary["total_queries"] != budget or rows[-1]["queries_cum"] != budget:
        p.append(f"total_queries {summary['total_queries']} != budget {budget}")
    if summary["final_auc"] != rows[-1]["test_auc"]:
        p.append("summary final_auc differs from the curve")
    return p + check_alc(rows, summary["alc"], total_pool)


def check_comparison(comparison: dict, alcs: dict[str, list[float]], seeds: list[int]) -> list[str]:
    """Means and population standard deviations recomputed from the summaries."""
    p = []
    cells = comparison["cells"]
    if [c["strategy"] for c in cells] != list(alcs) or comparison["seeds"] != seeds:
        return ["comparison cells or seeds do not match the grid"]
    means = []
    for c in cells:
        values = alcs[c["strategy"]]
        mean = sum(values) / len(values)
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        means.append(mean)
        if abs(c["mean_alc"] - mean) > ALC_TOL or abs(c["sd_alc"] - sd) > ALC_TOL:
            p.append(f"{c['strategy']}: mean/sd {c['mean_alc']}/{c['sd_alc']} != {mean}/{sd}")
        if c["n_seeds"] != len(values):
            p.append(f"{c['strategy']}: n_seeds {c['n_seeds']}")
    best = max(range(len(means)), key=lambda i: (means[i], -i))
    flags = [c["best"] for c in cells]
    if flags != [i == best for i in range(len(cells))] or comparison["best"] != cells[best]["strategy"]:
        p.append("best cell is not the one with the largest mean ALC")
    return p


def read_curve_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != CURVE_COLUMNS:
            raise ValueError(f"{path.name}: unexpected header")
        return [
            {"step": int(r[0]), "queries_cum": int(r[1]), "labeled_count": int(r[2]),
             "test_auc": float(r[3]), "selected_positive_fraction": float(r[4]),
             "misclassified_pre_fit": int(r[5])}
            for r in reader
        ]


def read_job(out_dir: Path, slug: str, seed: int) -> dict:
    """The three artifacts of one (strategy, seed) job."""
    audit = out_dir / f"audit_{slug}_seed{seed}.jsonl"
    return {
        "rows": read_curve_csv(out_dir / f"curve_{slug}_seed{seed}.csv"),
        "summary": json.loads((out_dir / f"summary_{slug}_seed{seed}.json").read_text("utf-8")),
        "audit": [json.loads(line) for line in audit.read_text("utf-8").splitlines()],
    }


def check_artifact_set(names: set[str], slugs: list[str], seeds: list[int]) -> list[str]:
    """Exactly three artifacts per job plus the two comparison tables."""
    want = {f"{kind}_{slug}_seed{seed}.{ext}"
            for slug in slugs for seed in seeds
            for kind, ext in (("curve", "csv"), ("summary", "json"), ("audit", "jsonl"))}
    want |= {"comparison.csv", "comparison.json"}
    p = [f"missing artifact {n}" for n in sorted(want - names)]
    return p + [f"unexpected file {n}" for n in sorted(names - want)]
