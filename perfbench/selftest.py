"""Self-test of the output checks.

    python3 perfbench/selftest.py

Runs a small ``aftstar compare`` (AFT*-entropy^a_w and RFT, two seeds,
ragged two-class data), requires every check to pass on its real
outputs, then feeds each check a deliberately corrupted copy and
requires that check to reject it. Exits 1 if any check misses its
corruption. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import checks  # noqa: E402
import inputs  # noqa: E402
from aftstar import cli  # noqa: E402

SMALL = inputs.Blobs(class_weights=(0.2, 0.8), train=200, test=100, m_lo=8, m_hi=40, dim=16)
BATCH, BUDGET, SEEDS = 20, 100, [1, 2]
ACTIVE, RANDOM = "AFT_star-entropy^a_w", "RFT"


def real_outputs(work: Path) -> dict:
    truth = inputs.write_dataset(SMALL, 7, work / "data")
    config = work / "compare.json"
    config.write_text(json.dumps({
        "schema_version": 1, "dataset": str(work / "data"),
        "strategies": [{"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": BATCH},
                       {"name": "RFT", "batch_size": BATCH}],
        "stop": {"query_budget": BUDGET}, "seeds": SEEDS,
    }), encoding="utf-8")
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["compare", "--config", str(config), "--output", str(out)])
    if rc != 0:
        raise SystemExit(f"aftstar compare exited {rc}")
    active = checks.read_job(out, ACTIVE.replace("^", "_"), SEEDS[0])
    random = checks.read_job(out, RANDOM, SEEDS[0])
    alcs = {label: [checks.read_job(out, label.replace("^", "_"), s)["summary"]["alc"]
                    for s in SEEDS] for label in (ACTIVE, RANDOM)}
    return {
        "truth": truth,
        "rows": active["rows"], "summary": active["summary"], "audit": active["audit"],
        "random_rows": random["rows"], "random_audit": random["audit"],
        "comparison": json.loads((out / "comparison.json").read_text(encoding="utf-8")),
        "alcs": alcs,
        "names": {p.name for p in out.iterdir()},
    }


def run_checks(b: dict) -> dict[str, list[str]]:
    truth = b["truth"]
    prior = truth["train_prior"][0]
    audit_args = dict(truth=truth["labels"], batch=BATCH, num_classes=truth["num_classes"])
    return {
        "curve": checks.check_curve(b["rows"], batch=BATCH, budget=BUDGET),
        "alc": checks.check_alc(b["rows"], b["summary"]["alc"], truth["train_size"]),
        "balance_active": checks.check_balance(b["rows"], prior=prior, active=True, batch=BATCH),
        "balance_random": checks.check_balance(b["random_rows"], prior=prior, active=False,
                                               batch=BATCH),
        "audit": checks.check_audit(b["audit"], b["rows"], weights=(1.0, 0.0), **audit_args),
        "audit_random": checks.check_audit(b["random_audit"], b["random_rows"], weights=None,
                                           **audit_args),
        "summary": checks.check_summary(b["summary"], b["rows"], label=ACTIVE, seed=SEEDS[0],
                                        budget=BUDGET, total_pool=truth["train_size"]),
        "comparison": checks.check_comparison(b["comparison"], b["alcs"], SEEDS),
        "artifacts": checks.check_artifact_set(b["names"], [ACTIVE.replace("^", "_"), RANDOM],
                                               SEEDS),
    }


def _set(rows, key, value):
    for r in rows[1:]:
        r[key] = value


# (what is corrupted, the check that must reject it, the corruption)
CORRUPTIONS = [
    ("curve row dropped", "curve", lambda b: b["rows"].pop(3)),
    ("labeled_count != queries_cum", "curve", lambda b: b["rows"][2].update(labeled_count=41)),
    ("uneven step size", "curve",
     lambda b: [r.update(queries_cum=r["queries_cum"] + 1, labeled_count=r["labeled_count"] + 1)
                for r in b["rows"][2:]]),
    ("final AUC 0.9", "curve", lambda b: b["rows"][-1].update(test_auc=0.9)),
    ("more misclassified than labeled", "curve",
     lambda b: b["rows"][2].update(misclassified_pre_fit=b["rows"][1]["labeled_count"] + 1)),
    ("positive fraction not a count", "curve",
     lambda b: b["rows"][1].update(selected_positive_fraction=0.123)),
    ("ALC off by 1e-9", "alc", lambda b: b["summary"].update(alc=b["summary"]["alc"] + 1e-9)),
    ("active batches at the prior", "balance_active",
     lambda b: _set(b["rows"], "selected_positive_fraction", b["truth"]["train_prior"][0])),
    ("random batches far from the prior", "balance_random",
     lambda b: _set(b["random_rows"], "selected_positive_fraction", 0.6)),
    ("audit id selected twice", "audit",
     lambda b: b["audit"][1]["selected"][0].update(id=b["audit"][0]["selected"][0]["id"])),
    ("audit label differs from truth", "audit",
     lambda b: b["audit"][0]["selected"][0].update(label=1 - b["audit"][0]["selected"][0]["label"])),
    ("score != lambda1*entropy + lambda2*diversity", "audit",
     lambda b: b["audit"][0]["selected"][0].update(score=b["audit"][0]["selected"][0]["score"] + 1e-9)),
    ("entropy above ln K", "audit",
     lambda b: b["audit"][0]["selected"][0].update(entropy=math.log(2) + 0.01,
                                                   score=math.log(2) + 0.01)),
    ("negative diversity", "audit", lambda b: b["audit"][0]["selected"][0].update(diversity=-1e-3)),
    ("audit line missing", "audit", lambda b: b["audit"].pop()),
    ("audit id not in the pool", "audit",
     lambda b: b["audit"][0]["selected"][0].update(id="test-000")),
    ("random selection carries a score", "audit_random",
     lambda b: b["random_audit"][0]["selected"][0].update(score=1.0)),
    ("summary final_auc differs from curve", "summary",
     lambda b: b["summary"].update(final_auc=b["summary"]["final_auc"] - 0.01)),
    ("summary total_queries", "summary", lambda b: b["summary"].update(total_queries=BUDGET + 1)),
    ("comparison mean", "comparison",
     lambda b: b["comparison"]["cells"][0].update(mean_alc=b["comparison"]["cells"][0]["mean_alc"] + 1e-9)),
    ("comparison sd", "comparison",
     lambda b: b["comparison"]["cells"][1].update(sd_alc=b["comparison"]["cells"][1]["sd_alc"] + 1e-9)),
    ("best flag on the wrong cell", "comparison",
     lambda b: [c.update(best=not c["best"]) for c in b["comparison"]["cells"]]),
    ("extra file in the output directory", "artifacts", lambda b: b["names"].add("trace.json")),
    ("artifact missing", "artifacts", lambda b: b["names"].discard("comparison.csv")),
]


def main() -> int:
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "work"))
    try:
        clean = real_outputs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "work").rmdir()  # only when no benchmark run is using it
    ok = True
    for name, problems in run_checks(clean).items():
        print(f"{'PASS' if not problems else 'FAIL'} clean output passes {name}")
        for m in problems:
            print(f"     {m}")
        ok &= not problems
    for what, target, corrupt in CORRUPTIONS:
        bundle = copy.deepcopy(clean)
        corrupt(bundle)
        problems = run_checks(bundle)[target]
        print(f"{'PASS' if problems else 'FAIL'} {target} rejects: {what}"
              + (f" ({problems[0]})" if problems else ""))
        ok &= bool(problems)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
