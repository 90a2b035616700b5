"""Print one sha256 digest per learning curve of the standard benchmark
grid, then one per artifact of a ragged ``aftstar compare``, then one per
split of a generated dataset as it is read back, then one per learning
curve of a nine-class run, then one of a two-class selection audit, then
one of a learning curve with a noisy oracle, then one of two runs on a
pool with one-patch candidates, then one of two runs that label their
whole pool, then one of a run that weights both criterion terms, then one per learning
curve of two runs with other SGD settings, then one of an unweighted
entropy run and one of a one-candidate-batch diversity run on the ragged
set, then one of a run on a pool with tied patch rows, then one of two
runs whose budget clips their last batch, then one of three runs on
splits written in descending id order, then three of audited runs that
stop on their pool's end or on an AUC target.

The grid: seeds 1-5 (each on ``standard_benchmark(seed)``), query
budget 300, batch 20; AFT* with each of the 8 criterion presets, plus
AFT and RFT. Each line is ``<strategy label> seed=<s> <sha256>``, where
the digest covers every record field in order, floats by ``repr``.

The compare: the ragged three-class set of ``perfbench/inputs.py``
(seed 7), with AFT*-entropy^a_w, AFT*-diversity_w, AFT-diversity^a and
RFT, seeds 1-2, budget 100, batch 20, ``--jobs 2``, run in a temporary
directory. Each line is ``<artifact file name> <sha256>``; the curves,
summaries, selection audits and the two comparison files are covered.

The dataset round trip: ``datagen.write_dataset(standard_benchmark(1))``
read back by ``datagen.load_dataset``. Each line is ``dataset <split>
<sha256>``, where the digest covers every candidate's id, label, feature
shape and feature bytes, in order, read from the split's stack. One more line, ``dataset meta.json
<sha256>``, covers the bytes of the ``meta.json`` it writes: the config
and the ambiguity flags.

The nine-class run: a generated dataset with 9 equally weighted classes
and 10 features (seed 1), with AFT*-diversity_w and RFT, seed 1, budget
300, batch 20. Nine classes take the learner's and the scorer's
reductions over the class axis through numpy's own reductions, where
two and three classes take the column-by-column ones. Each line is
``classes=9 <strategy label> seed=1 <sha256>``, digested like the grid.

The two-class audit: the selection audit JSONL of AFT*-entropy^a_w on
``standard_benchmark(1)``, seed 1, budget 300, batch 20. Its entries
carry each selected candidate's scores and, with two classes, the
``classify_pattern`` label, which the three-class compare audits leave
``null``. The line is ``audit <strategy label> seed=1 <sha256>`` of the
file's bytes.

The noisy oracle: AFT*-entropy^a_w on ``standard_benchmark(1)`` with
``oracle_noise=0.1``, seed 1, budget 300, batch 20, so the oracle's rng
draws sit between the selection's and the fit's. The line is
``noise=0.1 <strategy label> seed=1 <sha256>``, digested like the grid.

The one-patch pool: ``inputs.Blobs`` with 1 to 3 patches per candidate
(two classes, 400 train and 200 test candidates, 6 features; seed 5),
written with ``write_dataset`` and read back by ``datagen.load_dataset``,
with AFT*-entropy^a_w and RFT, seed 1, budget 300, batch 20. Its
one-patch candidates take the prediction path that predicts such a
candidate alone. The line is ``one-patch <sha256>`` over the grid-style
digest of both runs' records, one run after the other, followed by the
bytes of the AFT* run's selection audit, whose scores keep every bit of
the predictions they come from.

The exhausted pool: ``generate(DatagenConfig(train_candidates=50,
test_candidates=30, seed=2))`` with AFT*-entropy^a_w and RFT, seed 1,
batch 20 and no query budget, so each run stops when its pool is all
labeled, after steps of 20, 20 and a clipped last batch of 10. The line
is ``exhausted <sha256>`` over the grid-style digest of both runs'
records, one run after the other.

The mixed weights: AFT*-entropy^a_w with ``lambda2=0.5`` (so lambda1 = 1
and lambda2 = 0.5, where every preset has one weight at 0) on
``standard_benchmark(1)``, seed 1, budget 300, batch 20. The line is
``mixed lambda2=0.5 <strategy label> seed=1 <sha256>`` over the
grid-style digest of its records followed by the bytes of its selection
audit.

The other SGD settings: AFT*-entropy^a_w and RFT on
``standard_benchmark(1)``, seed 1, budget 300, batch 20, trained with
``TrainConfig(minibatch_size=7, epochs=2, momentum=0.5)``, so the fits
walk minibatches of 7 rows, last ones of other short lengths included,
and scale by other factors than the defaults. Each line is
``sgd minibatch=7 epochs=2 momentum=0.5 <strategy label> seed=1
<sha256>``, digested like the grid.

The ragged entropy run: AFT*-entropy (alpha 1, so a candidate's
majority subset is all its patches) on the ragged three-class set of
``perfbench/inputs.py`` (seed 7), read back by ``datagen.load_dataset``,
seed 1, budget 100, batch 20. Its candidates have 8 to 40 patches, so
its entropy is summed for about 33 subset sizes. The line is ``ragged
<strategy label> seed=1 <sha256>`` over the grid-style digest of its
records followed by the bytes of its selection audit. One more line,
``ragged batch=1 <strategy label> seed=1 <sha256>``, digests the same way
AFT*-diversity (alpha 1, entropy unweighted) on that set, seed 1, budget
20, batch 1: its audit computes each selected candidate's entropy alone,
from majority subsets padded to the widest of the pool.

The tied rows: ``standard_benchmark(1)`` with every other train
candidate's patch rows each repeated once, in place, so those candidates
hold equal dominant-class probabilities among their most confident rows
and their majority subsets are ordered by the whole row. AFT*-entropy^a
(a non-randomized preset), seed 1, budget 300, batch 20. The line is
``tied-rows <strategy label> seed=1 <sha256>`` over the grid-style
digest of its records followed by the bytes of its selection audit.

The clipped batch: AFT*-entropy^a_w and RFT on
``standard_benchmark(1)``, seed 1, query budget 250 and batch 40, so
six steps draw 40 and the last, whose batch the remaining budget clips,
draws 10. The line is ``clipped budget=250 batch=40 <sha256>`` over the
grid-style digest of both runs' records, one run after the other.

The descending splits: ``standard_benchmark(1)`` written by
``datagen.write_csv`` with both splits in descending id order, and read
back by ``datagen.load_dataset``, so the pool's stack, in id order, lies
over its rows in reverse and its predictions are gathered from the rows
predicted where they lie; AFT*-entropy^a_w and RFT, seed 1, budget 300,
batch 20. Then the same split with train candidate i cut to its first
``1 + i % 12`` patches (one-patch candidates among them), written and
read back the same way, with AFT*-entropy^a_w and its selection audit.
The line is ``descending <sha256>`` over the grid-style digest of the
three runs' records, one run after the other, followed by the bytes of
the audit.

The audited stops: AFT*-entropy^a_w and RFT, seed 1, batch 20, each
with its selection audit, whose last line counts the H that the last
model misclassifies. On the exhausted pool above, with no query budget
(steps of 20, 20 and 10). On ``standard_benchmark(1)``, budget 300,
with ``auc_target`` 0.995 (AFT* stops at step 1, RFT at step 8). On the
ragged three-class set above, budget 300, with ``auc_target`` 0.9995
(AFT* stops at step 2, RFT at step 5). Each line is ``audited <stop>
<sha256>`` over the grid-style digest of both runs' records, one run
after the other, followed by the bytes of both audits.

The script pins BLAS to one thread, as ``perfbench/run.py`` does, before
numpy is imported: a threaded BLAS may sum in another order.

Two checkouts give the same learning curves and artifacts exactly when
this script prints the same lines in both::

    python tools/curve_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

The script imports the package from the ``src`` directory next to it
and the dataset writer from ``perfbench/inputs.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update({k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from aftstar.cli import main as cli_main  # noqa: E402
from aftstar import datagen  # noqa: E402
from aftstar.datagen import DatagenConfig, generate, standard_benchmark  # noqa: E402
from aftstar.learner import TrainConfig  # noqa: E402
from aftstar.loop import CRITERION_PRESETS, StopRule, make_strategy, run_experiment  # noqa: E402
from aftstar.pool import Candidate  # noqa: E402
from inputs import RAGGED, Blobs, write_dataset  # noqa: E402

SEEDS = range(1, 6)
BUDGET = 300
BATCH = 20
NOISE = 0.1
COMPARE_STRATEGIES = [
    {"name": "AFT_star", "criterion": "entropy^a_w", "batch_size": BATCH},
    {"name": "AFT_star", "criterion": "diversity_w", "batch_size": BATCH},
    {"name": "AFT", "criterion": "diversity^a", "batch_size": BATCH},
    {"name": "RFT", "batch_size": BATCH},
]
ONE_PATCH = Blobs(class_weights=(0.4, 0.6), train=400, test=200, m_lo=1, m_hi=3, dim=6)
NINE_CLASSES = DatagenConfig(num_classes=9, class_weights=(1 / 9,) * 9, feature_dim=10, seed=1)
EXHAUSTED = DatagenConfig(train_candidates=50, test_candidates=30, seed=2)
MIXED_LAMBDA2 = 0.5
OTHER_SGD = TrainConfig(minibatch_size=7, epochs=2, momentum=0.5)
CLIPPED_BUDGET, CLIPPED_BATCH = 250, 40


def grid():
    for criterion in CRITERION_PRESETS:
        yield make_strategy("AFT_star", criterion, BATCH)
    yield make_strategy("AFT", batch_size=BATCH)
    yield make_strategy("RFT", batch_size=BATCH)


def digest(records) -> str:
    text = "\n".join(
        " ".join(repr(value) for value in dataclasses.astuple(record)) for record in records
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def audited_digest(train, test, stop) -> str:
    """The grid-style digest of an AFT*-entropy^a_w and an RFT run's
    records, one run after the other, followed by both selection audits."""
    records, audits = [], b""
    with tempfile.TemporaryDirectory() as tmp:
        for strategy in (make_strategy("AFT_star", "entropy^a_w", BATCH),
                         make_strategy("RFT", batch_size=BATCH)):
            audit = Path(tmp, "audit.jsonl")
            records += run_experiment(train, test, strategy, TrainConfig(), stop, 1,
                                      audit_path=audit)
            audits += audit.read_bytes()
    return hashlib.sha256(digest(records).encode("utf-8") + audits).hexdigest()


def candidates_digest(stack) -> str:
    """Each candidate's id, label, ``(m, d)`` feature shape and feature
    bytes, in order, from a loaded split's stack."""
    h = hashlib.sha256()
    for cid, label, first, m in zip(stack.ids, stack.true_labels.tolist(),
                                    stack.first.tolist(), stack.counts.tolist()):
        features = stack.rows[first : first + m, :-1]
        h.update(f"{cid} {label} {features.shape}\n".encode("utf-8"))
        h.update(features.tobytes())
    return h.hexdigest()


def main() -> None:
    for seed in SEEDS:
        train, test, _ = generate(standard_benchmark(seed=seed))
        for strategy in grid():
            records = run_experiment(
                train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), seed
            )
            print(f"{strategy.label} seed={seed} {digest(records)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        data, out, config = Path(tmp, "data"), Path(tmp, "out"), Path(tmp, "compare.json")
        write_dataset(RAGGED, 7, data)
        config.write_text(json.dumps({
            "schema_version": 1,
            "dataset": str(data),
            "strategies": COMPARE_STRATEGIES,
            "stop": {"query_budget": 100},
            "seeds": [1, 2],
        }), encoding="utf-8")
        argv = ["compare", "--config", str(config), "--output", str(out), "--jobs", "2"]
        with contextlib.redirect_stdout(sys.stderr):
            if cli_main(argv) != 0:
                raise SystemExit("aftstar compare failed")
        for path in sorted(out.iterdir()):
            print(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}", flush=True)
        generated = Path(tmp, "generated")
        datagen.write_dataset(standard_benchmark(1), generated)
        train, test, _ = datagen.load_dataset(generated)
        for split, candidates in (("train", train), ("test", test)):
            print(f"dataset {split} {candidates_digest(candidates)}", flush=True)
        meta = (generated / "meta.json").read_bytes()
        print(f"dataset meta.json {hashlib.sha256(meta).hexdigest()}", flush=True)
    train, test, _ = generate(NINE_CLASSES)
    nine_class_strategies = (
        make_strategy("AFT_star", "diversity_w", BATCH),
        make_strategy("RFT", batch_size=BATCH),
    )
    for strategy in nine_class_strategies:
        records = run_experiment(
            train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), 1
        )
        print(f"classes=9 {strategy.label} seed=1 {digest(records)}", flush=True)
    train, test, _ = generate(standard_benchmark(seed=1))
    strategy = make_strategy("AFT_star", "entropy^a_w", BATCH)
    with tempfile.TemporaryDirectory() as tmp:
        audit = Path(tmp, "audit.jsonl")
        run_experiment(
            train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), 1,
            audit_path=audit,
        )
        print(f"audit {strategy.label} seed=1 {hashlib.sha256(audit.read_bytes()).hexdigest()}",
              flush=True)
    records = run_experiment(
        train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), 1,
        oracle_noise=NOISE,
    )
    print(f"noise={NOISE} {strategy.label} seed=1 {digest(records)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ONE_PATCH, 5, Path(tmp))
        train, test, _ = datagen.load_dataset(Path(tmp))
        audit = Path(tmp, "audit.jsonl")
        records = run_experiment(
            train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), 1,
            audit_path=audit,
        )
        records += run_experiment(
            train, test, make_strategy("RFT", batch_size=BATCH), TrainConfig(),
            StopRule(query_budget=BUDGET), 1,
        )
        h = hashlib.sha256(digest(records).encode("utf-8") + audit.read_bytes()).hexdigest()
    print(f"one-patch {h}", flush=True)
    train, test, _ = generate(EXHAUSTED)
    records = []
    for strategy in (strategy, make_strategy("RFT", batch_size=BATCH)):
        records += run_experiment(train, test, strategy, TrainConfig(), StopRule(), 1)
    print(f"exhausted {digest(records)}", flush=True)
    train, test, _ = generate(standard_benchmark(seed=1))
    strategy = make_strategy("AFT_star", "entropy^a_w", BATCH, lambda2=MIXED_LAMBDA2)
    with tempfile.TemporaryDirectory() as tmp:
        audit = Path(tmp, "audit.jsonl")
        records = run_experiment(
            train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), 1,
            audit_path=audit,
        )
        h = hashlib.sha256(digest(records).encode("utf-8") + audit.read_bytes()).hexdigest()
    print(f"mixed lambda2={MIXED_LAMBDA2} {strategy.label} seed=1 {h}", flush=True)
    settings = (f"minibatch={OTHER_SGD.minibatch_size} epochs={OTHER_SGD.epochs} "
                f"momentum={OTHER_SGD.momentum}")
    for strategy in (make_strategy("AFT_star", "entropy^a_w", BATCH),
                     make_strategy("RFT", batch_size=BATCH)):
        records = run_experiment(train, test, strategy, OTHER_SGD, StopRule(query_budget=BUDGET), 1)
        print(f"sgd {settings} {strategy.label} seed=1 {digest(records)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(RAGGED, 7, Path(tmp))
        train, test, _ = datagen.load_dataset(Path(tmp))
        for prefix, criterion, batch, budget in (("ragged", "entropy", BATCH, 100),
                                                 ("ragged batch=1", "diversity", 1, 20)):
            strategy = make_strategy("AFT_star", criterion, batch)
            audit = Path(tmp, f"audit-{criterion}.jsonl")
            records = run_experiment(
                train, test, strategy, TrainConfig(), StopRule(query_budget=budget), 1,
                audit_path=audit,
            )
            h = hashlib.sha256(digest(records).encode("utf-8") + audit.read_bytes()).hexdigest()
            print(f"{prefix} {strategy.label} seed=1 {h}", flush=True)
    train, test, _ = generate(standard_benchmark(seed=1))
    train = [Candidate(c.id, c.features.repeat(2, axis=0), c.true_label) if i % 2 else c
             for i, c in enumerate(train)]
    strategy = make_strategy("AFT_star", "entropy^a", BATCH)
    with tempfile.TemporaryDirectory() as tmp:
        audit = Path(tmp, "audit.jsonl")
        records = run_experiment(
            train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), 1,
            audit_path=audit,
        )
        h = hashlib.sha256(digest(records).encode("utf-8") + audit.read_bytes()).hexdigest()
    print(f"tied-rows {strategy.label} seed=1 {h}", flush=True)
    train, test, _ = generate(standard_benchmark(seed=1))
    records = []
    for strategy in (make_strategy("AFT_star", "entropy^a_w", CLIPPED_BATCH),
                     make_strategy("RFT", batch_size=CLIPPED_BATCH)):
        records += run_experiment(
            train, test, strategy, TrainConfig(), StopRule(query_budget=CLIPPED_BUDGET), 1
        )
    print(f"clipped budget={CLIPPED_BUDGET} batch={CLIPPED_BATCH} {digest(records)}", flush=True)
    generated, test, _ = generate(standard_benchmark(seed=1))
    ragged = [Candidate(c.id, c.features[: 1 + i % 12], c.true_label)
              for i, c in enumerate(generated)]
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        datagen.write_csv(test[::-1], Path(tmp, "test.csv"))
        audit = Path(tmp, "audit.jsonl")
        runs = ((generated, make_strategy("AFT_star", "entropy^a_w", BATCH), None),
                (generated, make_strategy("RFT", batch_size=BATCH), None),
                (ragged, make_strategy("AFT_star", "entropy^a_w", BATCH), audit))
        for candidates, strategy, audit_path in runs:
            datagen.write_csv(candidates[::-1], Path(tmp, "train.csv"))
            train, loaded_test, _ = datagen.load_dataset(tmp)
            records += run_experiment(
                train, loaded_test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), 1,
                audit_path=audit_path,
            )
        h = hashlib.sha256(digest(records).encode("utf-8") + audit.read_bytes()).hexdigest()
    print(f"descending {h}", flush=True)
    train, test, _ = generate(EXHAUSTED)
    print(f"audited exhausted {audited_digest(train, test, StopRule())}", flush=True)
    train, test, _ = generate(standard_benchmark(seed=1))
    stop = StopRule(query_budget=BUDGET, auc_target=0.995)
    print(f"audited auc_target={stop.auc_target} {audited_digest(train, test, stop)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(RAGGED, 7, Path(tmp))
        train, test, _ = datagen.load_dataset(Path(tmp))
        stop = StopRule(query_budget=BUDGET, auc_target=0.9995)
        print(f"audited ragged auc_target={stop.auc_target} {audited_digest(train, test, stop)}",
              flush=True)


if __name__ == "__main__":
    main()
