"""Run AFT* against the RFT random-selection baseline on the synthetic
benchmark and print the learning curves side by side.

The benchmark is an imbalanced two-class problem (20% positives) where
a quarter of the candidates are ambiguous: some of their patches look
like the other class while inheriting the candidate's label. AFT*
continuously fine-tunes on newly annotated plus currently misclassified
candidates; RFT retrains from the starting model on everything labeled
so far, with batches chosen uniformly at random.

Takes a few seconds. For the full grid over seeds and criteria
use the CLI `aftstar compare`.
"""

from aftstar import (
    LearningCurve,
    StopRule,
    TrainConfig,
    generate,
    make_strategy,
    run_experiment,
    standard_benchmark,
)

SEED = 1
BUDGET = 300

train, test, _ = generate(standard_benchmark(seed=SEED))
train_cfg = TrainConfig()
stop = StopRule(query_budget=BUDGET)

curves = {}
for label, strategy in [
    ("AFT*-entropy^a_w", make_strategy("AFT_star", criterion="entropy^a_w", batch_size=20)),
    ("RFT", make_strategy("RFT", batch_size=20)),
]:
    curves[label] = run_experiment(train, test, strategy, train_cfg, stop, SEED)

print(f"{'queries':>8s}  " + "  ".join(f"{label:>18s}" for label in curves))
for i in range(len(curves["RFT"])):
    row = [f"{curves['RFT'][i].queries_cum:8d}"]
    for label in curves:
        row.append(f"{curves[label][i].test_auc:18.4f}")
    print("  ".join(row))

print()
for label, records in curves.items():
    alc = LearningCurve.from_records(records, total_pool=len(train)).alc
    print(f"{label:>18s}: ALC {alc:.4f}")

# positive capture: the pool holds 20% positives; active selection should
# pull in clearly more than that while positives remain. Each record holds
# the positive fraction of its own batch, so weight it by the batch size.
for label, records in curves.items():
    selected = records[-1].queries_cum
    positives = sum(
        r.selected_positive_fraction * (r.queries_cum - prev.queries_cum)
        for prev, r in zip(records, records[1:])
    )
    print(f"{label:>18s}: fraction of positives among {selected} selected = "
          f"{positives / selected:.3f}")
