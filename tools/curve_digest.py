"""Print one sha256 digest per learning curve of the standard benchmark grid.

The grid: seeds 1-5 (each on ``standard_benchmark(seed)``), query
budget 300, batch 20; AFT* with each of the 8 criterion presets, plus
AFT and RFT. Each line is ``<strategy label> seed=<s> <sha256>``, where
the digest covers every record field in order, floats by ``repr``.

Two checkouts give the same learning curves exactly when this script
prints the same lines in both::

    python tools/curve_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

The script imports the package from the ``src`` directory next to it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aftstar.datagen import generate, standard_benchmark  # noqa: E402
from aftstar.learner import TrainConfig  # noqa: E402
from aftstar.loop import CRITERION_PRESETS, StopRule, make_strategy, run_experiment  # noqa: E402

SEEDS = range(1, 6)
BUDGET = 300
BATCH = 20


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


def main() -> None:
    for seed in SEEDS:
        train, test, _ = generate(standard_benchmark(seed=seed))
        for strategy in grid():
            records = run_experiment(
                train, test, strategy, TrainConfig(), StopRule(query_budget=BUDGET), seed
            )
            print(f"{strategy.label} seed={seed} {digest(records)}", flush=True)


if __name__ == "__main__":
    main()
