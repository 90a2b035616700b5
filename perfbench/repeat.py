"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload cli_compare --seeds 1-10 [--trace 0] [--seconds 25]

Runs ``run.py`` one seed after another and prints, per metric, the
median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median, plus the failed share
of operations. ``--out FILE`` also saves every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {json.dumps(results[-1])}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, failed share {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        unit = results[0]["metrics"][name]["unit"]
        print(f"  {name:32s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g}"
              f"  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
