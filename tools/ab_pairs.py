"""Run the benchmark in alternating pairs: a parent commit against this checkout.

    python3 tools/ab_pairs.py --parent HEAD~1 --pairs 10 --metric setup_s \\
        --workload aftstar_bigpool --seed 3

Extracts ``--parent`` with ``git archive`` into a temporary directory,
which it removes afterwards. Each pair runs both sides' own
``perfbench/run.py`` with the same arguments (every argument this script
does not take itself), the parent first in odd pairs and this checkout
first in even ones. It then prints, per metric, each side's median and
quartiles (``statistics.quantiles(n=4)``), the change of the median in %,
and the pairs the change won; a tie counts for neither side. Whether lower
or higher is better comes from ``BENCHMARK.json`` (lower when it does not
list the metric). For ``--metric`` it also prints whether a gain may be
claimed: the change wins at least nine pairs in ten, and its median beats
the parent's by more than the distance between the parent's quartiles.

Each end-to-end metric of ``BENCHMARK.json`` also gets a no-regression
verdict against its ``bound``, a fraction of the parent's median:
``worse`` when the change's median is worse than the parent's by more
than that, else ``unresolved`` when the parent's quartile spread exceeds
it and some change run does not beat every parent run, else ``ok``.

Exits 1, after the pairs already run, when a run fails or reports an
incorrect result or a failed operation, or when a verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Compare one metric's runs, where ``parent[i]`` and ``change[i]``
    form pair ``i``."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pairs = len(parent)
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else float("nan"),
        "wins": wins,
        "pairs": pairs,
        "gain_holds": 10 * wins >= 9 * pairs and sign * (p_med - c_med) > p_q3 - p_q1,
    }


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved``: one end-to-end metric's runs
    against its bound, as the module docstring states."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    allowed = bound * abs(p_med)
    if sign * (quartiles(change)[1] - p_med) > allowed:
        return "worse"
    if p_q3 - p_q1 > allowed and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved"
    return "ok"


def _benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def directions(root: Path) -> dict[str, str]:
    bench = _benchmark(root)
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench[key]}


def bounds(root: Path) -> dict[str, float]:
    """The no-regression bound of each end-to-end metric."""
    return {m["name"]: m["bound"] for m in _benchmark(root)["end_to_end"]}


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_side(root: Path, run_args: list[str]) -> dict | None:
    """One run of ``root``'s benchmark; None when it fails or is incorrect."""
    done = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *run_args],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        print(f"{root}: run failed (exit {done.returncode}): {done.stdout.strip()[-500:]}\n"
              f"{done.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--parent", required=True, help="the git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", default=None, help="the metric a gain is claimed on")
    args, run_args = ap.parse_known_args(argv)

    better = directions(ROOT)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    parent_root = Path(tempfile.mkdtemp(prefix="ab-parent-"))
    try:
        extract(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_side(roots[side], run_args) for side in order}
            if None in pair.values():
                ok = False
                break
            for side, result in pair.items():
                runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    if not runs["change"]:
        return 1

    print(f"{len(runs['change'])} pairs, parent {args.parent} vs. this checkout, "
          f"perfbench/run.py {' '.join(run_args)}")
    print(f"  {'metric':32s} {'unit':6s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'change':>8s}  wins")
    summaries, series = {}, {}
    for name, first in runs["change"][0]["metrics"].items():
        values = series[name] = {
            side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs
        }
        s = summaries[name] = summarise(values["parent"], values["change"], better.get(name, "lower"))
        parent, change = (f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for q1, m, q3 in (s["parent"], s["change"]))
        print(f"  {name:32s} {first['unit']:6s} {parent:32s} {change:32s} "
              f"{s['change_pct']:+7.1f}%  {s['wins']}/{s['pairs']}")
    for name, bound in bounds(ROOT).items():
        if name not in series:
            continue
        v = verdict(series[name]["parent"], series[name]["change"], better[name], bound)
        ok = ok and v != "worse"
        s = summaries[name]
        print(f"no regression on {name} (bound {bound:.0%} of the parent median): {v}, median "
              f"{s['parent'][1]:.4g} -> {s['change'][1]:.4g}, parent quartile spread "
              f"{s['parent'][2] - s['parent'][0]:.4g}")
    if args.metric is not None:
        s = summaries.get(args.metric)
        if s is None:
            print(f"no metric {args.metric!r} in the results", file=sys.stderr)
            return 1
        rule = "holds" if s["gain_holds"] else "does not hold"
        print(f"gain on {args.metric}: {s['wins']} of {s['pairs']} pairs won, median "
              f"{s['parent'][1]:.4g} -> {s['change'][1]:.4g}, parent quartile spread "
              f"{s['parent'][2] - s['parent'][0]:.4g}: the rule {rule}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
