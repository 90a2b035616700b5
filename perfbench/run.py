"""AFT* benchmark: one run of one workload.

    python3 perfbench/run.py --workload aftstar_bigpool --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Writes the workload's inputs from
``--seed`` into a scratch directory under ``perfbench/work``, measures the
workload for ``--seconds`` in a child process (``workload.py``) that uses
the checkout's ``src`` with BLAS pinned to one thread, and prints the
child's result as the last line: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). Exits non-zero without a result when the checkout has no
program or the run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("aftstar_bigpool", "rft_growing_L", "cli_compare")
TIME_LIMIT_S = 170.0
SINGLE_THREAD = {k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def main(argv=None) -> int:
    started = monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "aftstar" / "__init__.py").is_file():
        print(f"no program: {ROOT / 'src' / 'aftstar'} is missing", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    import inputs  # imports numpy, so after the thread pinning

    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        spec = inputs.RAGGED if args.workload == "cli_compare" else inputs.BIGPOOL
        inputs.write_dataset(spec, args.seed, work / "data")
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--data", str(work / "data"), "--work", str(work), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                 start_new_session=True)
        try:
            out, _ = child.communicate(timeout=max(1.0, TIME_LIMIT_S - (monotonic() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the workload and any compare workers
            child.wait()
            print("workload timed out", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "work").rmdir()  # only when no other run is using it
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"workload exited {child.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("workload printed no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
