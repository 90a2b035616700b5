"""Timing wrappers installed around the program's public functions.

Nothing here edits the program: ``install`` replaces module attributes
with wrappers, and the program's own calls go through those attributes.
``loop`` imports its collaborators by name, so most spans wrap the
names in ``aftstar.loop``.

Two levels:

* untraced (``full=False``): only ``loop.run_step`` is timed, between two
  :class:`Probe` runs that measure the machine's speed, which gives the step
  times and the end of set-up; ``cli._run_one`` is wrapped so that a
  ``compare`` worker ships its step times back;
* traced (``full=True``): a span at every layer boundary below, plus the
  counters the per-layer metrics need.

Spans are aggregated in memory per name as (calls, self seconds,
inclusive seconds). A span's self time is its duration minus the time of
the spans it directly encloses. ``compare`` workers are forked, so they
inherit the wrappers; they skip ``atexit``, so each worker writes its
aggregate to ``spans_dir`` at the end of every job and starts afresh.
A function that is missing from the program is recorded in ``absent``
and left alone.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

# The probe's time on an otherwise idle 2.1 GHz Xeon core of the reference machine.
REFERENCE_PROBE_S = 0.0027


class Probe:
    """A fixed few milliseconds of the kinds of work the program does.

    Other tenants of a shared machine slow every core by up to 1.6x for
    seconds to minutes at a time, in CPU time as well as in wall time. The
    probe is timed around each measured section; ``REFERENCE_PROBE_S /
    probe time`` is the machine's speed at that moment, relative to an idle
    reference core.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.blocks = [rng.standard_normal((12, 10)) for _ in range(150)]
        self.weights = rng.standard_normal((2, 11))
        self.text = "\n".join(",".join(map(repr, r)) for r in rng.standard_normal((150, 12)).tolist())
        for _ in range(20):  # warm up caches and allocator
            self()

    def __call__(self) -> float:
        t0 = perf_counter()
        for X in self.blocks:  # per-candidate softmax and entropy, as in scoring
            Z = np.hstack([X, np.ones((X.shape[0], 1))]) @ self.weights.T
            Z = np.exp(Z - Z.max(axis=1, keepdims=True))
            P = Z / Z.sum(axis=1, keepdims=True)
            float(-(P * np.log(P)).sum())
        for row in csv.reader(io.StringIO(self.text)):  # CSV parsing, as in loading
            [float(v) for v in row]
        return perf_counter() - t0


class Tracer:
    def __init__(self, full: bool, spans_dir: Path, probe: Probe | None = None):
        self.full = full
        self.spans_dir = spans_dir
        self.probe = probe
        self.pid = os.getpid()
        self.absent: list[str] = []
        self.jobs_flushed = 0
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        # job key -> [wall, cpu, probe before, probe after] of each run_step call, in order
        self.steps: dict[str, list[list[float]]] = {}
        self.first_step_start: float | None = None
        self.first_step_cpu = 0.0
        self.job_key = ""
        self.run_self = 0.0  # self time of spans that closed inside the run window
        self.in_run = False
        self.eval_end: float | None = None
        self.pairs: dict[tuple[int, int], tuple] = {}

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.stack.pop()
                own = dur - frame[0]
                s = self.stats[name]
                s[0] += 1
                s[1] += own
                s[2] += dur
                if self.in_run:
                    self.run_self += own
                if self.stack:
                    self.stack[-1][0] += dur
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    @staticmethod
    def counter(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(out, *args, **kwargs)
            return out

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}")
            return
        setattr(owner, attr, make(fn))

    def _step(self, fn):
        inner = self.span("loop.step", fn) if self.full else fn

        @functools.wraps(fn)
        def run_step(*args, **kwargs):
            self.in_run = True
            self.eval_end = None
            if self.first_step_start is None:
                self.first_step_start, self.first_step_cpu = perf_counter(), process_time()
            before = self.probe() if self.probe else 0.0
            t0, c0 = perf_counter(), process_time()
            try:
                return inner(*args, **kwargs)
            finally:
                t1, c1 = perf_counter(), process_time()
                after = self.probe() if self.probe else 0.0
                self.steps.setdefault(self.job_key, []).append([t1 - t0, c1 - c0, before, after])
                if self.eval_end is not None:
                    self.counts["audit_s"] += t1 - self.eval_end

        return run_step

    def _job(self, fn):
        inner = self.span("cli.job", fn) if self.full else fn

        @functools.wraps(fn)
        def run_one(*args, **kwargs):
            worker = os.getpid() != self.pid
            if worker and not self.jobs_flushed:
                self.reset()  # drop what the fork copied from the parent
            self.in_run = True
            # Every argument but the output directory: the same job in every round.
            self.job_key = repr(args[1:-1])
            try:
                return inner(*args, **kwargs)
            finally:
                if worker:
                    self.flush()

        return run_one

    def flush(self) -> None:
        """Write this worker's aggregate for the job that just ended."""
        self.jobs_flushed += 1
        path = self.spans_dir / f"{os.getpid()}-{self.jobs_flushed}.json"
        path.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        self.reset()

    def snapshot(self) -> dict:
        return {
            "stats": dict(self.stats),
            "counts": dict(self.counts),
            "steps": self.steps,
            "run_self": self.run_self,
            "pairs": len(self.pairs),
        }

    def install(self) -> None:
        from aftstar import cli, criteria, datagen, loop, metrics, oracle

        self._patch(loop, "run_step", self._step)
        self._patch(cli, "_run_one", self._job)
        if not self.full:
            return
        span = self.span

        def on_predict(out, model, candidate, *_):
            self.counts["patches"] += len(out)
            key = (id(model), id(candidate))
            if key not in self.pairs:
                self.pairs[key] = (model, candidate)  # held so that ids are not reused

        def on_hmine(out, model, labeled, *_):
            self.counts["hmine_hits"] += len(out)
            self.counts["hmine_examined"] += len(labeled)

        def on_fit(out, base, data, cfg, *_):
            self.counts["fit_rows"] += len(data[0]) * cfg.epochs

        def on_collect(out, *_):
            self.counts["train_rows"] += len(out[0])

        def on_query(out, oracle_self, ids, *_):
            self.counts["queries"] += len(ids)

        def on_check(*_):
            self.counts["checks"] += 1

        def eval_ended(*_):
            self.eval_end = perf_counter()

        def traced_evaluator(make_evaluator):
            @functools.wraps(make_evaluator)
            def wrapper(*args, **kwargs):
                return span("loop.evaluate", make_evaluator(*args, **kwargs), after=eval_ended)

            return wrapper

        self._patch(datagen, "load_dataset", lambda f: span("datagen.load", f))
        self._patch(loop, "predict", lambda f: span("learner.predict", f, after=on_predict))
        self._patch(loop, "candidate_probability",
                    lambda f: span("learner.candidate_probability", f))
        self._patch(loop, "fit", lambda f: span("learner.fit", f, after=on_fit))
        self._patch(loop, "collect_patches", lambda f: self.counter(f, on_collect))
        self._patch(loop, "score_candidate", lambda f: span("criteria.score", f))
        self._patch(criteria, "check_prediction_matrix", lambda f: self.counter(f, on_check))
        self._patch(loop, "select_batch", lambda f: span("sampler.select", f))
        self._patch(loop, "uniform_batch", lambda f: span("sampler.select", f))
        self._patch(oracle.Oracle, "query", lambda f: span("oracle.query", f, after=on_query))
        self._patch(loop, "move_to_labeled", lambda f: span("pool.move", f))
        self._patch(loop, "misclassified_set", lambda f: span("loop.hmine", f, after=on_hmine))
        self._patch(loop, "make_evaluator", traced_evaluator)
        self._patch(loop, "auc", lambda f: span("metrics.auc", f))
        self._patch(loop, "macro_auc", lambda f: span("metrics.auc", f))
        self._patch(metrics, "auc", lambda f: span("metrics.auc", f))
        self._patch(metrics, "write_curve_csv", lambda f: span("metrics.write", f))
        self._patch(metrics, "write_summary_json", lambda f: span("metrics.write", f))


def empty() -> dict:
    return {"stats": {}, "counts": {}, "steps": {}, "run_self": 0.0, "pairs": 0}


def merge(into: dict, part: dict) -> None:
    """Add one snapshot (a round of the parent, or a worker's job) to a total."""
    for name, (calls, own, incl) in part["stats"].items():
        s = into["stats"].setdefault(name, [0, 0.0, 0.0])
        s[0] += calls
        s[1] += own
        s[2] += incl
    for key, value in part["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    for key, steps in part["steps"].items():
        into["steps"].setdefault(key, []).extend(steps)
    into["run_self"] += part["run_self"]
    into["pairs"] += part["pairs"]
