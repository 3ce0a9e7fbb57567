#!/usr/bin/env python3
"""Benchmark of the cbforms toolkit: one workload in one fresh process.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run builds the workload's seeded corpus once (the set-up), then runs
its tasks in a closed loop (one caller; the next task starts when the
previous one ends) in whole rounds until ``--seconds`` of loop time have
passed.  Each output is checked right after its task, outside the task's
timer, and then dropped, so memory stays flat in the number of tasks;
only round 0's outputs are kept for the sampled checks that follow the
loop.  The last line printed is one JSON object.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` every task runs once
untraced and once with every layer wrapped, and the run reports per-task
layer metrics plus the tracing overhead.  ``--smoke`` runs one traced,
checked round of every workload.

BLAS is pinned to one thread.  The package is imported from ``src/`` of
the checkout this file sits in; without it the run exits with code 2.
See README.md in this directory for the workloads and metrics.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a fixed ladder keeps the reported percentile from drifting with small
# changes in the task count; p99 needs 1000 tasks, p90 needs 100
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10


def tail(durations: list[float]) -> tuple[float, float, int]:
    """The highest percentile of TAIL_PERCENTILES (nearest rank) with at
    least TAIL_BEYOND samples beyond it, else the median: the value, the
    percentile, and how many samples lie beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in reversed(TAIL_PERCENTILES):
        k = max(math.ceil(pct / 100.0 * n) - 1, 0)
        if n - 1 - k >= TAIL_BEYOND or pct == TAIL_PERCENTILES[0]:
            return ordered[k], pct, n - 1 - k


def run_task(wl, task, wrap=contextlib.nullcontext()):
    """Time one task (inside ``wrap``), then check its output outside the
    timer: (duration, check time, output, problem or None)."""
    t0 = perf_counter()
    try:
        with wrap:
            out = task.run()
    except Exception:  # a failing task is counted, not fatal
        return perf_counter() - t0, 0.0, None, traceback.format_exc()
    t1 = perf_counter()
    problem = wl.check(task, out)
    return t1 - t0, perf_counter() - t1, out, problem


class Loop:
    """Whole rounds until ``seconds`` of loop time, less checking, have
    passed.  With a tracer every task runs twice on the same inputs,
    untraced and traced, the untraced run first in even rounds and last
    in odd ones, so that the second run's warmer caches favour neither."""

    def __init__(self, wl, corpus, tracer=None):
        self.wl, self.corpus, self.tracer = wl, corpus, tracer
        self.durations: list[float] = []  # untraced tasks
        self.traced: list[float] = []
        self.problems: list[tuple[str, str]] = []  # (task label, problem)
        self.first_round: list[tuple] = []  # (task, output) of round 0
        self.attempted = 0
        self.busy_s = 0.0

    def _once(self, task, traced: bool):
        if traced:
            self.tracer.task = len(self.traced)
            duration, check_s, out, problem = run_task(self.wl, task, self.tracer)
            self.traced.append(duration)
        else:
            duration, check_s, out, problem = run_task(self.wl, task)
            self.durations.append(duration)
        self.attempted += 1
        if problem:
            self.problems.append((task.label, problem))
        return check_s, out

    def run(self, seconds: float) -> "Loop":
        passes = (False,) if self.tracer is None else (False, True)
        start = perf_counter()
        check_s = 0.0
        r = 0
        while True:
            for task in self.wl.round(self.corpus, r):
                for traced in (passes if r % 2 == 0 else passes[::-1]):
                    spent, out = self._once(task, traced)
                    check_s += spent
                    if r == 0 and not traced and out is not None:
                        self.first_round.append((task, out))
            r += 1
            self.busy_s = perf_counter() - start - check_s
            if self.busy_s >= seconds:
                return self

    def check_sampled(self):
        """The replays of round 0, run once the loop is over and only if
        nothing failed before."""
        if not self.problems:
            self.problems += [(self.first_round[j][0].label, problem) for j, problem
                              in sorted(self.wl.sampled_checks(self.first_round).items())]


def environment(np) -> dict:
    uname = os.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def run_workload(args, modules) -> int:
    np, workloads, tracer_mod = modules
    import_s = perf_counter() - PROCESS_START
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    t0 = perf_counter()
    corpus = wl.build()
    corpus_s = perf_counter() - t0

    env = environment(np)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env}
    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        with tracer:
            wl.build()  # one traced set-up for the set-up layers
    loop_start = perf_counter()
    loop = Loop(wl, corpus, tracer).run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check_sampled()
    for label, problem in loop.problems[:5]:
        print(f"FAILED {label}: {problem.strip()}", file=sys.stderr)

    if args.trace:
        # every traced task has an untraced twin on the same inputs
        overhead = (math.fsum(loop.traced) / math.fsum(loop.durations) - 1.0) * 100.0
        spans_per_task = len(tracer.spans) / len(loop.traced)
        metrics = {name: {"value": value, "unit": tracer_mod.metric_unit(name)}
                   for name, value in tracer.layer_metrics(len(loop.traced), 1).items()}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        metrics["trace.spans"] = {"value": spans_per_task, "unit": "count"}
        info["absent"] = tracer.absent
        info["traced_tasks"] = len(loop.traced)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", info)
    else:
        setup_s = loop_start - PROCESS_START
        tail_s, tail_pct, beyond = tail(loop.durations)
        info["setup"] = {"import_s": import_s, "corpus_s": corpus_s}
        info["tail"] = {"percentile": tail_pct, "beyond": beyond, "tasks": len(loop.durations)}
        info["durations_s"] = loop.durations
        metrics = {
            "tasks_per_s": {"value": len(loop.durations) / loop.busy_s, "unit": "1/s"},
            "task_p50_s": {"value": statistics.median(loop.durations), "unit": "s"},
            "task_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    info["metrics"] = metrics
    info["problems"] = len(loop.problems)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2) + "\n")
    print(f"env: {json.dumps(env)}")
    if args.trace:
        absent = ", ".join(tracer.absent) or "none"
        print(f"{len(loop.traced)} tasks each run untraced and traced; tracing adds "
              f"{overhead:.2f}%; absent functions: {absent}")
    else:
        print(f"{len(loop.durations)} tasks in {loop.busy_s:.2f} s; task_tail_s is the "
              f"p{tail_pct:.1f} ({beyond} tasks beyond it); setup: import {import_s:.3f} s, "
              f"corpus {corpus_s:.3f} s")
    print(json.dumps({"correct": not loop.problems, "attempted": loop.attempted,
                      "failed": len(loop.problems), "metrics": metrics}))
    return 1 if loop.problems else 0


def smoke(modules) -> int:
    """One traced round of every workload, with all its checks."""
    np, workloads, tracer_mod = modules
    status = 0
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(ROOT, 0)
        tracer = tracer_mod.Tracer()
        loop = Loop(wl, wl.build(), tracer).run(0.0)
        loop.check_sampled()
        layers = sorted({span[3] for span in tracer.spans})
        verdict = ("ok" if not loop.problems else
                   "FAILED: " + "; ".join(problem for _, problem in loop.problems))
        print(f"{name}: {loop.attempted} tasks in {loop.busy_s:.3f} s, "
              f"layers {', '.join(layers)}: {verdict}")
        status |= bool(loop.problems)
    return status


def load_modules():
    """Pin BLAS, then import numpy and the package from this checkout."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    package = ROOT / "src" / "cbforms" / "__init__.py"
    oracles = ROOT / "tests" / "oracles.py"
    missing = [str(p.relative_to(ROOT)) for p in (package, oracles) if not p.is_file()]
    if missing:
        raise FileNotFoundError(f"not a cbforms checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import cbforms
    if Path(cbforms.__file__).resolve() != package.resolve():
        raise ImportError(f"cbforms was imported from {cbforms.__file__}, not {package}")
    import tracer
    import workloads
    return np, workloads, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("witness", "profile", "online", "moments"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one checked round per workload")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        modules = load_modules()
    except (FileNotFoundError, ImportError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    return smoke(modules) if args.smoke else run_workload(args, modules)


if __name__ == "__main__":
    sys.exit(main())
