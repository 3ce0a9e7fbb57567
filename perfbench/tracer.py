"""Span tracing of the cbforms layers, installed from outside the package.

Each traced function is replaced, at the name its caller looks it up,
by a wrapper that records one span: an identifier, the parent span that
was open when it started, the task it belongs to, its name, start and
end times, and an optional count of work done (terms restricted, queries
made, cube points swept, pairings listed).  Spans stay in memory until
the run ends.  The tracer can be installed and removed many times; its
spans accumulate.

A function that the package no longer defines is reported as absent;
its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SETUP_TASK = -1


def _num_terms_of_self(args, result):
    return args[0].num_terms()


def _queries_used(args, result):
    return result.queries_used


def _points_swept(args, result):
    return len(result.errors)


def _pairings_listed(args, result):
    return len(result)


# (span name, module or class where the caller looks the name up,
#  attribute, count of work done or None)
LAYER_FUNCTIONS = (
    ("matnum.haar_unitary", "cbforms.witness", "haar_unitary", None),
    ("matnum.polar", "cbforms.witness", "polar", None),
    ("matnum.operator_norm", "cbforms.witness", "operator_norm", None),
    ("matnum.operator_norm_svd", "cbforms.witness", "operator_norm_svd", None),
    # the power-iteration norm falls back to the SVD norm through matnum
    ("matnum.operator_norm_svd", "cbforms.matnum", "operator_norm_svd", None),
    ("ncpoly.evaluate_nc", "cbforms.witness", "evaluate_nc", None),
    ("witness.polar_witness", "cbforms.witness", "polar_witness", None),
    ("forms.restrict", "cbforms.forms:BlockMultilinearForm", "restrict", _num_terms_of_self),
    ("forms.max_influence", "cbforms.forms:BlockMultilinearForm", "max_influence", None),
    ("forms.evaluate", "cbforms.forms:BlockMultilinearForm", "evaluate", None),
    ("simulate.error_profile", "cbforms.simulate", "error_profile", _points_swept),
    ("simulate.simulate_on_input", "cbforms.simulate", "simulate_on_input", _queries_used),
    ("freecomb.trace_moment_exact", "cbforms.freecomb", "trace_moment_exact", None),
    ("freecomb.enumerate_star_pairings", "cbforms.freecomb", "enumerate_star_pairings",
     _pairings_listed),
    ("quantum.extract_form", "cbforms.quantum", "extract_form", None),
)

# per-layer metric -> (span name, statistic); statistics are summed over
# the spans of the timed loop and divided by its task count, except for
# set-up layers, which are divided by the number of set-ups traced
LAYER_METRICS = {
    "matnum.haar_unitary.calls": ("matnum.haar_unitary", "calls"),
    "matnum.haar_unitary.time_s": ("matnum.haar_unitary", "time"),
    "matnum.polar.calls": ("matnum.polar", "calls"),
    "matnum.polar.time_s": ("matnum.polar", "time"),
    "matnum.operator_norm.calls": ("matnum.operator_norm", "calls"),
    "matnum.operator_norm.time_s": ("matnum.operator_norm", "time"),
    "matnum.operator_norm_svd.calls": ("matnum.operator_norm_svd", "calls"),
    "matnum.operator_norm_svd.time_s": ("matnum.operator_norm_svd", "time"),
    "ncpoly.evaluate_nc.calls": ("ncpoly.evaluate_nc", "calls"),
    "ncpoly.evaluate_nc.time_s": ("ncpoly.evaluate_nc", "time"),
    "witness.polar_witness.calls": ("witness.polar_witness", "calls"),
    "witness.polar_witness.self_s": ("witness.polar_witness", "self"),
    "forms.restrict.calls": ("forms.restrict", "calls"),
    "forms.restrict.time_s": ("forms.restrict", "time"),
    "forms.restrict.terms": ("forms.restrict", "count"),
    "forms.max_influence.calls": ("forms.max_influence", "calls"),
    "forms.max_influence.time_s": ("forms.max_influence", "time"),
    "forms.evaluate.calls": ("forms.evaluate", "calls"),
    "forms.evaluate.time_s": ("forms.evaluate", "time"),
    "simulate.error_profile.calls": ("simulate.error_profile", "calls"),
    "simulate.error_profile.self_s": ("simulate.error_profile", "self"),
    "simulate.simulate_on_input.calls": ("simulate.simulate_on_input", "calls"),
    "simulate.simulate_on_input.self_s": ("simulate.simulate_on_input", "self"),
    "simulate.queries": ("simulate.simulate_on_input", "count"),
    "simulate.points": ("simulate.error_profile", "count"),
    "freecomb.trace_moment_exact.calls": ("freecomb.trace_moment_exact", "calls"),
    "freecomb.trace_moment_exact.time_s": ("freecomb.trace_moment_exact", "time"),
    "freecomb.enumerate_star_pairings.calls": ("freecomb.enumerate_star_pairings", "calls"),
    "freecomb.enumerate_star_pairings.time_s": ("freecomb.enumerate_star_pairings", "time"),
    "freecomb.pairings": ("freecomb.enumerate_star_pairings", "count"),
    "quantum.extract_form.calls": ("quantum.extract_form", "calls"),
    "quantum.extract_form.time_s": ("quantum.extract_form", "time"),
}

SETUP_LAYERS = frozenset({"quantum.extract_form"})

_UNITS = {"calls": "count", "count": "count", "time": "s", "self": "s"}


def metric_unit(metric: str) -> str:
    return _UNITS[LAYER_METRICS[metric][1]]


def _resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder; ``task`` is set by the loop before each task."""

    FIELDS = ("id", "parent", "task", "name", "start", "end", "count")

    def __init__(self):
        self.spans: list[tuple] = []
        self.task = SETUP_TASK
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        self.absent: list[str] = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
            work = count(args, result) if count is not None else None
            tracer.spans.append((span_id, parent, tracer.task, name, start, end, work))
            return result

        return traced

    def install(self):
        """Patch every listed function; missing ones are recorded as absent."""
        for name, owner_path, attr, count in LAYER_FUNCTIONS:
            owner = _resolve_owner(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                if f"{owner_path}.{attr}" not in self.absent:
                    self.absent.append(f"{owner_path}.{attr}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self, tasks: int, setups: int) -> dict[str, float]:
        """Per-task (per-set-up for set-up layers) sums of each statistic."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for span_id, _, task, name, start, end, work in self.spans:
            if (task == SETUP_TASK) != (name in SETUP_LAYERS):
                continue
            dur = end - start
            totals[name, "calls"] += 1
            totals[name, "time"] += dur
            totals[name, "self"] += dur - child_time[span_id]
            if work is not None:
                totals[name, "count"] += work
        out = {}
        for metric, (name, stat) in LAYER_METRICS.items():
            base = setups if name in SETUP_LAYERS else tasks
            out[metric] = totals[name, stat] / max(base, 1)
        return out

    def write(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "fields": list(self.FIELDS),
                   "spans": [list(s) for s in self.spans]}
        path.write_text(json.dumps(payload) + "\n")
