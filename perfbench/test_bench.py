"""Tests of the benchmark itself: smoke mode, the refusal outside a
checkout, the tail rule, the loop and the tracer, and that each output
check rejects a wrong answer.

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

np, workloads, tracer = run.load_modules()


def _first_record(name):
    wl = workloads.WORKLOADS[name](run.ROOT, 5)
    corpus = wl.build()
    task = wl.round(corpus, 0)[0]
    return wl, corpus, task, task.run()


def test_smoke_mode_passes_every_workload():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == list(workloads.WORKLOADS)
    assert all(line.endswith(": ok") for line in lines)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moments",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "missing" in out.stderr


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    assert run.tail([float(k) for k in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(k) for k in range(99)]) == (49.0, 50.0, 49)
    assert run.tail([float(k) for k in range(1000)]) == (989.0, 99.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_witness_check_rejects_values_beyond_the_l1_bound():
    wl, _, task, rep = _first_record("witness")
    assert wl.check(task, rep) is None
    too_big = replace(rep, achieved=workloads.l1_norm(task.inputs["form"]) * 1.01)
    assert "l1" in wl.check(task, too_big)
    assert "residual" in wl.check(task, replace(rep, unitarity_residual=1e-6))
    assert "replayed" in workloads.replay_witness(task.inputs["form"],
                                                  replace(rep, achieved=rep.achieved * 1.001))


def test_profile_check_rejects_errors_above_the_chebyshev_premise():
    wl, _, task, prof = _first_record("profile")
    assert wl.check(task, prof) is None
    prof.errors = prof.errors + 1.0
    assert "mean squared error" in wl.check(task, prof)


def test_online_check_rejects_a_wrong_output_or_first_query():
    wl, _, task, tr = _first_record("online")
    assert wl.check(task, tr) is None
    tr.output += 1e-6
    assert "conditional expectation" in wl.check(task, tr)
    tr.output -= 1e-6
    tr.queries = tr.queries[1:]
    assert "first query" in wl.check(task, tr)


@pytest.mark.parametrize("field, value, message", [
    (0, [1.0, 0, 0, 0], "exact integer"),
    (0, [-1, 0, 0, 0], "outside"),
    (2, 54, "pairings"),
])
def test_moments_check_rejects_wrong_values(field, value, message):
    wl, _, task, out = _first_record("moments")
    assert wl.check(task, out) is None
    bad = list(out)
    if field == 0:
        bad[0] = value[:1] + out[0][1:]
    else:
        bad[field] = value
    assert message in wl.check(task, tuple(bad))


def test_moments_oracle_replay_catches_a_wrong_moment():
    wl, corpus, task, (moments, bounds, pairings) = _first_record("moments")
    wrong = [moments[0], moments[1] + 2, moments[2], moments[3]]
    assert wl.sampled_checks([(task, (moments, bounds, pairings))]) == {}
    assert "naive sum" in wl.sampled_checks([(task, (wrong, bounds, pairings))])[0]


def test_tracer_records_nested_spans_and_restores_functions():
    original = workloads.witness.polar_witness
    wl = workloads.WORKLOADS["moments"](run.ROOT, 1)
    corpus = wl.build()
    with tracer.Tracer() as tr:
        tr.task = 0
        wl.round(corpus, 0)[0].run()
    assert workloads.witness.polar_witness is original
    names = [span[3] for span in tr.spans]
    assert names.count("freecomb.trace_moment_exact") == len(workloads.MOMENT_ORDERS)
    metrics = tr.layer_metrics(tasks=1, setups=1)
    assert metrics["freecomb.pairings"] == 55
    assert metrics["freecomb.trace_moment_exact.calls"] == len(workloads.MOMENT_ORDERS)


def test_tracer_reports_a_missing_function_once_as_absent(monkeypatch):
    monkeypatch.delattr(workloads.freecomb, "enumerate_star_pairings")
    tr = tracer.Tracer()
    for _ in range(3):
        with tr:
            pass
    assert tr.absent == ["cbforms.freecomb.enumerate_star_pairings"]
    assert tr.layer_metrics(tasks=1, setups=1)["freecomb.pairings"] == 0


def test_loop_checks_every_task_and_keeps_only_round_zero_outputs():
    wl = workloads.WORKLOADS["moments"](run.ROOT, 3)
    loop = run.Loop(wl, wl.build())
    loop.run(0.3)
    assert loop.attempted == len(loop.durations) > 1
    assert len(loop.first_round) == len(wl.round(loop.corpus, 0)) == 1
    assert loop.problems == []


def test_traced_loop_runs_each_task_untraced_and_traced():
    wl = workloads.WORKLOADS["moments"](run.ROOT, 3)
    tr = tracer.Tracer()
    loop = run.Loop(wl, wl.build(), tr).run(0.0)
    assert len(loop.durations) == len(loop.traced) == 1 and loop.attempted == 2
    assert {span[2] for span in tr.spans} == {0}
    assert workloads.freecomb.trace_moment_exact.__name__ == "trace_moment_exact"
    assert not hasattr(workloads.freecomb.trace_moment_exact, "__wrapped__")
