"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench

The smoke tests run every workload at its tiny size through the real
command line; together they take about a minute on 2 CPUs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkout
import measure
import run
import spans

HERE = Path(__file__).resolve().parent
checkout.prepare()
import workloads  # noqa: E402  (needs checkout.prepare first)


def test_self_time_subtracts_children_once():
    tree = [
        spans.Span("solve", 0.0, 10.0, -1),
        spans.Span("lp", 1.0, 4.0, 0),
        spans.Span("lp", 3.0, 5.0, 0),        # overlaps the first child
        spans.Span("eval", 6.0, 7.0, 0),
        spans.Span("inner", 1.5, 2.0, 1),     # grandchild: only its parent's
        spans.Span("late", 9.5, 12.0, 0),     # runs past its parent's end
    ]
    own = spans.self_times(tree)
    assert own["solve"] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own["lp"] == pytest.approx(3.0 - 0.5 + 2.0)
    assert own["inner"] == pytest.approx(0.5)
    assert own["late"] == pytest.approx(2.5)


def test_tracer_nests_spans_and_restores_call_sites():
    from scoutplan import milp, planner, simplex

    original = (planner.solve_scenario, milp.evaluate, simplex.LpSolver.solve)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        planner.solve_scenario(workloads.random_tiny_scenario(3))
    assert (planner.solve_scenario, milp.evaluate,
            simplex.LpSolver.solve) == original
    names = [s.name for s in tracer.spans]
    assert names[0] == "planner.solve_scenario"
    assert all(s.parent >= 0 for s in tracer.spans[1:])
    layer = spans.layer_metrics(tracer)
    assert layer["formulation.build_model.calls"] == 1
    assert layer["branch_bound.model_to_lp.calls"] == 2
    assert layer["simplex.cold.calls"] >= 1
    assert layer["planner.solve_scenario.self_s"] > 0


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (200, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_solve_summary_is_the_median_over_passes():
    summary = measure.solve_summary([[4.0, 3.0], [9.0, 3.5], [2.0, 3.0]])
    assert summary["solve_max_s"] == 4.0          # the passes' maxima: 4, 9, 3
    assert summary["solve_tail_s"] == 4.0 and summary["tail_percentile"] == "max"
    one_pass = [float(i) for i in range(200, 0, -1)]
    summary = measure.solve_summary([one_pass])
    assert summary["solve_p50_s"] == 100.0
    assert summary["solve_tail_s"] == 180.0 and summary["tail_percentile"] == "p90"
    assert summary["solve_max_s"] == 200.0 and summary["solves"] == 200


def _op(key, objective, output="plan"):
    solve = workloads.Solve(0.1, "optimal", objective, objective, 0.0, 1)
    return workloads.Op(key, [solve], output)


class _Checked:
    def check(self, op):
        return []


def test_fingerprint_ignores_order_and_timing_but_not_answers():
    first = run.Pass([_op("a", 1.0), _op("b", 2.0)], 1.0)
    reordered = run.Pass([_op("b", 2.0), _op("a", 1.0)], 5.0)
    reordered.ops[0].solves[0].seconds = 7.0
    attempted, failed, problems, fp = run.grade(_Checked(), [first, reordered])
    assert (attempted, failed, problems) == (4, 0, {})
    assert fp == run.grade(_Checked(), [reordered])[3]

    changed = run.Pass([_op("a", 1.0), _op("b", 2.0, output="other plan")], 1.0)
    attempted, failed, problems, _ = run.grade(_Checked(), [first, changed])
    assert (attempted, failed) == (4, 1) and list(problems) == ["b"]
    assert run.grade(_Checked(), [changed])[3] != fp


def _run(args, cwd=HERE.parent):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    return done.returncode, done.stdout.splitlines(), done.stderr


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    code, lines, err = _run(["--workload", workload, "--seed", "4",
                             "--seconds", "1", "--trace", "0", "--smoke"])
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.contract()["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_matches_untraced_answers():
    code, lines, err = _run(["--workload", "mission-ablation8", "--seed", "4",
                             "--seconds", "1", "--trace", "1", "--smoke"])
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 2   # untraced + traced
    assert set(result["metrics"]) == set(run.contract()["per_layer"])
    assert result["metrics"]["executor.steps"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, err = _run(["--workload", "oracle-tiny", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert code != 0 and "src/scoutplan" in err
    assert not any(line.startswith("{") for line in lines)
