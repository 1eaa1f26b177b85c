#!/usr/bin/env python3
"""scoutplan benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload plan-ablation8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With --trace 0 the result carries the end-to-end metrics, measured with
tracing off.  With --trace 1 the run alternates untraced and traced passes
and the result carries the per-layer metrics of the traced passes.
--smoke shrinks every workload so that the whole benchmark runs in seconds.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checkout
import measure
import spans

SETUP_REPEATS = 7


def contract() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each section BENCHMARK.json declares."""
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}

# Printed and kept in the result file, but not part of the contract line:
# they read 0 on some workloads, exist on one only, or (solve_max_s) repeat
# solve_tail_s everywhere but on oracle-tiny.
EXTRA_UNITS = {
    "solve_max_s": "s", "solves": "count",
    "tail_percentile": "", "gap_total": "cost", "certified_frac": "ratio",
    "failed_frac": "ratio", "route_true_cost": "cost",
    "objective_true_cost": "cost", "executor.update_belief.s": "s",
    "report.mission_to_json.s": "s",
}


@dataclass
class Pass:
    ops: list
    wall: float
    tracer: object = None


def run_pass(workload, items, tracer=None, keep_refs=False) -> Pass:
    """One pass over the items.  Only the first pass keeps what the reference
    checks need, so peak RSS does not grow with the number of passes."""
    t0 = time.perf_counter()
    with spans.traced(tracer) if tracer else contextlib.nullcontext():
        ops = [_run_op(workload, key, keep_refs) for key in items]
    return Pass(ops, time.perf_counter() - t0, tracer)


def _run_op(workload, key, keep_refs):
    from workloads import Op

    try:
        op = workload.run(key)
    except Exception:
        return Op(str(key), error=traceback.format_exc())
    if not keep_refs:
        op.refs = ()
    return op


def run_passes(workload, items, seconds: float, trace: bool):
    """Repeat passes (untraced, or untraced/traced pairs) while the next one
    is predicted to end within the run length; always at least one."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _settle()
        plain.append(run_pass(workload, items, keep_refs=not plain))
        if trace:
            _settle()
            traced.append(run_pass(workload, items, spans.Tracer()))
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            return plain, traced


def _settle():
    """Collect garbage and freeze what survives (inputs, the first pass's
    outcomes), so the collector in a pass scans only that pass's objects."""
    gc.collect()
    gc.freeze()


def grade(workload, passes):
    """Reference-check the first pass, compare every pass with it, and count
    attempted and failed operations over all passes."""
    first = passes[0].ops
    problems = {}
    for op in first:
        found = [op.error] if op.error else []
        if not found:
            if not op.solves or any(s.objective is None for s in op.solves):
                found.append("no plan returned")
            else:
                found.extend(workload.check(op))
        if found:
            problems[op.key] = found
    expected = {op.key: measure.digest(op.answer()) for op in first}
    attempted = failed = 0
    for p in passes:
        for op in p.ops:
            attempted += 1
            same = measure.digest(op.answer()) == expected.get(op.key)
            if op.key in problems or not same:
                failed += 1
                if not same:
                    problems.setdefault(op.key, []).append(
                        "answer differs from the first pass")
    fingerprint = measure.digest(sorted(expected.items()))
    return attempted, failed, problems, fingerprint


def end_to_end(passes, setup_s, rss_mb):
    solves = [s for op in passes[0].ops for s in op.solves]
    answered = [s for s in solves if s.objective is not None]
    m = {"setup_s": setup_s,
         "run_s": statistics.median(p.wall for p in passes)}
    m.update(measure.solve_summary(
        [[s.seconds for op in p.ops for s in op.solves] for p in passes]))
    # fsum is exact, so the totals do not depend on the seed-drawn order
    m["objective_total"] = math.fsum(s.objective for s in answered)
    m["bound_total"] = math.fsum(s.bound for s in answered)
    m["peak_rss_mb"] = rss_mb
    m["gap_total"] = math.fsum(s.gap for s in answered)
    m["certified_frac"] = sum(s.status == "optimal" for s in solves) / len(solves)
    for op in passes[0].ops:
        m.update(op.extras)
    return m


def per_layer(plain, traced):
    layers = [spans.layer_metrics(p.tracer) for p in traced]
    m = {name: statistics.median(layer[name] for layer in layers)
         for name in layers[0]}
    # each traced pass against the untraced pass run just before it
    m["trace.overhead_s"] = statistics.median(
        t.wall - p.wall for p, t in zip(plain, traced))
    return m


def set_up(args):
    """Import the program, build the workload's inputs and warm up."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.setup()
    workloads.warm_up()
    return workload


def setup_times(args, repeats: int) -> list[float]:
    """Set-up seconds of fresh processes.  Importing numpy, scipy and
    scoutplan is most of the set-up and happens once per process, so each
    repeat is a process of its own."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_workload(args) -> int:
    setups = setup_times(args, SETUP_REPEATS // 2 + 1)
    workload = set_up(args)
    items = workload.items()
    plain, traced = run_passes(workload, items, args.seconds, args.trace)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the other half after the passes, so that a few slow seconds on the
    # machine do not move every sample
    setups += setup_times(args, SETUP_REPEATS // 2)
    setup_s = statistics.median(setups)
    if not any(op.solves for op in plain[0].ops):
        for op in plain[0].ops:
            print(f"FAILED {workload.name} {op.key}: {op.error}", file=sys.stderr)
        return 1

    attempted, failed, problems, fingerprint = grade(workload, plain + traced)
    for key, found in sorted(problems.items()):
        for problem in found:
            print(f"FAILED {workload.name} {key}: {problem}", file=sys.stderr)

    metrics = end_to_end(plain, setup_s, rss_mb)
    metrics["failed_frac"] = failed / attempted
    declared = contract()
    reported = declared["end_to_end"]
    if args.trace:
        metrics.update(per_layer(plain, traced))
        reported = declared["per_layer"]
    units = {**declared["end_to_end"], **declared["per_layer"], **EXTRA_UNITS}
    print(f"workload {workload.name}  seed {args.seed}  trace {int(args.trace)}  "
          f"passes {len(plain)}+{len(traced)}  fingerprint {fingerprint}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value!s:>24}  {units[name]}")

    checkout.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{int(args.trace)}"
    for i, p in enumerate(traced):
        p.tracer.write(checkout.OUT / f"spans-{stem}-pass{i}.json")
    (checkout.OUT / f"result-{stem}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": int(args.trace),
        "smoke": args.smoke, "fingerprint": fingerprint, "passes": len(plain),
        "pass_walls": [p.wall for p in plain],
        "traced_passes": len(traced), "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics}, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode or not lines or not json.loads(lines[-1])["correct"]:
            print(f"workload {name} failed (exit {done.returncode})", file=sys.stderr)
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="plan-ablation8, mission-ablation8, certify-random, "
                             "oracle-tiny or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds it took, and exit "
                             "(how setup_s is measured)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        checkout.prepare()
    except checkout.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        set_up(args)
        print(time.perf_counter() - t0)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
