#!/usr/bin/env python3
"""Run every workload on several seeds, report how steady each end-to-end
metric is, and write the baseline file.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For each workload and end-to-end metric it prints the median of the runs and
their spread: the distance between the first and third quartile as a share
of the median.  A spread of a third of the metric's bound or more is flagged,
and so is a failed operation or a fingerprint that differs between runs; any
flag makes the exit code 1.  It then makes one traced run per workload for
the per-layer numbers.  Each run is its own process.  The commit recorded is
the checkout's HEAD.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checkout
import measure


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(checkout.ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout.ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((checkout.OUT / f"result-{stem}.json").read_text())


def head_commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": checkout.BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": head_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args()

    checkout.prepare()
    import workloads

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    doc = {"claim": None, "environment": environment(),
           "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        runs = [one_run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        wall = (time.perf_counter() - t0) / len(runs)
        fingerprints = sorted({r["fingerprint"] for r in runs})
        failed = sum(r["failed"] for r in runs)
        entry = {"why": why[name],
                 "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
                 "failed": failed, "seconds_per_run": round(wall, 1),
                 "end_to_end": {}}
        print(f"{name}: {len(runs)} runs, {wall:.1f} s/run, failed {failed}, "
              f"fingerprints {len(fingerprints)}")
        for metric, value in runs[0]["metrics"].items():
            if not isinstance(value, (int, float)):
                continue
            values = [r["metrics"][metric] for r in runs]
            med = statistics.median(values)
            spr = measure.spread(values) if med else 0.0
            entry["end_to_end"][metric] = {"median": med, "spread": spr,
                                           "values": values}
            flag = ""
            if metric in bounds:
                ok = spr < bounds[metric] / 3
                steady &= ok
                flag = f"bound {bounds[metric]:<5} {'ok' if ok else 'TOO WIDE'}"
            print(f"  {metric:24s} median {med:<22.6g} spread {spr:<8.4f} {flag}")
        traced = one_run(name, seeds[0], spec["run_seconds"], 1)
        layer_names = [m["name"] for m in spec["per_layer"]]
        entry["per_layer"] = {k: v for k, v in traced["metrics"].items()
                              if k in layer_names or "." in k}
        # trace.overhead_s is noise-limited when there are few pairs
        entry["traced_pairs"] = traced["traced_passes"]
        entry["traced_failed"] = traced["failed"]
        entry["traced_fingerprint_matches"] = traced["fingerprint"] in fingerprints
        doc["workloads"][name] = entry
        steady &= (failed == 0 and traced["failed"] == 0
                   and len(fingerprints) == 1)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
