#!/usr/bin/env python3
"""Fingerprint every LP solve of the four benchmark workloads.

Drives the benchmark's own workload classes (perfbench/workloads.py) as the
benchmark does, with seed 0 and at full size: for each workload W,
W(0, smoke=False), then setup(), then run(key) for every key of items(),
in the order items() gives.  It wraps `LpSolver.solve` and `presolve` and
prints one line per workload:
LP solves, pivots, factorizations, and a sha256 over the status,
iterations, factorizations, objective, x and basis of every LP result in
call order; then the number of presolves and a sha256 over every presolved
problem: the reduced `LpProblem`'s arrays, `int_ids`, `columns`, `values`
and the `aggregated` map, or the infeasible verdict; then a sha256 over
every `solve_milp` answer: status, objective, best bound, gap, nodes and x.
Two trees that print the same lines made the same presolves and the same LP
solves; two whose answers hashes agree gave the same answers, even where
their LP solves differ.  The script exits 1 when its counts differ from the
`MilpResult` counters of the same solves.  checkout.prepare() imports
scoutplan from this checkout's src/ and pins OpenBLAS to one thread, as the
benchmark does, because another thread count may sum in another order.
The reference checks (HiGHS, the oracle) are not run.

    python3 scripts/lp_equivalence.py
"""

import hashlib
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checkout  # noqa: E402

checkout.prepare()      # before numpy loads

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from scoutplan import branch_bound, planner, simplex  # noqa: E402

SEED = 0


def drive(workload_class) -> None:
    """One full-size pass of a benchmark workload, without its checks."""
    workload = workload_class(SEED, smoke=False)
    workload.setup()
    for key in workload.items():
        workload.run(key)


def _digest_arrays(digest, arrays) -> None:
    for array in arrays:
        if array is None:
            digest.update(b"-")
        else:
            array = np.ascontiguousarray(array, dtype=float)
            digest.update(struct.pack("<q", len(array)) + array.tobytes())


def _digest(digest, res) -> None:
    digest.update(f"{res.status}|{res.iterations}|{res.factorizations}|"
                  f"{res.objective!r}|".encode())
    _digest_arrays(digest, (res.x, None if res.basis is None else res.basis.basic,
                            None if res.basis is None else res.basis.status))


def _digest_presolved(digest, presolved) -> None:
    if presolved is None:
        digest.update(b"infeasible|")
        return
    problem, aggregated = presolved.problem, presolved.aggregated
    rows = problem.rows
    digest.update(f"{''.join(problem.senses.tolist())}|{problem.constant!r}|".encode())
    _digest_arrays(digest, (
        problem.objective, rows.indptr, rows.indices, rows.data, problem.rhs,
        problem.lower, problem.upper, presolved.int_ids, presolved.columns,
        presolved.values, aggregated.indptr, aggregated.indices, aggregated.data))


def _digest_answer(digest, result) -> None:
    digest.update(f"{result.status}|{result.objective!r}|{result.best_bound!r}|"
                  f"{result.gap!r}|{result.nodes}|".encode())
    _digest_arrays(digest, (result.x,))


def run(name, workload) -> bool:
    """Print the workload's line; False when the counts disagree."""
    digest, presolve_digest = hashlib.sha256(), hashlib.sha256()
    answers_digest = hashlib.sha256()
    lp = {"solves": 0, "pivots": 0, "factorizations": 0}
    milp = dict.fromkeys(lp, 0)
    presolves = 0
    solve, solve_milp = simplex.LpSolver.solve, planner.solve_milp
    presolve = branch_bound.presolve

    def lp_solve(self, *args, **kwargs):
        res = solve(self, *args, **kwargs)
        lp["solves"] += 1
        lp["pivots"] += res.iterations
        lp["factorizations"] += res.factorizations
        _digest(digest, res)
        return res

    def digested_presolve(*args, **kwargs):
        nonlocal presolves
        presolved = presolve(*args, **kwargs)
        presolves += 1
        _digest_presolved(presolve_digest, presolved)
        return presolved

    def milp_solve(*args, **kwargs):
        result = solve_milp(*args, **kwargs)
        milp["solves"] += result.lp_solves
        milp["pivots"] += result.lp_pivots
        milp["factorizations"] += result.factorizations
        _digest_answer(answers_digest, result)
        return result

    simplex.LpSolver.solve, planner.solve_milp = lp_solve, milp_solve
    branch_bound.presolve = digested_presolve
    try:
        drive(workload)
    finally:
        simplex.LpSolver.solve, planner.solve_milp = solve, solve_milp
        branch_bound.presolve = presolve
    print(f"{name} solves {lp['solves']} pivots {lp['pivots']} "
          f"factorizations {lp['factorizations']} sha256 {digest.hexdigest()} "
          f"presolves {presolves} sha256 {presolve_digest.hexdigest()} "
          f"answers sha256 {answers_digest.hexdigest()}")
    if lp != milp:
        print(f"{name}: LpSolver.solve counted {lp}, MilpResult {milp}",
              file=sys.stderr)
    return lp == milp


if __name__ == "__main__":
    ok = [run(name, workload) for name, workload in workloads.WORKLOADS.items()]
    sys.exit(0 if all(ok) else 1)
