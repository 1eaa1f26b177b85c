"""Pure helpers for the benchmark: percentile choice, timing summaries and
determinism digests.  Nothing here imports scoutplan."""

from __future__ import annotations

import hashlib
import json
import math
import statistics

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule (a value of the sample)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p: float, n: int) -> int:
    # the tolerance keeps 99.9% of 10000 at rank 9990 despite binary rounding
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    above its nearest rank, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def solve_summary(passes: list[list[float]]) -> dict:
    """Per-solve timing metrics: each is taken over the solves of one pass,
    then the median over the passes.  The number of passes in a run depends
    on how fast the machine is, so a statistic across passes (such as each
    solve's fastest pass) would shift with it."""
    n = len(passes[0])
    p = tail_percentile(n)
    summaries = [{
        "solve_p50_s": nearest_rank(times, 50.0),
        "solve_max_s": max(times),
        "solve_tail_s": max(times) if p is None else nearest_rank(times, p),
    } for times in passes]
    out = {key: statistics.median(s[key] for s in summaries)
           for key in summaries[0]}
    out["tail_percentile"] = "max" if p is None else f"p{p:g}"
    out["solves"] = n
    return out


def digest(payload) -> str:
    """sha256 of a JSON rendering; floats keep every digit (repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def spread(values) -> float:
    """Interquartile distance as a share of the median (Python's default
    exclusive quartiles)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf
