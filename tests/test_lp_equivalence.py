"""Smoke test of the LP and presolve fingerprint script over the four
benchmark workloads."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_one_line_per_workload_and_counts_agree():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "lp_equivalence.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "plan-ablation8", "mission-ablation8", "certify-random", "oracle-tiny"]
    for line in lines:
        assert re.fullmatch(r"\S+ solves [1-9]\d* pivots \d+ factorizations \d+ "
                            r"sha256 [0-9a-f]{64} presolves [1-9]\d* "
                            r"sha256 [0-9a-f]{64} answers sha256 [0-9a-f]{64}",
                            line), line
